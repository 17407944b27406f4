#include "counting_transport.h"

#include <utility>

namespace chef::perfbench {

namespace {

double
SecondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::string
WireMessageType(const std::string& message)
{
    // Every encoder writes "type" as the first key (shard/wire.cc).
    static const std::string kPrefix = "{\"type\":\"";
    if (message.compare(0, kPrefix.size(), kPrefix) != 0) {
        return "?";
    }
    const size_t end = message.find('"', kPrefix.size());
    if (end == std::string::npos) {
        return "?";
    }
    return message.substr(kPrefix.size(), end - kPrefix.size());
}

WireTally::PerType
WireTally::Get(const std::string& type) const
{
    const auto it = by_type_.find(type);
    return it == by_type_.end() ? PerType{} : it->second;
}

void
WireTally::EnterCall(Clock::time_point now)
{
    if (processing_) {
        busy_seconds_ += SecondsBetween(processing_since_, now);
        processing_ = false;
    }
}

void
WireTally::LeaveCall(Clock::time_point entered, Clock::time_point now,
                     bool delivered)
{
    busy_seconds_ += SecondsBetween(entered, now);
    processing_ = delivered;
    processing_since_ = now;
}

void
WireTally::FinishBatch()
{
    EnterCall(Clock::now());
}

CountingTransport::CountingTransport(shard::Transport* inner,
                                     WireTally* tally)
    : inner_(inner), tally_(tally)
{
}

void
CountingTransport::Count(const std::string& message, bool outgoing)
{
    WireTally::PerType& entry = tally_->by_type_[WireMessageType(message)];
    // The transport appends one newline per frame.
    const uint64_t bytes = message.size() + 1;
    if (outgoing) {
        ++entry.frames_out;
        entry.bytes_out += bytes;
    } else {
        ++entry.frames_in;
        entry.bytes_in += bytes;
    }
}

bool
CountingTransport::Send(const std::string& message)
{
    const auto entered = WireTally::Clock::now();
    tally_->EnterCall(entered);
    const bool ok = inner_->Send(message);
    const auto now = WireTally::Clock::now();
    Count(message, /*outgoing=*/true);
    tally_->by_type_[WireMessageType(message)].send_seconds +=
        SecondsBetween(entered, now);
    // The caller resumes its own work after a send.
    tally_->LeaveCall(entered, now, /*delivered=*/true);
    return ok;
}

shard::Transport::RecvStatus
CountingTransport::Receive(std::string* message, int timeout_ms)
{
    const auto entered = WireTally::Clock::now();
    tally_->EnterCall(entered);
    RecvStatus status;
    if (has_stashed_) {
        *message = std::move(stashed_);
        has_stashed_ = false;
        status = RecvStatus::kMessage;
    } else {
        status = inner_->Receive(message, timeout_ms);
        if (status == RecvStatus::kMessage) {
            Count(*message, /*outgoing=*/false);
        }
    }
    tally_->LeaveCall(entered, WireTally::Clock::now(),
                      status == RecvStatus::kMessage);
    return status;
}

void
CountingTransport::Close()
{
    inner_->Close();
}

bool
CountingTransport::AwaitFirstMessage(int timeout_ms)
{
    if (has_stashed_) {
        return true;
    }
    if (inner_->Receive(&stashed_, timeout_ms) != RecvStatus::kMessage) {
        return false;
    }
    Count(stashed_, /*outgoing=*/false);
    has_stashed_ = true;
    return true;
}

}  // namespace chef::perfbench
