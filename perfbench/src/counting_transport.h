#ifndef CHEF_PERFBENCH_COUNTING_TRANSPORT_H_
#define CHEF_PERFBENCH_COUNTING_TRANSPORT_H_

/// \file
/// A Transport decorator for the coordinator side of a shard link. It
/// counts frames and bytes per wire message type in both directions and
/// times every Send. All endpoints of one coordinator share one
/// WireTally, which also estimates the coordinator thread's busy time:
/// the time spent inside transport calls plus the time between a
/// delivered message and the next transport call (decoding, merging and
/// forwarding that message). Only the coordinator's Run thread may use
/// the endpoints, so the tally needs no locking.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "shard/transport.h"

namespace chef::perfbench {

class WireTally
{
  public:
    struct PerType {
        uint64_t frames_in = 0;
        uint64_t bytes_in = 0;
        uint64_t frames_out = 0;
        uint64_t bytes_out = 0;
        double send_seconds = 0.0;

        uint64_t frames() const { return frames_in + frames_out; }
        uint64_t bytes() const { return bytes_in + bytes_out; }
    };

    /// Keyed by the message's "type" field ("gossip", "result", ...).
    const std::map<std::string, PerType>& by_type() const { return by_type_; }
    PerType Get(const std::string& type) const;

    /// Coordinator thread time outside idle polling, in seconds.
    double busy_seconds() const { return busy_seconds_; }

    /// Closes the busy interval left open by the last delivered message
    /// (the coordinator's final merge); call once Run has returned.
    void FinishBatch();

  private:
    friend class CountingTransport;
    using Clock = std::chrono::steady_clock;

    /// Called at the start of every transport call.
    void EnterCall(Clock::time_point now);
    /// Called at the end of every transport call; \p delivered says
    /// whether a message is now being processed.
    void LeaveCall(Clock::time_point entered, Clock::time_point now,
                   bool delivered);

    std::map<std::string, PerType> by_type_;
    double busy_seconds_ = 0.0;
    bool processing_ = false;
    Clock::time_point processing_since_;
};

class CountingTransport : public shard::Transport
{
  public:
    CountingTransport(shard::Transport* inner, WireTally* tally);

    bool Send(const std::string& message) override;
    RecvStatus Receive(std::string* message, int timeout_ms) override;
    void Close() override;

    /// Receives the peer's first message (the worker hello) ahead of
    /// the coordinator and hands it out on the first Receive, so set-up
    /// can include the hello without the coordinator missing it.
    /// Returns false when nothing arrived within \p timeout_ms.
    bool AwaitFirstMessage(int timeout_ms);

  private:
    void Count(const std::string& message, bool outgoing);

    shard::Transport* inner_;
    WireTally* tally_;
    bool has_stashed_ = false;
    std::string stashed_;
};

/// The value of a wire message's leading "type" field ("?" if absent).
std::string WireMessageType(const std::string& message);

}  // namespace chef::perfbench

#endif  // CHEF_PERFBENCH_COUNTING_TRANSPORT_H_
