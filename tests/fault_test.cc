/// \file
/// Tests for the fault-tolerant shard runtime: the seeded
/// FaultInjectingTransport decorator (drop / truncate / corrupt / close
/// scripts, deterministic replay), the heartbeat wire frames, and
/// the coordinator's failure paths end-to-end over loopback shards —
/// heartbeat timeout, mid-batch transport close with deterministic
/// requeue onto the survivor, malformed frames condemning the shard
/// (not the batch), quorum degradation to a partial report, and the
/// worker cancelling its in-flight batch when the coordinator vanishes.

#include "shard/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/coordinator.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"

namespace chef::shard {
namespace {

using service::JobResult;
using service::JobSpec;
using service::JobStatus;

// ---------------------------------------------------------------------------
// FaultInjectingTransport unit tests.
// ---------------------------------------------------------------------------

TEST(FaultTransport, DropSwallowsExactlyTheNthSend)
{
    LoopbackPair pair = CreateLoopbackPair();
    FaultInjectingTransport faulty(
        pair.a.get(),
        {{FaultRule::Point::kSend, FaultRule::Action::kDrop, 2}});

    EXPECT_TRUE(faulty.Send("one"));
    EXPECT_TRUE(faulty.Send("two"));  // Swallowed, but reports success.
    EXPECT_TRUE(faulty.Send("three"));
    EXPECT_EQ(faulty.sends(), 3u);
    EXPECT_EQ(faulty.faults_fired(), 1u);

    std::string message;
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "one");
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "three");
}

TEST(FaultTransport, ReceiveDropLooksLikeAQuietPoll)
{
    LoopbackPair pair = CreateLoopbackPair();
    FaultInjectingTransport faulty(
        pair.b.get(),
        {{FaultRule::Point::kReceive, FaultRule::Action::kDrop, 1}});

    ASSERT_TRUE(pair.a->Send("lost"));
    ASSERT_TRUE(pair.a->Send("kept"));
    std::string message;
    // The first delivered message is discarded; the caller just sees an
    // empty poll, exactly like a lossy datagram link.
    EXPECT_EQ(faulty.Receive(&message, -1),
              Transport::RecvStatus::kTimeout);
    EXPECT_TRUE(message.empty());
    ASSERT_EQ(faulty.Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "kept");
    EXPECT_EQ(faulty.receives(), 2u);
}

TEST(FaultTransport, TruncateYieldsAMalformedStrictPrefix)
{
    LoopbackPair pair = CreateLoopbackPair();
    FaultInjectingTransport faulty(
        pair.a.get(),
        {{FaultRule::Point::kSend, FaultRule::Action::kTruncate, 1}},
        /*seed=*/2014);

    const std::string hello = EncodeHello();
    ASSERT_TRUE(faulty.Send(hello));
    std::string wire;
    ASSERT_EQ(pair.b->Receive(&wire, -1), Transport::RecvStatus::kMessage);
    // A strict prefix: never empty, never the whole frame.
    ASSERT_FALSE(wire.empty());
    ASSERT_LT(wire.size(), hello.size());
    EXPECT_EQ(hello.compare(0, wire.size(), wire), 0);
    // And a strict prefix of a JSON object must fail to decode.
    Message decoded;
    std::string decode_error;
    EXPECT_FALSE(DecodeMessage(wire, &decoded, &decode_error));
    EXPECT_FALSE(decode_error.empty());
}

TEST(FaultTransport, CorruptionIsDeterministicForASeed)
{
    const std::string frame = EncodeHello();
    const std::vector<FaultRule> script = {
        {FaultRule::Point::kSend, FaultRule::Action::kCorrupt, 1}};

    auto mangle_once = [&](uint64_t seed) {
        LoopbackPair pair = CreateLoopbackPair();
        FaultInjectingTransport faulty(pair.a.get(), script, seed);
        EXPECT_TRUE(faulty.Send(frame));
        std::string wire;
        EXPECT_EQ(pair.b->Receive(&wire, -1),
                  Transport::RecvStatus::kMessage);
        return wire;
    };

    const std::string first = mangle_once(7);
    const std::string again = mangle_once(7);
    EXPECT_EQ(first, again);  // Same seed -> bit-identical mangling.
    EXPECT_NE(first, frame);  // ... and it really did corrupt something.
    EXPECT_EQ(first.size(), frame.size());
}

TEST(FaultTransport, CloseSeversTheChannelMidScript)
{
    LoopbackPair pair = CreateLoopbackPair();
    FaultInjectingTransport faulty(
        pair.a.get(),
        {{FaultRule::Point::kSend, FaultRule::Action::kClose, 2}});

    EXPECT_TRUE(faulty.Send("first"));
    // The closing send itself reports success (the process died mid-
    // write, from the peer's point of view); later sends fail for real.
    EXPECT_TRUE(faulty.Send("second"));
    EXPECT_FALSE(faulty.Send("third"));

    std::string message;
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "first");
    EXPECT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kClosed);
}

TEST(FaultTransport, DelayHoldsTheMessageThenDeliversIt)
{
    LoopbackPair pair = CreateLoopbackPair();
    FaultRule rule;
    rule.point = FaultRule::Point::kSend;
    rule.action = FaultRule::Action::kDelay;
    rule.nth = 1;
    rule.delay_seconds = 0.05;
    FaultInjectingTransport faulty(pair.a.get(), {rule});

    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(faulty.Send("late"));
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(waited, 0.045);
    std::string message;
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "late");
}

// ---------------------------------------------------------------------------
// Heartbeat wire frames.
// ---------------------------------------------------------------------------

TEST(WireHeartbeat, RoundTripsLivenessAndStreamedResults)
{
    HeartbeatMessage beat;
    beat.shard_id = 3;
    beat.sequence = 41;
    JobResult done;
    done.job_index = 17;
    done.workload = "py/argparse";
    done.label = "py/argparse#17";
    done.status = JobStatus::kCompleted;
    done.seed_used = 2014;
    done.num_test_cases = 9;
    done.num_relevant_test_cases = 4;
    beat.results.push_back(done);

    Message decoded;
    std::string error;
    ASSERT_TRUE(DecodeMessage(EncodeHeartbeat(beat), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.type, MessageType::kHeartbeat);
    EXPECT_EQ(decoded.heartbeat.shard_id, 3u);
    EXPECT_EQ(decoded.heartbeat.sequence, 41u);
    ASSERT_EQ(decoded.heartbeat.results.size(), 1u);
    const JobResult& round = decoded.heartbeat.results[0];
    EXPECT_EQ(round.job_index, 17u);
    EXPECT_EQ(round.workload, "py/argparse");
    EXPECT_EQ(round.status, JobStatus::kCompleted);
    EXPECT_EQ(round.seed_used, 2014u);
    EXPECT_EQ(round.num_test_cases, 9u);
    EXPECT_EQ(round.num_relevant_test_cases, 4u);
}

TEST(WireHeartbeat, RunRequestAlwaysCarriesTheCadenceAndRoundTripsIt)
{
    RunRequest request;
    request.shard_id = 0;
    request.num_shards = 1;

    // Heartbeats off is a value like any other: the key is written.
    for (const double cadence : {0.0, 0.25}) {
        request.heartbeat_interval_seconds = cadence;
        const std::string line = EncodeRun(request);
        EXPECT_NE(line.find("\"heartbeat_interval_seconds\""),
                  std::string::npos);
        Message decoded;
        std::string error;
        ASSERT_TRUE(DecodeMessage(line, &decoded, &error)) << error;
        EXPECT_EQ(decoded.run.heartbeat_interval_seconds, cadence);
    }
}

// ---------------------------------------------------------------------------
// Coordinator failure paths over loopback shards.
// ---------------------------------------------------------------------------

std::vector<JobSpec>
SmallBatch(uint64_t max_runs)
{
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const char* id :
         {"py/argparse", "lua/cliargs", "py/simplejson", "lua/haml"}) {
        JobSpec spec;
        spec.workload = id;
        spec.label = std::string(id) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = max_runs;
        spec.options.max_seconds = 1e9;
        spec.options.collect_timeline = false;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

ShardCoordinator::Options
FaultyCoordinatorOptions()
{
    ShardCoordinator::Options options;
    options.service.seed = 2014;
    options.service.num_workers = 1;
    return options;
}

/// Runs \p coordinator with shard 0 served by a real worker and shard 1
/// by \p misbehave — a script acting directly on the worker-side
/// transport endpoint.
bool
RunWithFaultyShard(ShardCoordinator* coordinator,
                   const std::vector<JobSpec>& jobs,
                   const std::function<void(Transport*)>& misbehave,
                   std::string* error)
{
    LoopbackPair good = CreateLoopbackPair();
    LoopbackPair bad = CreateLoopbackPair();
    const std::vector<Transport*> side = {good.a.get(), bad.a.get()};
    std::thread survivor([&] {
        ShardWorker worker(ShardWorker::Options{}, good.b.get());
        worker.Serve();
    });
    std::thread faulty([&] { misbehave(bad.b.get()); });
    const bool ok = coordinator->Run(jobs, side, error);
    good.a->Close();
    bad.a->Close();
    survivor.join();
    faulty.join();
    return ok;
}

/// A shard that greets, then drops dead (SIGKILL, as the wire sees it)
/// the moment it is handed a batch.
void
CloseOnFirstRun(Transport* endpoint)
{
    ASSERT_TRUE(endpoint->Send(EncodeHello()));
    std::string line;
    Message message;
    std::string decode_error;
    while (endpoint->Receive(&line, -1) == Transport::RecvStatus::kMessage) {
        if (DecodeMessage(line, &message, &decode_error) &&
            message.type == MessageType::kRun) {
            endpoint->Close();
            return;
        }
    }
}

/// Blocks until the peer closes (the coordinator condemning the shard).
void
DrainUntilClosed(Transport* endpoint)
{
    std::string line;
    while (endpoint->Receive(&line, -1) != Transport::RecvStatus::kClosed) {
    }
}

TEST(CoordinatorFaults, HeartbeatTimeoutCondemnsASilentShard)
{
    const std::vector<JobSpec> jobs = SmallBatch(4);
    ShardCoordinator::Options options = FaultyCoordinatorOptions();
    options.heartbeat_interval_seconds = 0.05;
    options.heartbeat_timeout_seconds = 0.5;

    // A single shard that greets, accepts its batch, then never speaks
    // again — the SIGSTOP shape: the pipe stays open, so only the
    // heartbeat deadline can catch it.
    LoopbackPair pair = CreateLoopbackPair();
    std::thread mute([&] {
        ASSERT_TRUE(pair.b->Send(EncodeHello()));
        DrainUntilClosed(pair.b.get());
    });
    ShardCoordinator coordinator(options);
    std::string error;
    const bool ok =
        coordinator.Run(jobs, {pair.a.get()}, &error);
    pair.a->Close();
    mute.join();

    // Death degrades the batch; it does not fail it.
    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    EXPECT_EQ(coordinator.fault().deaths, 1u);
    ASSERT_EQ(coordinator.shards().size(), 1u);
    EXPECT_TRUE(coordinator.shards()[0].dead);
    EXPECT_NE(coordinator.shards()[0].death_cause.find("heartbeat timeout"),
              std::string::npos)
        << coordinator.shards()[0].death_cause;
    // The whole partition was requeued, but with no survivor the quorum
    // broke and every job resolved to a cancelled placeholder.
    EXPECT_EQ(coordinator.fault().jobs_requeued, jobs.size());
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    for (const JobResult& result : coordinator.results()) {
        EXPECT_EQ(result.status, JobStatus::kCancelled);
        EXPECT_EQ(result.stop_source, "shard_death");
    }
}

TEST(CoordinatorFaults, MidBatchCloseRequeuesDeterministically)
{
    const std::vector<JobSpec> jobs = SmallBatch(6);

    // Clean single-shard reference run.
    ShardCoordinator reference(FaultyCoordinatorOptions());
    std::string error;
    ASSERT_TRUE(RunLoopbackShards(&reference, jobs, 1, &error)) << error;

    // Two shards; shard 1 accepts its batch and drops dead.
    ShardCoordinator coordinator(FaultyCoordinatorOptions());
    const bool ok = RunWithFaultyShard(
        &coordinator, jobs,
        CloseOnFirstRun,
        &error);

    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    EXPECT_EQ(coordinator.fault().deaths, 1u);
    EXPECT_GT(coordinator.fault().jobs_requeued, 0u);
    ASSERT_EQ(coordinator.shards().size(), 2u);
    EXPECT_FALSE(coordinator.shards()[0].dead);
    EXPECT_TRUE(coordinator.shards()[1].dead);
    EXPECT_NE(coordinator.shards()[1].death_cause.find("transport closed"),
              std::string::npos)
        << coordinator.shards()[1].death_cause;

    // The requeued jobs reran from their global-index-derived seeds, so
    // every per-job result matches the undisturbed reference run.
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& a = reference.results()[i];
        const JobResult& b = coordinator.results()[i];
        SCOPED_TRACE(jobs[i].label);
        EXPECT_EQ(b.status, JobStatus::kCompleted);
        EXPECT_EQ(a.seed_used, b.seed_used);
        EXPECT_EQ(a.num_test_cases, b.num_test_cases);
        EXPECT_EQ(a.num_relevant_test_cases, b.num_relevant_test_cases);
        EXPECT_EQ(a.engine_stats.ll_paths, b.engine_stats.ll_paths);
        EXPECT_EQ(a.engine_stats.hl_paths, b.engine_stats.hl_paths);
    }
    // Corpus parity — the paper's merged-corpus invariant, under fire.
    EXPECT_EQ(reference.corpus().Keys(), coordinator.corpus().Keys());
}

TEST(CoordinatorFaults, MalformedFrameCondemnsTheShardNotTheBatch)
{
    const std::vector<JobSpec> jobs = SmallBatch(4);
    ShardCoordinator coordinator(FaultyCoordinatorOptions());
    std::string error;
    const bool ok = RunWithFaultyShard(
        &coordinator, jobs,
        [](Transport* endpoint) {
            ASSERT_TRUE(endpoint->Send(EncodeHello()));
            std::string line;
            Message message;
            std::string decode_error;
            while (endpoint->Receive(&line, -1) ==
                   Transport::RecvStatus::kMessage) {
                if (DecodeMessage(line, &message, &decode_error) &&
                    message.type == MessageType::kRun) {
                    endpoint->Send("@@garbage frame, not json@@");
                    DrainUntilClosed(endpoint);
                    return;
                }
            }
        },
        &error);

    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    ASSERT_EQ(coordinator.shards().size(), 2u);
    EXPECT_TRUE(coordinator.shards()[1].dead);
    const std::string& cause = coordinator.shards()[1].death_cause;
    EXPECT_NE(cause.find("malformed message"), std::string::npos) << cause;
    // The post-mortem keeps a snippet of the offending frame.
    EXPECT_NE(cause.find("garbage frame"), std::string::npos) << cause;
    // The survivor absorbed the orphaned jobs: a full, valid report.
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    for (const JobResult& result : coordinator.results()) {
        EXPECT_EQ(result.status, JobStatus::kCompleted) << result.error;
    }
}

TEST(CoordinatorFaults, OldProtocolHelloCondemnsTheShard)
{
    // The one compatibility rule left on the wire: a hello announcing
    // another protocol version is refused before any job is sent.
    const std::vector<JobSpec> jobs = SmallBatch(4);
    ShardCoordinator coordinator(FaultyCoordinatorOptions());
    std::string error;
    const bool ok = RunWithFaultyShard(
        &coordinator, jobs,
        [](Transport* endpoint) {
            ASSERT_TRUE(endpoint->Send(
                "{\"type\":\"hello\",\"protocol_version\":2}"));
            DrainUntilClosed(endpoint);
        },
        &error);

    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    ASSERT_EQ(coordinator.shards().size(), 2u);
    EXPECT_TRUE(coordinator.shards()[1].dead);
    EXPECT_EQ(coordinator.shards()[1].death_cause, "protocol version 2 != 3");
    EXPECT_EQ(coordinator.shards()[1].jobs_assigned, 0u);
    // The survivor ran the refused shard's partition.
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    for (const JobResult& result : coordinator.results()) {
        EXPECT_EQ(result.status, JobStatus::kCompleted) << result.error;
    }
}

TEST(CoordinatorFaults, BrokenQuorumDegradesToAPartialReport)
{
    const std::vector<JobSpec> jobs = SmallBatch(4);
    ShardCoordinator::Options options = FaultyCoordinatorOptions();
    options.min_live_shards = 2;  // Both shards required.
    ShardCoordinator coordinator(options);
    std::string error;
    const bool ok = RunWithFaultyShard(
        &coordinator, jobs,
        CloseOnFirstRun,
        &error);

    // Still true: a degraded partial report, not a batch error.
    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    size_t completed = 0;
    size_t lost = 0;
    for (const JobResult& result : coordinator.results()) {
        if (result.status == JobStatus::kCompleted) {
            ++completed;
        } else {
            ASSERT_EQ(result.status, JobStatus::kCancelled);
            EXPECT_EQ(result.stop_source, "shard_death");
            EXPECT_NE(result.error.find("insufficient live shards"),
                      std::string::npos)
                << result.error;
            ++lost;
        }
    }
    // The survivor's own partition completed; the dead shard's jobs
    // were not requeued below quorum.
    EXPECT_GT(completed, 0u);
    EXPECT_GT(lost, 0u);
}

/// Coordinator-side endpoint decorator that signals once the coordinator
/// has received a final result message from the peer.
class ResultSignalingTransport : public Transport
{
  public:
    explicit ResultSignalingTransport(Transport* inner) : inner_(inner) {}

    bool Send(const std::string& message) override
    {
        return inner_->Send(message);
    }

    RecvStatus Receive(std::string* message, int timeout_ms) override
    {
        const RecvStatus status = inner_->Receive(message, timeout_ms);
        Message decoded;
        std::string error;
        if (status == RecvStatus::kMessage &&
            DecodeMessage(*message, &decoded, &error) &&
            decoded.type == MessageType::kResult) {
            std::lock_guard<std::mutex> lock(mutex_);
            result_seen_ = true;
            cv_.notify_all();
        }
        return status;
    }

    void Close() override { inner_->Close(); }

    /// Waits for the first result; gives up after a minute so a broken
    /// survivor fails the test instead of hanging it.
    void WaitForResult()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::minutes(1),
                     [this] { return result_seen_; });
    }

  private:
    Transport* inner_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool result_seen_ = false;
};

TEST(CoordinatorFaults, BrokenQuorumHoldsWhenTheSurvivorIsAlreadyIdle)
{
    // The ordering behind BrokenQuorumDegradesToAPartialReport's rare
    // failure, forced: the survivor reports its whole partition before
    // the faulty shard even greets, so it sits idle when the faulty shard
    // dies. The dead shard's jobs must still not be requeued onto it in
    // the same sweep that broke the quorum.
    const std::vector<JobSpec> jobs = SmallBatch(4);
    ShardCoordinator::Options options = FaultyCoordinatorOptions();
    options.min_live_shards = 2;
    ShardCoordinator coordinator(options);

    LoopbackPair good = CreateLoopbackPair();
    LoopbackPair bad = CreateLoopbackPair();
    ResultSignalingTransport watched(good.a.get());
    std::thread survivor([&] {
        ShardWorker worker(ShardWorker::Options{}, good.b.get());
        worker.Serve();
    });
    std::thread faulty([&] {
        watched.WaitForResult();
        CloseOnFirstRun(bad.b.get());
    });
    std::string error;
    const bool ok = coordinator.Run(jobs, {&watched, bad.a.get()}, &error);
    good.a->Close();
    bad.a->Close();
    survivor.join();
    faulty.join();

    EXPECT_TRUE(ok) << error;
    EXPECT_TRUE(coordinator.degraded());
    ASSERT_EQ(coordinator.results().size(), jobs.size());
    size_t completed = 0;
    size_t lost = 0;
    for (const JobResult& result : coordinator.results()) {
        if (result.status == JobStatus::kCompleted) {
            ++completed;
        } else {
            EXPECT_EQ(result.stop_source, "shard_death");
            ++lost;
        }
    }
    EXPECT_EQ(completed, 2u);  // The survivor's partition: jobs 0 and 2.
    EXPECT_EQ(lost, 2u);       // The dead shard's: jobs 1 and 3.
    EXPECT_EQ(coordinator.shards()[0].jobs_assigned, 2u);
}

TEST(CoordinatorFaults, WorkerCancelsInFlightBatchWhenCoordinatorDies)
{
    LoopbackPair pair = CreateLoopbackPair();
    bool served_clean = true;
    std::thread worker_thread([&] {
        ShardWorker worker(ShardWorker::Options{}, pair.b.get());
        served_clean = worker.Serve();
    });

    std::string line;
    ASSERT_EQ(pair.a->Receive(&line, -1), Transport::RecvStatus::kMessage);
    Message hello;
    std::string error;
    ASSERT_TRUE(DecodeMessage(line, &hello, &error)) << error;
    ASSERT_EQ(hello.type, MessageType::kHello);

    // A batch that would run ~forever if nobody cancelled it.
    RunRequest request;
    request.shard_id = 0;
    request.num_shards = 1;
    service::ExplorationService::Options service_options;
    service_options.seed = 2014;
    service_options.num_workers = 1;
    request.service = ServiceConfig::FromServiceOptions(service_options);
    WireJob job;
    job.job_index = 0;
    job.spec.workload = "py/argparse";
    job.spec.options.max_runs = 100000000;
    job.spec.options.max_seconds = 1e9;
    job.spec.options.collect_timeline = false;
    request.jobs.push_back(job);
    ASSERT_TRUE(pair.a->Send(EncodeRun(request)));

    // Let the batch actually start, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pair.a->Close();

    const auto t0 = std::chrono::steady_clock::now();
    worker_thread.join();
    const double unwound =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Serve() reports the dirty exit (a real worker process would exit
    // nonzero) and does so promptly — the stop source cancels between
    // runs, not after the hundred-million-run budget.
    EXPECT_FALSE(served_clean);
    EXPECT_LT(unwound, 30.0);
}

}  // namespace
}  // namespace chef::shard
