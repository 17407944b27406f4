/// \file
/// Tests for the distributed shard layer: corpus delta snapshots and
/// order-independent merging, remote-yield ingestion into the batch
/// scheduler (plateau from gossip), loopback and pipe transports, and
/// the coordinator end-to-end — partition determinism against a single
/// shard, every result and corpus entry crossing upstream once,
/// merged-report validity, and non-serializable-spec rejection.

#include "shard/coordinator.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"
#include "service/scheduler.h"
#include "service/service.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "support/json.h"
#include "workloads/registry.h"
#include "stats_checks.h"

namespace chef::shard {
namespace {

using service::BatchScheduler;
using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::TestCorpus;
using support::JsonValid;
using support::JsonValue;

// ---------------------------------------------------------------------------
// Corpus deltas and order-independent merge.
// ---------------------------------------------------------------------------

TestCorpus::Entry
MakeEntry(const std::string& workload, uint64_t fingerprint)
{
    TestCorpus::Entry entry;
    entry.workload = workload;
    entry.fingerprint = fingerprint;
    entry.outcome_kind = "ok";
    return entry;
}

TEST(CorpusDelta, SnapshotCutsOnSequenceAndSkipsRemoteEntries)
{
    TestCorpus corpus;
    obs::MetricsRegistry metrics;
    corpus.CountInto(&metrics);
    ASSERT_TRUE(corpus.Insert(MakeEntry("a", 1)));
    ASSERT_TRUE(corpus.Insert(MakeEntry("a", 2)));
    const TestCorpus::Delta first = corpus.Snapshot("me", 0);
    EXPECT_EQ(first.entries.size(), 2u);
    EXPECT_EQ(first.source, "me");

    // Nothing new since the watermark.
    EXPECT_TRUE(corpus.Snapshot("me", first.sequence).entries.empty());

    // A remote merge must not re-export through the next snapshot (no
    // gossip echo), but a fresh local insert must.
    TestCorpus::Delta remote;
    remote.source = "other";
    remote.entries.push_back(MakeEntry("b", 77));
    const TestCorpus::MergeStats merge = corpus.MergeFrom(remote);
    EXPECT_EQ(merge.inserted, 1u);
    EXPECT_EQ(merge.duplicates, 0u);
    ASSERT_TRUE(corpus.Insert(MakeEntry("a", 3)));
    const TestCorpus::Delta second = corpus.Snapshot("me", first.sequence);
    ASSERT_EQ(second.entries.size(), 1u);
    EXPECT_EQ(second.entries[0].fingerprint, 3u);
    EXPECT_EQ(metrics.Snapshot().CounterValue("corpus.remote_entries"), 1u);
}

TEST(CorpusDelta, MergeReportsDedupAndMergedYields)
{
    TestCorpus corpus;
    obs::MetricsRegistry metrics;
    corpus.CountInto(&metrics);
    ASSERT_TRUE(corpus.Insert(MakeEntry("a", 1)));
    corpus.RecordJobYield("a", 4, 2);

    TestCorpus::Delta delta;
    delta.source = "shard1";
    delta.entries.push_back(MakeEntry("a", 1));  // Duplicate.
    delta.entries.push_back(MakeEntry("a", 9));  // New.
    delta.yields["a"].jobs_recorded = 1;
    delta.yields["a"].offered_total = 3;
    delta.yields["a"].accepted_total = 0;
    delta.yields["a"].decayed_yield = 0.0;
    delta.yields["a"].consecutive_zero_yield = 3;

    const TestCorpus::MergeStats merge = corpus.MergeFrom(delta);
    EXPECT_EQ(merge.inserted, 1u);
    EXPECT_EQ(merge.duplicates, 1u);
    const TestCorpus::WorkloadYield merged = merge.merged_yields.at("a");
    EXPECT_EQ(merged.jobs_recorded, 2u);
    EXPECT_EQ(merged.offered_total, 7u);
    EXPECT_EQ(merged.accepted_total, 2u);
    // Jobs-weighted mean of (2.0 over 1 job, 0.0 over 1 job).
    EXPECT_DOUBLE_EQ(merged.decayed_yield, 1.0);
    // Max across sources: remote plateau evidence counts here.
    EXPECT_EQ(merged.consecutive_zero_yield, 3u);
    // YieldFor serves the same merged view.
    EXPECT_EQ(corpus.YieldFor("a").consecutive_zero_yield, 3u);
    // The local-only view is unchanged (what this corpus would gossip).
    EXPECT_EQ(corpus.LocalYields().at("a").consecutive_zero_yield, 0u);

    // A local rediscovery of a remote-seeded key counts as cross-shard
    // dedup.
    const auto remote_duplicate_hits = [&metrics] {
        return metrics.Snapshot().CounterValue(
            "corpus.remote_duplicate_hits");
    };
    EXPECT_FALSE(corpus.Insert(MakeEntry("a", 9)));
    EXPECT_EQ(remote_duplicate_hits(), 1u);
    // ... but rediscovering one's own entry does not.
    EXPECT_FALSE(corpus.Insert(MakeEntry("a", 1)));
    EXPECT_EQ(remote_duplicate_hits(), 1u);
}

TEST(CorpusDelta, MergeIsOrderIndependent)
{
    // Regression contract for gossip: merging shard A's delta then shard
    // B's must produce the same corpus and merged yield state as B then
    // A, including when the deltas overlap each other and local state.
    TestCorpus::Delta a;
    a.source = "shardA";
    a.entries.push_back(MakeEntry("w", 1));
    a.entries.push_back(MakeEntry("w", 2));
    a.entries.push_back(MakeEntry("v", 5));
    a.yields["w"] = {3, 10, 4, 2.0, 0};
    a.yields["v"] = {1, 2, 0, 0.0, 1};

    TestCorpus::Delta b;
    b.source = "shardB";
    b.entries.push_back(MakeEntry("w", 2));  // Overlaps A.
    b.entries.push_back(MakeEntry("w", 3));
    b.yields["w"] = {1, 5, 0, 0.0, 4};

    const auto build = [&](bool a_first) {
        auto corpus = std::make_unique<TestCorpus>();
        EXPECT_TRUE(corpus->Insert(MakeEntry("w", 2))) << "seed insert";
        corpus->RecordJobYield("w", 6, 6);
        if (a_first) {
            corpus->MergeFrom(a), corpus->MergeFrom(b);
        } else {
            corpus->MergeFrom(b), corpus->MergeFrom(a);
        }
        return corpus;
    };
    const std::unique_ptr<TestCorpus> ab = build(true);
    const std::unique_ptr<TestCorpus> ba = build(false);

    EXPECT_EQ(ab->Keys(), ba->Keys());
    EXPECT_EQ(ab->size(), 4u);  // {w:1, w:2, w:3, v:5}.
    for (const char* workload : {"w", "v"}) {
        const TestCorpus::WorkloadYield ya = ab->YieldFor(workload);
        const TestCorpus::WorkloadYield yb = ba->YieldFor(workload);
        EXPECT_EQ(ya.jobs_recorded, yb.jobs_recorded) << workload;
        EXPECT_EQ(ya.offered_total, yb.offered_total) << workload;
        EXPECT_EQ(ya.accepted_total, yb.accepted_total) << workload;
        EXPECT_DOUBLE_EQ(ya.decayed_yield, yb.decayed_yield) << workload;
        EXPECT_EQ(ya.consecutive_zero_yield, yb.consecutive_zero_yield)
            << workload;
    }
    // Re-merging the same delta is idempotent (cumulative snapshots
    // replace, never accumulate).
    const TestCorpus::WorkloadYield before = ab->YieldFor("w");
    ab->MergeFrom(a);
    const TestCorpus::WorkloadYield after = ab->YieldFor("w");
    EXPECT_EQ(before.jobs_recorded, after.jobs_recorded);
    EXPECT_DOUBLE_EQ(before.decayed_yield, after.decayed_yield);
}

// ---------------------------------------------------------------------------
// Remote yield -> scheduler (the PR 4 follow-on).
// ---------------------------------------------------------------------------

TEST(RemoteYield, GossipTripsPlateauWithoutLocalCompletions)
{
    TestCorpus corpus;
    BatchScheduler::Options options;
    options.plateau = true;
    BatchScheduler scheduler({"dup", "dup", "fresh"}, &corpus, options);

    // A sibling shard reports the workload flat (streak >= the cancel
    // threshold)
    // and its fingerprints already cover it.
    TestCorpus::Delta delta;
    delta.source = "shard1";
    delta.entries.push_back(MakeEntry("dup", 11));
    delta.yields["dup"] = {3, 9, 1, 0.0, 2};
    corpus.MergeFrom(delta);
    scheduler.NotifyYieldsChanged();

    // The fresh workload dispatches first (untried beats deprioritized),
    // and the duplicate jobs pop as plateau cancellations without this
    // shard ever burning a job on them.
    BatchScheduler::Dispatch dispatch;
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 2u);
    EXPECT_FALSE(dispatch.plateau_cancelled);
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 0u);
    EXPECT_TRUE(dispatch.plateau_cancelled);
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 1u);
    EXPECT_TRUE(dispatch.plateau_cancelled);
}

// ---------------------------------------------------------------------------
// Loopback transport.
// ---------------------------------------------------------------------------

TEST(Transport, LoopbackDeliversInOrderAndClosesSticky)
{
    LoopbackPair pair = CreateLoopbackPair();
    ASSERT_TRUE(pair.a->Send("one"));
    ASSERT_TRUE(pair.a->Send("two"));
    std::string message;
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "one");
    ASSERT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, "two");
    EXPECT_EQ(pair.b->Receive(&message, 5),
              Transport::RecvStatus::kTimeout);
    pair.a->Close();
    EXPECT_EQ(pair.b->Receive(&message, -1),
              Transport::RecvStatus::kClosed);
    EXPECT_FALSE(pair.b->Send("into the void"));
}

TEST(Transport, FdPollReadsAWholePendingFrame)
{
    // A frame many pipe reads long, already in the pipe: one
    // non-blocking probe returns it whole, so the coordinator's
    // multiplex sweep reads a large progress frame without an idle sleep
    // per chunk.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::unique_ptr<Transport> reader =
        CreateFdTransport(fds[0], -1, /*owns_fds=*/true);
    std::unique_ptr<Transport> writer =
        CreateFdTransport(-1, fds[1], /*owns_fds=*/true);
    const std::string frame(40000, 'x');
    ASSERT_TRUE(writer->Send(frame));
    std::string message;
    ASSERT_EQ(reader->Receive(&message, 0),
              Transport::RecvStatus::kMessage);
    EXPECT_EQ(message, frame);
    EXPECT_EQ(reader->Receive(&message, 0),
              Transport::RecvStatus::kTimeout);
    writer->Close();
    EXPECT_EQ(reader->Receive(&message, -1),
              Transport::RecvStatus::kClosed);
}

// ---------------------------------------------------------------------------
// Coordinator end-to-end over loopback shards.
// ---------------------------------------------------------------------------

std::vector<JobSpec>
MixedBatch(uint64_t max_runs)
{
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const char* id :
         {"py/argparse", "py/simplejson", "lua/cliargs", "lua/haml",
          "py/argparse", "lua/cliargs"}) {
        JobSpec spec;
        spec.workload = id;
        spec.label = std::string(id) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = max_runs;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

ShardCoordinator::Options
CoordinatorOptions()
{
    ShardCoordinator::Options options;
    options.service.seed = 2014;
    options.service.num_workers = 1;
    return options;
}

TEST(Coordinator, PartitioningDoesNotChangePerJobResults)
{
    const std::vector<JobSpec> jobs = MixedBatch(8);

    ShardCoordinator single(CoordinatorOptions());
    std::string error;
    ASSERT_TRUE(RunLoopbackShards(&single, jobs, 1, &error)) << error;

    ShardCoordinator sharded(CoordinatorOptions());
    ASSERT_TRUE(RunLoopbackShards(&sharded, jobs, 2, &error)) << error;

    ASSERT_EQ(single.results().size(), jobs.size());
    ASSERT_EQ(sharded.results().size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& a = single.results()[i];
        const JobResult& b = sharded.results()[i];
        SCOPED_TRACE(jobs[i].label);
        EXPECT_EQ(a.status, JobStatus::kCompleted);
        EXPECT_EQ(b.status, JobStatus::kCompleted);
        EXPECT_EQ(a.workload, b.workload);
        // Seeds derive from the *global* index on both sides, so the
        // sessions are bit-identical regardless of the partition.
        EXPECT_EQ(a.seed_used, b.seed_used);
        EXPECT_EQ(a.num_test_cases, b.num_test_cases);
        EXPECT_EQ(a.num_relevant_test_cases, b.num_relevant_test_cases);
        EXPECT_EQ(a.engine_stats.ll_paths, b.engine_stats.ll_paths);
        EXPECT_EQ(a.engine_stats.hl_paths, b.engine_stats.hl_paths);
    }
    // Same sessions -> same union corpus, however it was sharded.
    EXPECT_EQ(single.corpus().Keys(), sharded.corpus().Keys());
    EXPECT_GT(single.corpus().size(), 0u);

    // Stats merged across shards account for every job, and every stats
    // view is the snapshot it was read from.
    EXPECT_EQ(sharded.merged_stats().jobs_submitted, jobs.size());
    EXPECT_EQ(sharded.merged_stats().jobs_completed, jobs.size());
    EXPECT_EQ(sharded.merged_stats().corpus_size,
              sharded.corpus().size());
    for (const ShardCoordinator::ShardOutcome& shard : sharded.shards()) {
        EXPECT_EQ(shard.stats.jobs_submitted, jobs.size() / 2);
    }
    checks::ExpectCoordinatorViewsAgree(sharded);
    checks::ExpectCoordinatorViewsAgree(single);
}

TEST(Coordinator, MergedReportIsStrictJsonWithCrossShardStats)
{
    const std::vector<JobSpec> jobs = MixedBatch(6);
    ShardCoordinator coordinator(CoordinatorOptions());
    std::string error;
    ASSERT_TRUE(RunLoopbackShards(&coordinator, jobs, 2, &error)) << error;

    const std::string report = coordinator.RenderMergedReport();
    ASSERT_TRUE(JsonValid(report)) << report;

    JsonValue parsed;
    ASSERT_TRUE(support::ParseJson(report, &parsed, &error)) << error;
    std::string kind;
    ASSERT_TRUE(parsed.GetString("report", &kind));
    EXPECT_EQ(kind, "chef-shard-coordinator");
    uint64_t num_shards = 0;
    ASSERT_TRUE(parsed.GetUint64("num_shards", &num_shards));
    EXPECT_EQ(num_shards, 2u);

    const JsonValue* cross = parsed.Find("cross_shard");
    ASSERT_NE(cross, nullptr);
    for (const char* key :
         {"gossip_messages", "fingerprints_gossiped",
          "remote_duplicate_hits", "jobs_suppressed",
          "merge_duplicates"}) {
        uint64_t value = 0;
        EXPECT_TRUE(cross->GetUint64(key, &value)) << key;
    }

    const JsonValue* shards = parsed.Find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->items.size(), 2u);
    for (const JsonValue& shard : shards->items) {
        uint64_t assigned = 0;
        EXPECT_TRUE(shard.GetUint64("jobs_assigned", &assigned));
        EXPECT_EQ(assigned, 3u);
        EXPECT_NE(shard.Find("stats"), nullptr);
    }

    // The merged section is a full single-service-schema report.
    const JsonValue* merged = parsed.Find("merged");
    ASSERT_NE(merged, nullptr);
    std::string merged_kind;
    ASSERT_TRUE(merged->GetString("report", &merged_kind));
    EXPECT_EQ(merged_kind, "chef-exploration-service");
    const JsonValue* merged_jobs = merged->Find("jobs");
    ASSERT_NE(merged_jobs, nullptr);
    EXPECT_EQ(merged_jobs->items.size(), jobs.size());
}

/// Coordinator-side endpoint that decodes every frame a worker sends
/// and tallies what crossed upstream. Used only from the Run thread.
class TallyingTransport : public Transport
{
  public:
    struct Tally {
        /// Progress frames that listed each global job index.
        std::map<size_t, int> job_frames;
        /// Times each (source, workload, fingerprint) crossed.
        std::map<std::tuple<std::string, std::string, uint64_t>, int>
            entry_crossings;
        size_t progress_frames = 0;
        size_t result_frames = 0;
        /// Result frames with a "results" or "corpus" member.
        size_t result_frames_with_data = 0;
        size_t undecodable = 0;
    };

    TallyingTransport(Transport* inner, Tally* tally)
        : inner_(inner), tally_(tally)
    {
    }

    bool Send(const std::string& message) override
    {
        return inner_->Send(message);
    }

    RecvStatus Receive(std::string* message, int timeout_ms) override
    {
        const RecvStatus status = inner_->Receive(message, timeout_ms);
        if (status != RecvStatus::kMessage) {
            return status;
        }
        Message decoded;
        std::string error;
        if (!DecodeMessage(*message, &decoded, &error)) {
            ++tally_->undecodable;
        } else if (decoded.type == MessageType::kProgress) {
            ++tally_->progress_frames;
            for (const JobResult& result : decoded.progress.results) {
                ++tally_->job_frames[result.job_index];
            }
            for (const TestCorpus::Entry& entry :
                 decoded.progress.corpus.entries) {
                ++tally_->entry_crossings[{decoded.progress.corpus.source,
                                           entry.workload,
                                           entry.fingerprint}];
            }
        } else if (decoded.type == MessageType::kResult) {
            ++tally_->result_frames;
            JsonValue root;
            if (support::ParseJson(*message, &root) &&
                (root.Find("results") != nullptr ||
                 root.Find("corpus") != nullptr)) {
                ++tally_->result_frames_with_data;
            }
        }
        return status;
    }

    void Close() override { inner_->Close(); }

  private:
    Transport* inner_;
    Tally* tally_;
};

TEST(Coordinator, EveryResultAndEntryCrossesUpstreamOnce)
{
    const std::vector<JobSpec> jobs = MixedBatch(10);
    const size_t kShards = 2;
    std::vector<LoopbackPair> pairs;
    std::vector<std::unique_ptr<TallyingTransport>> sides;
    std::vector<Transport*> transports;
    TallyingTransport::Tally tally;
    for (size_t shard = 0; shard < kShards; ++shard) {
        pairs.push_back(CreateLoopbackPair());
        sides.push_back(
            std::make_unique<TallyingTransport>(pairs.back().a.get(), &tally));
        transports.push_back(sides.back().get());
    }
    std::vector<std::thread> workers;
    for (LoopbackPair& pair : pairs) {
        Transport* endpoint = pair.b.get();
        workers.emplace_back([endpoint] {
            ShardWorker worker(ShardWorker::Options{}, endpoint);
            worker.Serve();
        });
    }
    ShardCoordinator coordinator(CoordinatorOptions());
    std::string error;
    const bool ok = coordinator.Run(jobs, transports, &error);
    for (LoopbackPair& pair : pairs) {
        pair.a->Close();
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    ASSERT_TRUE(ok) << error;

    EXPECT_EQ(tally.undecodable, 0u);
    EXPECT_GT(tally.progress_frames, 0u);
    ASSERT_EQ(tally.job_frames.size(), jobs.size());
    for (const auto& [index, frames] : tally.job_frames) {
        EXPECT_EQ(frames, 1) << "job " << index;
    }
    // Each local-origin entry crosses once; together they are the
    // merged corpus.
    std::set<TestCorpus::Key> keys;
    for (const auto& [crossing, times] : tally.entry_crossings) {
        EXPECT_EQ(times, 1) << std::get<0>(crossing) << " "
                            << std::get<1>(crossing) << " "
                            << std::get<2>(crossing);
        keys.insert({std::get<1>(crossing), std::get<2>(crossing)});
    }
    const std::vector<TestCorpus::Key> merged = coordinator.corpus().Keys();
    EXPECT_EQ(std::vector<TestCorpus::Key>(keys.begin(), keys.end()),
              merged);
    EXPECT_EQ(tally.result_frames, kShards);
    EXPECT_EQ(tally.result_frames_with_data, 0u);
    for (const JobResult& result : coordinator.results()) {
        EXPECT_EQ(result.status, JobStatus::kCompleted);
    }
}

// ---------------------------------------------------------------------------
// Cross-shard dedup on a duplicate-skewed batch.
// ---------------------------------------------------------------------------

enum Opcode : uint32_t { kOpStmt = 1, kOpCmp = 2 };

/// Two high-level paths total (as in scheduler_test): the first job on
/// any shard discovers both; every later job yields zero.
Engine::GuestOutcome
TwoPathGuest(lowlevel::LowLevelRuntime& rt)
{
    lowlevel::SymValue byte = rt.MakeSymbolicValue("b0", 8, 1);
    rt.LogPc(1, kOpCmp);
    if (rt.Branch(SvEq(byte, lowlevel::SymValue(0, 8)), CHEF_LLPC)) {
        rt.LogPc(2, kOpStmt);
    } else {
        rt.LogPc(3, kOpStmt);
    }
    return {"ok", ""};
}

void
EnsureTwoPathWorkload()
{
    static const bool registered = [] {
        workloads::WorkloadInfo info;
        info.id = "test/shard-two-path";
        info.language = "custom";
        info.description = "exactly two high-level paths";
        info.make_run = [](const interp::InterpBuildOptions&) {
            return Engine::RunFn(TwoPathGuest);
        };
        return workloads::RegisterWorkload(std::move(info));
    }();
    ASSERT_TRUE(registered);
}

TEST(Coordinator, PlateauPlusGossipSuppressesDuplicateJobs)
{
    EnsureTwoPathWorkload();

    // 12 duplicate jobs of a two-path workload over 2 shards: each
    // shard's first job saturates the workload, so nearly everything
    // else is duplicate work the plateau (fed by local *and* gossiped
    // zero-yield streaks) should cancel before dispatch.
    std::vector<JobSpec> jobs;
    for (int i = 0; i < 12; ++i) {
        JobSpec spec;
        spec.workload = "test/shard-two-path";
        spec.label = "dup#" + std::to_string(i);
        spec.options.max_runs = 8;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }

    ShardCoordinator::Options options = CoordinatorOptions();
    options.service.plateau = true;
    ShardCoordinator coordinator(options);
    std::string error;
    ASSERT_TRUE(RunLoopbackShards(&coordinator, jobs, 2, &error)) << error;

    // Both paths are in the merged corpus, every job is accounted for,
    // and at least the local plateau floor of duplicate jobs was
    // suppressed (3 per shard with 6 jobs and a cancel threshold of 2; gossip
    // can only raise this by propagating the streak earlier).
    EXPECT_EQ(coordinator.corpus().size(), 2u);
    size_t completed = 0;
    size_t suppressed = 0;
    for (const JobResult& result : coordinator.results()) {
        if (result.status == JobStatus::kCompleted) {
            ++completed;
        } else {
            EXPECT_EQ(result.stop_source, "plateau");
            ++suppressed;
        }
    }
    EXPECT_EQ(completed + suppressed, jobs.size());
    EXPECT_GE(suppressed, 6u);
    EXPECT_EQ(coordinator.cross_shard().jobs_suppressed, suppressed);
    // The duplicate-job suppression target: >= 50% of the 11 duplicate
    // jobs (everything beyond the first).
    EXPECT_GE(suppressed * 2, (jobs.size() - 1));
}

}  // namespace
}  // namespace chef::shard
