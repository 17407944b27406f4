/// \file
/// Distributed sharding: 1 vs 2 vs 4 loopback shards on duplicate-skewed
/// batches.
///
/// Two phases:
///
/// 1. Coverage/scaling (plateau off, gossip on): the same batch —
///    duplicate-heavy head, diverse tail, every job distinctly seeded —
///    runs on 1, 2, and 4 single-threaded loopback shards. Seeds derive
///    from *global* indices, so every partition runs bit-identical
///    sessions: the merged corpus fingerprint set must equal the
///    1-shard set exactly, while the per-shard wall time (the batch's
///    critical path) drops with the shard count.
///
/// 2. Cross-shard dedup (plateau on): the duplicate head is now N
///    copies of the *identical* job (same exact seed — the re-submitted
///    job case). The first completion saturates the workload, so every
///    other copy is pure duplicate work; local zero-yield streaks plus
///    gossiped yield snapshots must cancel >= 50% of the duplicate jobs
///    before dispatch, with and without a second chance from gossip
///    measured separately (gossip on vs off).
///
/// Emits one JSON document (default BENCH_sharding.json) embedding the
/// merged coordinator reports of every configuration.
///
/// Usage: bench_sharding [--smoke] [report.json]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "service/job.h"
#include "shard/coordinator.h"
#include "support/json.h"

namespace {

using chef::service::JobResult;
using chef::service::JobSpec;
using chef::service::JobStatus;
using chef::service::TestCorpus;
using chef::shard::RunLoopbackShards;
using chef::shard::ShardCoordinator;

JobSpec
MakeJob(const char* workload, int copy, uint64_t max_runs)
{
    JobSpec spec;
    spec.workload = workload;
    spec.label = std::string(workload) + "#" + std::to_string(copy);
    spec.seed = static_cast<uint64_t>(copy) + 1;
    spec.options.max_runs = max_runs;
    spec.options.max_seconds = 1e9;
    return spec;
}

/// Duplicate-heavy head (distinct seeds), diverse tail.
std::vector<JobSpec>
CoverageBatch(bool smoke)
{
    const int dups = smoke ? 4 : 8;
    const uint64_t dup_runs = smoke ? 60 : 400;
    const uint64_t tail_runs = smoke ? 20 : 120;
    std::vector<JobSpec> jobs;
    for (int i = 0; i < dups; ++i) {
        jobs.push_back(MakeJob("py/argparse", i, dup_runs));
    }
    int copy = 0;
    for (const char* id : {"py/simplejson", "lua/cliargs", "lua/haml"}) {
        jobs.push_back(MakeJob(id, copy++, tail_runs));
    }
    return jobs;
}

/// Duplicate head where every copy is the *same* session (identical
/// exact seed): re-submitted work, the pure cross-shard dedup target.
std::vector<JobSpec>
DedupBatch(bool smoke, size_t* duplicate_jobs)
{
    // 6 identical copies per shard: enough that the local plateau floor
    // (first copy yields, two zero-yield copies reach the cancel threshold)
    // alone suppresses >= 50% of the duplicates; gossiped streaks and
    // fingerprints only raise the count.
    const int dups = 12;
    const uint64_t dup_runs = smoke ? 60 : 300;
    std::vector<JobSpec> jobs;
    for (int i = 0; i < dups; ++i) {
        JobSpec spec = MakeJob("py/argparse", i, dup_runs);
        spec.seed = 42;
        spec.exact_seed = true;  // Identical session, every copy.
        jobs.push_back(std::move(spec));
    }
    *duplicate_jobs = static_cast<size_t>(dups) - 1;
    jobs.push_back(MakeJob("lua/cliargs", 0, smoke ? 20 : 120));
    jobs.push_back(MakeJob("py/simplejson", 0, smoke ? 20 : 120));
    return jobs;
}

ShardCoordinator::Options
BaseOptions()
{
    ShardCoordinator::Options options;
    options.service.seed = 2014;
    options.service.num_workers = 1;  // One core per "machine".
    return options;
}

struct Outcome {
    bool ok = false;
    size_t corpus_size = 0;
    std::vector<TestCorpus::Key> corpus_keys;
    double shard_wall = 0.0;  // Max across shards: the critical path.
    size_t suppressed = 0;
    uint64_t remote_duplicate_hits = 0;
    uint64_t merge_duplicates = 0;
    uint64_t fingerprints_gossiped = 0;
    std::string report;
};

Outcome
RunShards(const std::vector<JobSpec>& jobs, size_t num_shards,
          bool plateau, bool gossip)
{
    ShardCoordinator::Options options = BaseOptions();
    options.gossip = gossip;
    options.service.plateau = plateau;
    ShardCoordinator coordinator(options);
    std::string error;
    Outcome outcome;
    if (!RunLoopbackShards(&coordinator, jobs, num_shards, &error)) {
        std::fprintf(stderr, "FAIL: %zu shards: %s\n", num_shards,
                     error.c_str());
        return outcome;
    }
    outcome.ok = true;
    outcome.corpus_size = coordinator.corpus().size();
    outcome.corpus_keys = coordinator.corpus().Keys();
    outcome.shard_wall = coordinator.merged_stats().wall_seconds;
    for (const JobResult& result : coordinator.results()) {
        if (result.stop_source == "plateau") {
            ++outcome.suppressed;
        }
    }
    outcome.remote_duplicate_hits =
        coordinator.cross_shard().remote_duplicate_hits;
    outcome.merge_duplicates = coordinator.cross_shard().merge_duplicates;
    outcome.fingerprints_gossiped =
        coordinator.cross_shard().fingerprints_gossiped;
    outcome.report = coordinator.RenderMergedReport();
    return outcome;
}

}  // namespace

int
main(int argc, char** argv)
{
    const chef::bench::BenchArgs args = chef::bench::ParseBenchArgs(
        argc, argv, chef::bench::BenchCli::kSmokeAndPath);
    const bool smoke = args.smoke;
    std::string report_path = args.report_path;
    bool ok = true;
    chef::bench::BenchReport bench("sharding", smoke);
    if (report_path.empty()) {
        report_path = bench.DefaultPath();
    }

    // --- Phase 1: coverage parity and per-shard wall scaling. ----------
    const std::vector<JobSpec> coverage_jobs = CoverageBatch(smoke);
    std::printf("coverage batch: %zu jobs%s\n", coverage_jobs.size(),
                smoke ? " [smoke]" : "");
    const Outcome one = RunShards(coverage_jobs, 1, false, true);
    const Outcome two = RunShards(coverage_jobs, 2, false, true);
    const Outcome four = RunShards(coverage_jobs, 4, false, true);
    if (!one.ok || !two.ok || !four.ok) {
        return 1;
    }
    std::printf("%22s %10s %10s %10s\n", "", "1 shard", "2 shards",
                "4 shards");
    std::printf("%22s %10zu %10zu %10zu\n", "corpus_size",
                one.corpus_size, two.corpus_size, four.corpus_size);
    std::printf("%22s %10.3f %10.3f %10.3f\n", "shard_wall_seconds",
                one.shard_wall, two.shard_wall, four.shard_wall);
    std::printf("%22s %10s %10llu %10llu\n", "merge_duplicates", "-",
                static_cast<unsigned long long>(two.merge_duplicates),
                static_cast<unsigned long long>(four.merge_duplicates));

    const bool coverage_2_ok = two.corpus_keys == one.corpus_keys;
    const bool coverage_4_ok = four.corpus_keys == one.corpus_keys;
    if (!coverage_2_ok || !coverage_4_ok) {
        std::fprintf(stderr,
                     "FAIL: sharded corpus differs from the 1-shard "
                     "fingerprint set (2: %s, 4: %s)\n",
                     coverage_2_ok ? "ok" : "DIFFERS",
                     coverage_4_ok ? "ok" : "DIFFERS");
        ok = false;
    }
    // Wall-per-shard must drop when the batch spreads over more
    // machines. Loopback shards are threads, so the win only exists
    // when the hardware can actually run them concurrently; smoke
    // batches are too short to assert timing on either way.
    const unsigned cores = std::thread::hardware_concurrency();
    if (!smoke && cores >= 4 && two.shard_wall >= one.shard_wall) {
        std::fprintf(stderr,
                     "FAIL: 2-shard critical path (%.3fs) not below the "
                     "1-shard wall (%.3fs) on %u cores\n",
                     two.shard_wall, one.shard_wall, cores);
        ok = false;
    } else if (!smoke && cores < 4) {
        std::printf("note: %u core(s) — loopback shards timeshare, "
                    "skipping the wall-scaling assertion\n",
                    cores);
    }

    // --- Phase 2: duplicate-job suppression. ---------------------------
    size_t duplicate_jobs = 0;
    const std::vector<JobSpec> dedup_jobs = DedupBatch(smoke, &duplicate_jobs);
    std::printf("\ndedup batch: %zu jobs (%zu duplicates), 2 shards\n",
                dedup_jobs.size(), duplicate_jobs);
    const Outcome gossip_on = RunShards(dedup_jobs, 2, true, true);
    const Outcome gossip_off = RunShards(dedup_jobs, 2, true, false);
    if (!gossip_on.ok || !gossip_off.ok) {
        return 1;
    }
    std::printf("%26s %10s %10s\n", "", "gossip", "no gossip");
    std::printf("%26s %10zu %10zu\n", "jobs_suppressed",
                gossip_on.suppressed, gossip_off.suppressed);
    std::printf("%26s %10llu %10llu\n", "remote_duplicate_hits",
                static_cast<unsigned long long>(
                    gossip_on.remote_duplicate_hits),
                static_cast<unsigned long long>(
                    gossip_off.remote_duplicate_hits));
    std::printf("%26s %10llu %10llu\n", "merge_duplicates",
                static_cast<unsigned long long>(gossip_on.merge_duplicates),
                static_cast<unsigned long long>(
                    gossip_off.merge_duplicates));
    std::printf("%26s %10zu %10zu\n", "corpus_size",
                gossip_on.corpus_size, gossip_off.corpus_size);

    // The acceptance target: cross-shard dedup suppresses >= 50% of the
    // duplicate jobs. The local plateau floor alone guarantees it for
    // this batch shape; gossip propagates the zero-yield streak between
    // shards and can only raise it.
    const bool target_met = gossip_on.suppressed * 2 >= duplicate_jobs;
    if (!target_met) {
        std::fprintf(stderr,
                     "FAIL: suppressed %zu of %zu duplicate jobs "
                     "(< 50%%)\n",
                     gossip_on.suppressed, duplicate_jobs);
        ok = false;
    }
    // Every fingerprint of the identical duplicated session must still
    // be present despite the cancellations.
    if (gossip_on.corpus_size == 0 ||
        gossip_on.corpus_size < gossip_off.corpus_size) {
        std::fprintf(stderr,
                     "FAIL: gossip run lost corpus entries (%zu vs %zu "
                     "without gossip)\n",
                     gossip_on.corpus_size, gossip_off.corpus_size);
        ok = false;
    }

    // --- Report. -------------------------------------------------------
    bench.Config("coverage_jobs", coverage_jobs.size());
    bench.Config("dedup_jobs", dedup_jobs.size());
    bench.Config("duplicate_jobs", duplicate_jobs);
    bench.Metric("corpus_1", one.corpus_size);
    bench.Metric("corpus_2", two.corpus_size);
    bench.Metric("corpus_4", four.corpus_size);
    bench.Metric("coverage_2_ok", coverage_2_ok);
    bench.Metric("coverage_4_ok", coverage_4_ok);
    bench.Metric("shard_wall_1", one.shard_wall);
    bench.Metric("shard_wall_2", two.shard_wall);
    bench.Metric("shard_wall_4", four.shard_wall);
    bench.Metric("suppressed_gossip", gossip_on.suppressed);
    bench.Metric("suppressed_no_gossip", gossip_off.suppressed);
    bench.Metric("remote_duplicate_hits",
                 gossip_on.remote_duplicate_hits);
    bench.Metric("fingerprints_gossiped",
                 gossip_on.fingerprints_gossiped);
    bench.Metric("merge_duplicates_gossip", gossip_on.merge_duplicates);
    bench.Metric("merge_duplicates_no_gossip",
                 gossip_off.merge_duplicates);
    bench.Metric("target_met", target_met);
    bench.Report("shards_1", one.report);
    bench.Report("shards_2", two.report);
    bench.Report("shards_4", four.report);
    bench.Report("dedup_gossip", gossip_on.report);
    bench.Report("dedup_no_gossip", gossip_off.report);
    std::printf("\n");
    if (!bench.Write(report_path)) {
        return 1;
    }
    return ok ? 0 : 1;
}
