/// \file
/// Solver hot path: independence slicing + incremental SAT on deep-path
/// concolic workloads.
///
/// Replays the query sequence a concolic session produces while marching
/// down a deep path — for every depth k, the path prefix plus the negated
/// branch condition at k — under two workload shapes:
///
///   independent-bytes  one byte-equality per branch (string matching);
///                      every assertion touches its own variable, so
///                      slicing answers the prefix from per-slice cache
///                      entries and only solves the flipped branch.
///   chained-adds       an accumulator chain x[i+1] == x[i] + c[i] with a
///                      final comparison; every assertion shares variables
///                      with its neighbor, so slicing cannot split and the
///                      win comes from the incremental backend (the prefix
///                      is blasted and CNF-loaded once per session).
///
/// Each shape runs under the baseline pipeline (slicing and incremental
/// off — the PR 2 state) and the optimized one (both on), checking that
/// sat/unsat outcomes agree under *all four* option combinations, then
/// reports queries/s, SAT calls, and clauses loaded per query. A JSON
/// report (default BENCH_solver.json) captures the numbers for the CI
/// trajectory.
///
/// Usage: bench_solver_incremental [--smoke] [report.json]
///   --smoke   shallow paths for CI; skips the (noise-sensitive) 2x
///             wall-time check and enforces only outcome equivalence and
///             the deterministic clauses-loaded reduction.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "solver/solver.h"

namespace {

using chef::solver::Assignment;
using chef::solver::ExprRef;
using chef::solver::QueryResult;
using chef::solver::Solver;
using chef::solver::SolverStats;

using Query = std::vector<ExprRef>;

/// Queries for a depth-N path over independent byte equalities: query k
/// asserts bytes 0..k-1 match and flips branch k.
std::vector<Query>
IndependentBytesQueries(int depth)
{
    using namespace chef::solver;
    std::vector<ExprRef> eqs;
    for (int i = 0; i < depth; ++i) {
        const ExprRef byte = MakeVar(static_cast<uint32_t>(i + 1), 8);
        eqs.push_back(MakeEq(byte, MakeConst('a' + (i % 26), 8)));
    }
    std::vector<Query> queries;
    for (int k = 0; k < depth; ++k) {
        Query q(eqs.begin(), eqs.begin() + k);
        q.push_back(MakeBoolNot(eqs[k]));
        queries.push_back(std::move(q));
    }
    return queries;
}

/// Queries for a depth-N accumulator chain: x[i+1] == x[i] + (i % 7 + 1),
/// with query k asserting the prefix and flipping a bound on x[k]. The
/// chain connects every assertion, so this shape defeats slicing on
/// purpose.
std::vector<Query>
ChainedAddsQueries(int depth)
{
    using namespace chef::solver;
    std::vector<ExprRef> xs;
    for (int i = 0; i <= depth; ++i) {
        xs.push_back(MakeVar(static_cast<uint32_t>(i + 1), 16));
    }
    std::vector<ExprRef> links;
    for (int i = 0; i < depth; ++i) {
        links.push_back(MakeEq(
            xs[i + 1],
            MakeAdd(xs[i], MakeConst(static_cast<uint64_t>(i % 7 + 1),
                                     16))));
    }
    std::vector<Query> queries;
    for (int k = 0; k < depth; ++k) {
        Query q(links.begin(), links.begin() + k + 1);
        // Alternate sat/unsat flavors: an achievable bound on the chain
        // head vs. an impossible equality through the chain.
        if (k % 2 == 0) {
            q.push_back(MakeUlt(xs[0], MakeConst(100, 16)));
        } else {
            q.push_back(MakeEq(MakeSub(xs[k + 1], xs[k]),
                               MakeConst(9, 16)));  // Step is never 9.
        }
        queries.push_back(std::move(q));
    }
    return queries;
}

struct RunOutcome {
    std::vector<QueryResult> results;
    SolverStats stats;
    double seconds = 0.0;
};

RunOutcome
RunQueries(const std::vector<Query>& queries, bool slicing,
           bool incremental)
{
    Solver::Options options;
    options.enable_independence_slicing = slicing;
    options.enable_incremental_sat = incremental;
    Solver solver(options);
    RunOutcome outcome;
    outcome.results.reserve(queries.size());
    const auto start = std::chrono::steady_clock::now();
    for (const Query& query : queries) {
        Assignment model;
        outcome.results.push_back(solver.Solve(query, &model));
    }
    outcome.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    outcome.stats = solver.stats();
    return outcome;
}

void
WriteRunOutcome(chef::support::JsonWriter* json, const char* name,
                const RunOutcome& run)
{
    const double qps =
        run.seconds > 0.0
            ? static_cast<double>(run.results.size()) / run.seconds
            : 0.0;
    json->Key(name);
    json->BeginObject();
    json->Key("queries"), json->Value(run.results.size());
    json->Key("seconds"), json->Value(run.seconds);
    json->Key("queries_per_second"), json->Value(qps);
    json->Key("sat_calls"), json->Value(run.stats.sat_calls);
    json->Key("incremental_sat_calls"),
        json->Value(run.stats.incremental_sat_calls);
    json->Key("sliced_queries"), json->Value(run.stats.sliced_queries);
    json->Key("clauses_loaded"), json->Value(run.stats.clauses_loaded);
    json->Key("clauses_loaded_per_query"),
        json->Value(run.results.empty()
                        ? 0.0
                        : static_cast<double>(run.stats.clauses_loaded) /
                              static_cast<double>(run.results.size()));
    json->Key("cache_hits"), json->Value(run.stats.cache_hits);
    json->EndObject();
}

bool
OutcomesMatch(const RunOutcome& a, const RunOutcome& b)
{
    return a.results == b.results;
}

}  // namespace

int
main(int argc, char** argv)
{
    const chef::bench::BenchArgs args = chef::bench::ParseBenchArgs(
        argc, argv, chef::bench::BenchCli::kSmokeAndPath);
    const bool smoke = args.smoke;
    std::string report_path = args.report_path;
    chef::bench::BenchReport bench("solver", smoke);
    if (report_path.empty()) {
        report_path = bench.DefaultPath();
    }

    const int depth = smoke ? 24 : 96;
    struct Workload {
        const char* name;
        std::vector<Query> queries;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"independent-bytes",
                         IndependentBytesQueries(depth)});
    workloads.push_back({"chained-adds", ChainedAddsQueries(depth)});

    std::printf("solver incremental bench: depth %d%s\n\n", depth,
                smoke ? " [smoke]" : "");

    bool ok = true;
    bench.Config("depth", depth);
    chef::support::JsonWriter workloads_json;
    workloads_json.BeginArray();

    for (size_t w = 0; w < workloads.size(); ++w) {
        const Workload& workload = workloads[w];
        // All four combinations; outcomes must agree everywhere.
        const RunOutcome baseline =
            RunQueries(workload.queries, false, false);
        const RunOutcome slicing_only =
            RunQueries(workload.queries, true, false);
        const RunOutcome incremental_only =
            RunQueries(workload.queries, false, true);
        const RunOutcome optimized =
            RunQueries(workload.queries, true, true);

        const bool outcomes_match =
            OutcomesMatch(baseline, slicing_only) &&
            OutcomesMatch(baseline, incremental_only) &&
            OutcomesMatch(baseline, optimized);
        const double speedup = optimized.seconds > 0.0
                                   ? baseline.seconds / optimized.seconds
                                   : 0.0;
        const double clause_reduction =
            optimized.stats.clauses_loaded > 0
                ? static_cast<double>(baseline.stats.clauses_loaded) /
                      static_cast<double>(optimized.stats.clauses_loaded)
                : 0.0;

        std::printf("%s (%zu queries)\n", workload.name,
                    workload.queries.size());
        std::printf("  %22s %12s %12s\n", "", "baseline", "optimized");
        std::printf("  %22s %12.4f %12.4f\n", "seconds",
                    baseline.seconds, optimized.seconds);
        std::printf("  %22s %12llu %12llu\n", "sat_calls",
                    static_cast<unsigned long long>(
                        baseline.stats.sat_calls),
                    static_cast<unsigned long long>(
                        optimized.stats.sat_calls));
        std::printf("  %22s %12llu %12llu\n", "clauses_loaded",
                    static_cast<unsigned long long>(
                        baseline.stats.clauses_loaded),
                    static_cast<unsigned long long>(
                        optimized.stats.clauses_loaded));
        std::printf(
            "  speedup: %.2fx; clauses-loaded reduction: %.1fx; "
            "outcomes %s\n\n",
            speedup, clause_reduction,
            outcomes_match ? "match" : "DIFFER");

        if (!outcomes_match) {
            std::fprintf(stderr,
                         "FAIL: %s: outcomes differ between option "
                         "combinations\n",
                         workload.name);
            ok = false;
        }
        // Deterministic win: the optimized pipeline must load a fraction
        // of the baseline's clauses even in smoke mode.
        if (clause_reduction < 2.0) {
            std::fprintf(stderr,
                         "FAIL: %s: clauses-loaded reduction %.2fx < 2x\n",
                         workload.name, clause_reduction);
            ok = false;
        }
        // Timing win: enforced only in full mode (smoke runs are too
        // short for stable wall-clock ratios).
        if (!smoke && speedup < 2.0) {
            std::fprintf(stderr,
                         "FAIL: %s: solver wall-time speedup %.2fx < 2x\n",
                         workload.name, speedup);
            ok = false;
        }

        const std::string prefix = std::string(workload.name) + "_";
        bench.Metric((prefix + "speedup").c_str(), speedup);
        bench.Metric((prefix + "clause_reduction").c_str(),
                     clause_reduction);
        bench.Metric((prefix + "outcomes_match").c_str(), outcomes_match);
        workloads_json.BeginObject();
        workloads_json.Key("name"), workloads_json.Value(workload.name);
        workloads_json.Key("speedup"), workloads_json.Value(speedup);
        workloads_json.Key("clause_reduction"),
            workloads_json.Value(clause_reduction);
        workloads_json.Key("outcomes_match"),
            workloads_json.Value(outcomes_match);
        WriteRunOutcome(&workloads_json, "baseline", baseline);
        WriteRunOutcome(&workloads_json, "slicing_only", slicing_only);
        WriteRunOutcome(&workloads_json, "incremental_only",
                        incremental_only);
        WriteRunOutcome(&workloads_json, "optimized", optimized);
        workloads_json.EndObject();
    }
    workloads_json.EndArray();
    bench.Report("workloads", workloads_json.Take());
    if (!bench.Write(report_path)) {
        return 1;
    }
    return ok ? 0 : 1;
}
