/// \file
/// Figure 9: line coverage achieved by each configuration using
/// coverage-optimized CUPA (§3.4). Coverage is measured by replaying each
/// relevant test case on the vanilla interpreter build, exactly like the
/// paper replays on the host Python/Lua. Set CHEF_FIG9_ABLATE_P=1 to
/// sweep the fork-weight decay p (paper fixes p = 0.75).
///
/// The per-package progress curves (new high-level paths vs runs and vs
/// wall time, the temporal axis of the paper's figure) go through the
/// obs time-series machinery rather than ad-hoc collection: each
/// aggregate-config run's engine timeline becomes a series of samples
/// in a ClusterSeries keyed by package (its thinning bounds memory on
/// long runs), and the standard
/// coverage_curves CSV (obs::RenderCoverageCurvesCsv — the same
/// artifact `chef_shard --curves-out` writes) lands next to the bench
/// output as coverage_curves_fig9.csv. In that CSV "jobs_finished"
/// carries completed engine runs (one run = one low-level path).

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "obs/timeseries.h"

namespace chef::bench {
namespace {

/// Replays one run's engine timeline into the cluster series under
/// counter names the coverage-curves renderer knows.
void
CollectCurve(obs::ClusterSeries* curves, const std::string& workload,
             const RunOutcome& outcome)
{
    std::vector<obs::SeriesSample> series;
    series.reserve(outcome.timeline.size());
    for (const EngineStats::Sample& sample : outcome.timeline) {
        obs::SeriesSample point;
        point.index = series.size() + 1;
        point.t_seconds = series.empty()
                              ? sample.t
                              : std::max(sample.t, series.back().t_seconds);
        point.metrics.counters = {
            {obs::kFingerprintsNewCounter, sample.hl_paths},
            {std::string(obs::kFingerprintsNewCounter) + "." + workload,
             sample.hl_paths},
            {obs::kJobsFinishedCounter, sample.ll_paths},
            {std::string(obs::kJobsFinishedCounter) + "." + workload,
             sample.ll_paths},
        };
        series.push_back(std::move(point));
    }
    curves->Update(workload, series);
}

template <typename Package, typename Runner>
void
RunSuite(const char* language, const std::vector<Package>& packages,
         Runner&& runner, obs::ClusterSeries* curves)
{
    const Budget budget = DefaultBudget();
    std::printf("\n-- Figure 9 (%s): line coverage [%%] --\n", language);
    std::printf("%-14s %10s %10s %10s %10s\n", "package", "cupa+opt",
                "opt-only", "cupa-only", "baseline");
    for (const Package& package : packages) {
        std::printf("%-14s", package.name.c_str());
        for (const EvalConfig& config : EvalConfigs()) {
            std::vector<double> coverages;
            for (int rep = 0; rep < budget.reps; ++rep) {
                const RunOutcome outcome = runner(
                    package,
                    StrategyFor(config, /*coverage_optimized=*/true),
                    BuildFor(config), budget,
                    static_cast<uint64_t>(rep + 1));
                coverages.push_back(outcome.coverage_fraction * 100.0);
                // Curves track the paper's aggregate configuration;
                // one rep per package keeps the CSV deterministic.
                if (std::string(config.name) == "cupa+opt" && rep == 0) {
                    CollectCurve(curves,
                                 std::string(language == std::string("Python")
                                                 ? "py/"
                                                 : "lua/") +
                                     package.name,
                                 outcome);
                }
            }
            std::printf(" %9.1f%%", Mean(coverages));
        }
        std::printf("\n");
    }
}

void
AblateForkWeightDecay()
{
    // Ablation called out in DESIGN.md: vary the §3.4 decay p on one
    // coverage-sensitive package.
    const Budget budget = DefaultBudget();
    const auto& package = workloads::PyPackageByName("simplejson");
    std::printf("\n-- ablation: fork-weight decay p (paper fixes 0.75), "
                "simplejson coverage --\n");
    for (double p : {0.25, 0.5, 0.75, 0.9, 1.0}) {
        std::vector<double> coverages;
        for (int rep = 0; rep < budget.reps; ++rep) {
            auto program =
                workloads::CompilePyOrDie(package.test.source);
            Engine::Options options;
            options.strategy = StrategyKind::kCupaCoverage;
            options.fork_weight_decay = p;
            options.seed = static_cast<uint64_t>(rep + 1);
            options.max_runs = budget.max_runs;
            options.max_seconds = budget.max_seconds;
            options.max_steps_per_run = budget.max_steps_per_run;
            Engine engine(options);
            const auto tests = engine.Explore(workloads::MakePyRunFn(
                program, package.test,
                interp::InterpBuildOptions::FullyOptimized()));
            std::set<int> covered;
            for (const TestCase& test : tests) {
                if (!test.new_hl_path || test.outcome_kind == "hang") {
                    continue;
                }
                const auto replay = workloads::ReplayPy(
                    program, package.test, test.inputs);
                covered.insert(replay.covered_lines.begin(),
                               replay.covered_lines.end());
            }
            coverages.push_back(
                100.0 * static_cast<double>(covered.size()) /
                static_cast<double>(
                    workloads::CoverableLines(*program)));
        }
        std::printf("  p = %.2f: %.1f%%\n", p, Mean(coverages));
    }
}

}  // namespace
}  // namespace chef::bench

int
main(int argc, char** argv)
{
    using namespace chef::bench;
    ParseBenchArgs(argc, argv, BenchCli::kNone);
    std::printf("CHEF reproduction -- Figure 9: line coverage with "
                "coverage-optimized CUPA\n");
    std::printf("(paper: noticeable improvement in 6/11 packages; "
                "simplejson ~80%% and xlrd ~40%% with the aggregate "
                "config)\n");
    chef::obs::ClusterSeries curves;
    RunSuite("Python", PyPackages(),
             [](const PyPackage& p, StrategyKind s,
                interp::InterpBuildOptions b, const Budget& budget,
                uint64_t seed) {
                 return RunPy(p, s, b, budget, seed, true);
             },
             &curves);
    RunSuite("Lua", LuaPackages(),
             [](const LuaPackage& p, StrategyKind s,
                interp::InterpBuildOptions b, const Budget& budget,
                uint64_t seed) {
                 return RunLua(p, s, b, budget, seed, true);
             },
             &curves);
    {
        const std::string csv = chef::obs::RenderCoverageCurvesCsv(curves);
        const char* path = "coverage_curves_fig9.csv";
        std::FILE* file = std::fopen(path, "wb");
        if (file != nullptr) {
            std::fwrite(csv.data(), 1, csv.size(), file);
            std::fclose(file);
            std::printf("\ncoverage curves: %s (%zu packages)\n", path,
                        curves.Sources().size());
        } else {
            std::fprintf(stderr, "failed to write %s\n", path);
        }
    }
    if (std::getenv("CHEF_FIG9_ABLATE_P") != nullptr) {
        AblateForkWeightDecay();
    }
    return 0;
}
