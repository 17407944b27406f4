/// \file
/// Figure 10: fraction of low-level paths that contribute a new
/// high-level path, over time, averaged across the testing targets.
/// The paper shows the aggregate configuration sustaining ~25% (Python)
/// and ~12% (Lua), about 10x / 2.6x above the best other configuration.

#include "bench_common.h"

namespace chef::bench {
namespace {

constexpr int kTimeBuckets = 10;

/// Accumulates the HL/LL ratio time series, normalized to the budget.
struct Series {
    double sums[kTimeBuckets] = {};
    int counts[kTimeBuckets] = {};

    void Add(const std::vector<EngineStats::Sample>& timeline,
             double horizon)
    {
        // For each bucket boundary take the last sample at or before it.
        size_t cursor = 0;
        EngineStats::Sample last{0.0, 0, 0};
        for (int bucket = 0; bucket < kTimeBuckets; ++bucket) {
            const double t =
                horizon * static_cast<double>(bucket + 1) / kTimeBuckets;
            while (cursor < timeline.size() &&
                   timeline[cursor].t <= t) {
                last = timeline[cursor];
                ++cursor;
            }
            if (last.ll_paths > 0) {
                sums[bucket] += static_cast<double>(last.hl_paths) /
                                static_cast<double>(last.ll_paths);
                counts[bucket] += 1;
            }
        }
    }

    double At(int bucket) const
    {
        return counts[bucket] == 0 ? 0.0
                                   : sums[bucket] / counts[bucket];
    }
};

template <typename Package, typename Runner>
void
RunSuite(const char* language, const std::vector<Package>& packages,
         Runner&& runner)
{
    const Budget budget = DefaultBudget();
    std::printf("\n-- Figure 10 (%s): HL/LL path ratio over time [%%] "
                "--\n",
                language);
    std::printf("%-10s", "t/T");
    for (int bucket = 0; bucket < kTimeBuckets; ++bucket) {
        std::printf(" %5.1f",
                    static_cast<double>(bucket + 1) / kTimeBuckets);
    }
    std::printf("\n");
    for (const EvalConfig& config : EvalConfigs()) {
        Series series;
        for (const Package& package : packages) {
            for (int rep = 0; rep < budget.reps; ++rep) {
                const RunOutcome outcome = runner(
                    package,
                    StrategyFor(config, /*coverage_optimized=*/false),
                    BuildFor(config), budget,
                    static_cast<uint64_t>(rep + 1));
                series.Add(outcome.timeline, budget.max_seconds);
            }
        }
        std::printf("%-10s", config.name);
        for (int bucket = 0; bucket < kTimeBuckets; ++bucket) {
            std::printf(" %5.1f", 100.0 * series.At(bucket));
        }
        std::printf("\n");
    }
}

}  // namespace
}  // namespace chef::bench

int
main(int argc, char** argv)
{
    using namespace chef::bench;
    ParseBenchArgs(argc, argv, BenchCli::kNone);
    std::printf("CHEF reproduction -- Figure 10: efficiency of high-level "
                "test case generation\n");
    std::printf("(paper: aggregate config sustains ~25%% on Python and "
                "~12%% on Lua, ~10x / ~2.6x above the next best)\n");
    RunSuite("Python", PyPackages(),
             [](const PyPackage& p, StrategyKind s,
                interp::InterpBuildOptions b, const Budget& budget,
                uint64_t seed) {
                 return RunPy(p, s, b, budget, seed, false);
             });
    RunSuite("Lua", LuaPackages(),
             [](const LuaPackage& p, StrategyKind s,
                interp::InterpBuildOptions b, const Budget& budget,
                uint64_t seed) {
                 return RunLua(p, s, b, budget, seed, false);
             });
    return 0;
}
