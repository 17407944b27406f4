/// \file
/// Figure 8: number of relevant high-level test cases generated by each
/// configuration, relative to the baseline (random selection + vanilla
/// interpreter), per package. The paper reports this on a log scale; here
/// the ratios are printed directly. Set CHEF_FIG8_ABLATE=1 to add the
/// CUPA level-order ablation column (DESIGN.md §5).

#include "bench_common.h"

namespace chef::bench {
namespace {

template <typename Package, typename Runner>
void
RunSuite(const char* language, const std::vector<Package>& packages,
         Runner&& runner)
{
    const Budget budget = DefaultBudget();
    const bool ablate = std::getenv("CHEF_FIG8_ABLATE") != nullptr;

    std::printf("\n-- Figure 8 (%s): relevant HL test cases relative to "
                "baseline --\n",
                language);
    std::printf("%-14s %12s %12s %12s %12s%s\n", "package", "cupa+opt",
                "opt-only", "cupa-only", "baseline",
                ablate ? "   cupa-inv+opt" : "");
    for (const Package& package : packages) {
        double baseline = 0.0;
        std::vector<double> ratios;
        for (const EvalConfig& config : EvalConfigs()) {
            std::vector<double> hl_counts;
            for (int rep = 0; rep < budget.reps; ++rep) {
                const RunOutcome outcome = runner(
                    package,
                    StrategyFor(config, /*coverage_optimized=*/false),
                    BuildFor(config), budget,
                    static_cast<uint64_t>(rep + 1));
                hl_counts.push_back(
                    static_cast<double>(outcome.hl_paths));
            }
            const double mean = Mean(hl_counts);
            if (std::string(config.name) == "baseline") {
                baseline = mean;
            }
            ratios.push_back(mean);
        }
        if (baseline <= 0.0) {
            baseline = 1.0;
        }
        std::printf("%-14s %11.1fx %11.1fx %11.1fx %11.1fx",
                    package.name.c_str(), ratios[0] / baseline,
                    ratios[1] / baseline, ratios[2] / baseline,
                    ratios[3] / baseline);
        if (ablate) {
            std::vector<double> hl_counts;
            for (int rep = 0; rep < budget.reps; ++rep) {
                const RunOutcome outcome = runner(
                    package, StrategyKind::kCupaPathInverted,
                    interp::InterpBuildOptions::FullyOptimized(), budget,
                    static_cast<uint64_t>(rep + 1));
                hl_counts.push_back(
                    static_cast<double>(outcome.hl_paths));
            }
            std::printf("   %11.1fx", Mean(hl_counts) / baseline);
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
    std::printf("CHEF reproduction -- Figure 8: test cases generated by "
                "path-optimized CUPA and interpreter optimizations\n");
    std::printf("(paper: up to 1000x over baseline for Python packages, "
                "smaller factors for Lua; aggregate config best in 10/11 "
                "cases)\n");
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
