/// \file
/// Figure 11: contribution of the individual interpreter optimizations
/// for Python, as high-level paths explored with each incremental build
/// (vanilla -> +symbolic-pointer avoidance -> +hash neutralization ->
/// +fast-path elimination), relative to the fully optimized build (100%).

#include "bench_common.h"

int
main(int argc, char** argv)
{
    using namespace chef::bench;
    ParseBenchArgs(argc, argv, BenchCli::kNone);
    const Budget budget = DefaultBudget();

    std::printf("CHEF reproduction -- Figure 11: interpreter optimization "
                "breakdown (Python), HL paths relative to full build\n");
    std::printf("(paper: monotone gains for simplejson/argparse/"
                "HTMLParser; flat for unicodecsv/ConfigParser; xlrd "
                "peaks at +sym-ptr-avoidance)\n\n");
    std::printf("%-14s %12s %12s %12s %12s\n", "package", "vanilla",
                "+sym-ptr", "+hash-neut", "+fast-path");

    for (const PyPackage& package : PyPackages()) {
        double by_level[4] = {};
        for (int level = 0; level < 4; ++level) {
            std::vector<double> hl_counts;
            for (int rep = 0; rep < budget.reps; ++rep) {
                const RunOutcome outcome = RunPy(
                    package, StrategyKind::kCupaPath,
                    interp::InterpBuildOptions::Level(level), budget,
                    static_cast<uint64_t>(rep + 1), false);
                hl_counts.push_back(
                    static_cast<double>(outcome.hl_paths));
            }
            by_level[level] = Mean(hl_counts);
        }
        const double full = by_level[3] > 0.0 ? by_level[3] : 1.0;
        std::printf("%-14s %11.0f%% %11.0f%% %11.0f%% %11.0f%%\n",
                    package.name.c_str(), 100.0 * by_level[0] / full,
                    100.0 * by_level[1] / full,
                    100.0 * by_level[2] / full,
                    100.0 * by_level[3] / full);
    }
    return 0;
}
