/// \file
/// Table 3: testing results for the Python and Lua packages: size,
/// coverable LOC, exceptions discovered (total / undocumented), and
/// hangs. Exceptions are classified like the paper (§6.2): documented =
/// in the package's documented list or a common standard exception
/// (ValueError, TypeError, KeyError); everything else is undocumented.

#include <set>

#include "bench_common.h"

namespace chef::bench {
namespace {

bool
IsDocumented(const std::string& exception_type,
             const std::vector<std::string>& documented)
{
    static const std::set<std::string> kCommon = {
        "ValueError", "TypeError", "KeyError"};
    if (kCommon.count(exception_type)) {
        return true;
    }
    for (const std::string& name : documented) {
        if (name == exception_type) {
            return true;
        }
    }
    return false;
}

}  // namespace
}  // namespace chef::bench

int
main(int argc, char** argv)
{
    using namespace chef::bench;
    ParseBenchArgs(argc, argv, BenchCli::kNone);
    Budget budget = DefaultBudget();
    budget.max_seconds = 3.0;
    budget.max_runs = 400;

    std::printf("CHEF reproduction -- Table 3: testing results per "
                "package\n");
    std::printf("(paper totals: 18,493 LOC / 12,852 coverable; argparse "
                "4/0, ConfigParser 1/0, HTMLParser 1/0, simplejson 2/0,\n"
                " unicodecsv 1/0, xlrd 5/4 exceptions; hang in Lua "
                "JSON)\n\n");
    std::printf("%-14s %-8s %6s %10s %12s %6s\n", "package", "type",
                "LOC", "coverable", "exc(tot/und)", "hangs");

    size_t total_loc = 0;
    size_t total_coverable = 0;

    for (const PyPackage& package : PyPackages()) {
        auto program = workloads::CompilePyOrDie(package.test.source);
        const RunOutcome outcome =
            RunPy(package, StrategyKind::kCupaPath,
                  interp::InterpBuildOptions::FullyOptimized(), budget,
                  1, false);
        std::set<std::string> types;
        std::set<std::string> undocumented;
        for (const TestCase& test : outcome.tests) {
            if (test.outcome_kind != "exception" ||
                test.outcome_detail.empty()) {
                continue;
            }
            types.insert(test.outcome_detail);
            if (!IsDocumented(test.outcome_detail,
                              package.documented_exceptions)) {
                undocumented.insert(test.outcome_detail);
            }
        }
        const size_t loc = workloads::GuestLoc(package.test.source);
        const size_t coverable = workloads::CoverableLines(*program);
        total_loc += loc;
        total_coverable += coverable;
        std::printf("%-14s %-8s %6zu %10zu %8zu/%-3zu %6s\n",
                    package.name.c_str(), package.category.c_str(), loc,
                    coverable, types.size(), undocumented.size(),
                    outcome.hangs > 0 ? "yes" : "-");
        if (!undocumented.empty()) {
            std::printf("    undocumented:");
            for (const std::string& name : undocumented) {
                std::printf(" %s", name.c_str());
            }
            std::printf("\n");
        }
    }

    for (const LuaPackage& package : LuaPackages()) {
        auto chunk = workloads::ParseLuaOrDie(package.test.source);
        const RunOutcome outcome =
            RunLua(package, StrategyKind::kCupaPath,
                   interp::InterpBuildOptions::FullyOptimized(), budget,
                   1, false);
        const size_t loc = workloads::GuestLoc(package.test.source);
        const size_t coverable = chunk->coverable_lines.size();
        total_loc += loc;
        total_coverable += coverable;
        // Lua has no exception hierarchy: Table 3 reports only hangs.
        std::printf("%-14s %-8s %6zu %10zu %8s %9s\n",
                    package.name.c_str(), package.category.c_str(), loc,
                    coverable, "-",
                    outcome.hangs > 0 ? "yes" : "-");
    }
    std::printf("%-14s %-8s %6zu %10zu\n", "TOTAL", "", total_loc,
                total_coverable);
    return 0;
}
