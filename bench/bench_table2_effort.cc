/// \file
/// Table 2: effort required to support Python and Lua in CHEF. The paper
/// counts lines added to each interpreter; here the same structural
/// accounting is computed from this repository's sources: interpreter
/// core size, HLPC instrumentation sites, symbolic-execution optimization
/// code, and the symbolic test library.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

#ifndef CHEF_SOURCE_DIR
#define CHEF_SOURCE_DIR "."
#endif

namespace {

struct FileStats {
    size_t lines = 0;
    size_t log_pc_sites = 0;
    size_t branch_sites = 0;
};

FileStats
CountFile(const std::string& path)
{
    FileStats stats;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        // Count non-blank lines.
        if (line.find_first_not_of(" \t\r") != std::string::npos) {
            ++stats.lines;
        }
        size_t pos = 0;
        while ((pos = line.find("LogPc(", pos)) != std::string::npos) {
            ++stats.log_pc_sites;
            pos += 6;
        }
        pos = 0;
        while ((pos = line.find("CHEF_LLPC", pos)) != std::string::npos) {
            ++stats.branch_sites;
            pos += 9;
        }
    }
    return stats;
}

FileStats
CountFiles(const std::vector<std::string>& paths)
{
    FileStats total;
    for (const std::string& path : paths) {
        const FileStats stats =
            CountFile(std::string(CHEF_SOURCE_DIR) + "/" + path);
        total.lines += stats.lines;
        total.log_pc_sites += stats.log_pc_sites;
        total.branch_sites += stats.branch_sites;
    }
    return total;
}

}  // namespace

int
main(int argc, char** argv)
{
    chef::bench::ParseBenchArgs(argc, argv, chef::bench::BenchCli::kNone);
    std::printf("CHEF reproduction -- Table 2: interpreter preparation "
                "effort (structural accounting of this repository)\n\n");

    const FileStats minipy = CountFiles(
        {"src/minipy/lexer.cc", "src/minipy/parser.cc",
         "src/minipy/compiler.cc", "src/minipy/vm.cc",
         "src/minipy/builtins.cc", "src/minipy/object.cc"});
    const FileStats minilua =
        CountFiles({"src/minilua/lua_parser.cc",
                    "src/minilua/lua_interp.cc"});
    const FileStats optimizations = CountFiles(
        {"src/interp/str_ops.cc", "src/interp/mem_ops.cc",
         "src/interp/int_ops.cc"});
    const FileStats py_testlib = CountFiles({"src/workloads/py_harness.cc"});
    const FileStats lua_testlib =
        CountFiles({"src/workloads/lua_harness.cc"});

    std::printf("%-38s %12s %12s\n", "component", "MiniPy", "MiniLua");
    std::printf("%-38s %12zu %12zu\n",
                "interpreter core size (non-blank LoC)", minipy.lines,
                minilua.lines);
    std::printf("%-38s %12zu %12zu\n", "HLPC instrumentation (log_pc sites)",
                minipy.log_pc_sites, minilua.log_pc_sites);
    std::printf("%-38s %12zu %12zu\n",
                "instrumented branch sites (CHEF_LLPC)",
                minipy.branch_sites, minilua.branch_sites);
    std::printf("%-38s %12zu %12zu\n",
                "shared symbex optimization code (LoC)",
                optimizations.lines, optimizations.lines);
    std::printf("%-38s %12zu %12zu\n", "symbolic test library (LoC)",
                py_testlib.lines, lua_testlib.lines);

    std::printf("\npaper (real CPython 2.7.3 / Lua 5.2.2): core 427,435 / "
                "14,553 LoC; HLPC instrumentation 47 / 44 LoC;\n"
                "optimizations 274 / 233 LoC; test library 103 / 87 LoC; "
                "effort 5 / 3 person-days.\n");
    std::printf("\nThe reproduced ratio to note: instrumentation + "
                "optimizations are orders of magnitude smaller than the "
                "interpreter cores,\nand the same shared API serves both "
                "a bytecode VM (MiniPy) and an AST walker (MiniLua).\n");
    return 0;
}
