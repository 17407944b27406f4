/// \file
/// Supporting microbenchmarks: constraint solver throughput on the query
/// shapes concolic execution produces, with the query cache and model
/// reuse on/off (the DESIGN.md solver ablation).

#include <benchmark/benchmark.h>

#include "solver/solver.h"

namespace chef::solver {
namespace {

/// Path-condition shape: byte-equality chain (string match prefix) plus
/// one negated comparison at the end.
std::vector<ExprRef>
StringMatchQuery(int length, int flip_at)
{
    std::vector<ExprRef> assertions;
    for (int i = 0; i < length; ++i) {
        const ExprRef byte = MakeVar(static_cast<uint32_t>(i + 1), 8);
        ExprRef eq = MakeEq(byte, MakeConst('a' + (i % 26), 8));
        if (i == flip_at) {
            eq = MakeBoolNot(eq);
        }
        assertions.push_back(eq);
    }
    return assertions;
}

void
BM_SolverStringMatch(benchmark::State& state)
{
    const int length = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Solver solver;
        Assignment model;
        const auto result =
            solver.Solve(StringMatchQuery(length, length / 2), &model);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SolverStringMatch)->Arg(8)->Arg(32)->Arg(128);

void
BM_SolverArith32(benchmark::State& state)
{
    // 3x + y == k with bounds: the Figure-1 shape.
    const ExprRef x = MakeVar(1, 32);
    const ExprRef y = MakeVar(2, 32);
    const ExprRef sum = MakeAdd(MakeMul(x, MakeConst(3, 32)), y);
    uint64_t k = 10;
    for (auto _ : state) {
        Solver solver;
        Assignment model;
        const auto result = solver.Solve(
            {MakeEq(sum, MakeConst(k++, 32)),
             MakeUlt(x, MakeConst(1000, 32))},
            &model);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SolverArith32);

void
BM_SolverMul16Factor(benchmark::State& state)
{
    for (auto _ : state) {
        Solver solver;
        const ExprRef x = MakeVar(1, 16);
        const ExprRef y = MakeVar(2, 16);
        Assignment model;
        const auto result = solver.Solve(
            {MakeEq(MakeMul(x, y), MakeConst(12851, 16)),
             MakeUgt(x, MakeConst(1, 16)),
             MakeUgt(y, MakeConst(1, 16))},
            &model);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SolverMul16Factor);

void
BM_SolverCacheEffect(benchmark::State& state)
{
    const bool enable_cache = state.range(0) != 0;
    Solver::Options options;
    options.enable_query_cache = enable_cache;
    options.enable_model_reuse = enable_cache;
    Solver solver(options);
    const auto query = StringMatchQuery(32, 16);
    for (auto _ : state) {
        Assignment model;
        const auto result = solver.Solve(query, &model);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(enable_cache ? "cache+reuse on" : "cache+reuse off");
}
BENCHMARK(BM_SolverCacheEffect)->Arg(0)->Arg(1);

void
BM_UpperBound(benchmark::State& state)
{
    // The symbolic-allocation-size query (paper Figure 6).
    for (auto _ : state) {
        Solver solver;
        const ExprRef n = MakeVar(1, 32);
        uint64_t bound = 0;
        solver.UpperBound({MakeUlt(n, MakeConst(4096, 32))}, n, &bound);
        benchmark::DoNotOptimize(bound);
    }
}
BENCHMARK(BM_UpperBound);

}  // namespace
}  // namespace chef::solver

BENCHMARK_MAIN();
