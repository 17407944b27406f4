#ifndef CHEF_BENCH_BENCH_COMMON_H_
#define CHEF_BENCH_BENCH_COMMON_H_

/// \file
/// Shared harness for the evaluation benchmarks (one binary per paper
/// table/figure). The paper runs 30 minutes x 15 repetitions per
/// configuration on a 48-core machine; these benches run scaled-down
/// budgets (seconds per configuration, CHEF_BENCH_REPS repetitions,
/// default 2) and report the same rows/series so the shapes can be
/// compared.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chef/engine.h"
#include "support/json.h"
#include "workloads/packages.h"

namespace chef::bench {

// Re-exports so bench binaries can reference everything through
// chef::bench after a single using-directive in main().
namespace workloads = chef::workloads;
namespace interp = chef::interp;
using chef::Engine;
using chef::EngineStats;
using chef::StrategyKind;
using chef::StrategyKindName;
using chef::TestCase;
using workloads::LuaPackage;
using workloads::LuaPackages;
using workloads::PyPackage;
using workloads::PyPackages;

/// The four Figure-8/9 configurations.
struct EvalConfig {
    const char* name;
    bool cupa;       ///< CUPA vs. random state selection.
    bool optimized;  ///< Optimized vs. vanilla interpreter build.
};

inline const std::vector<EvalConfig>&
EvalConfigs()
{
    static const std::vector<EvalConfig> configs = {
        {"cupa+opt", true, true},
        {"opt-only", false, true},
        {"cupa-only", true, false},
        {"baseline", false, false},
    };
    return configs;
}

/// Scaled-down exploration budgets (env-overridable).
struct Budget {
    uint64_t max_runs = 150;
    double max_seconds = 1.5;
    uint64_t max_steps_per_run = 60'000;
    int reps = 2;
};

inline Budget
DefaultBudget()
{
    Budget budget;
    if (const char* reps = std::getenv("CHEF_BENCH_REPS")) {
        budget.reps = std::max(1, std::atoi(reps));
    }
    if (const char* secs = std::getenv("CHEF_BENCH_SECONDS")) {
        budget.max_seconds = std::atof(secs);
    }
    return budget;
}

/// Result of one exploration.
struct RunOutcome {
    uint64_t ll_paths = 0;
    uint64_t hl_paths = 0;
    uint64_t hangs = 0;
    double seconds = 0.0;
    double coverage_fraction = 0.0;  ///< Filled when requested.
    std::vector<EngineStats::Sample> timeline;
    std::vector<TestCase> tests;
};

/// Runs one Python package under a strategy/build pair.
inline RunOutcome
RunPy(const PyPackage& package, StrategyKind strategy,
      interp::InterpBuildOptions build, const Budget& budget,
      uint64_t seed, bool measure_coverage)
{
    auto program = workloads::CompilePyOrDie(package.test.source);
    Engine::Options options;
    options.strategy = strategy;
    options.seed = seed;
    options.max_runs = budget.max_runs;
    options.max_seconds = budget.max_seconds;
    options.max_steps_per_run = budget.max_steps_per_run;
    Engine engine(options);
    RunOutcome outcome;
    outcome.tests =
        engine.Explore(workloads::MakePyRunFn(program, package.test, build));
    outcome.ll_paths = engine.stats().ll_paths;
    outcome.hl_paths = engine.stats().hl_paths;
    outcome.hangs = engine.stats().hangs;
    outcome.seconds = engine.stats().elapsed_seconds;
    outcome.timeline = engine.stats().timeline;
    if (measure_coverage) {
        std::set<int> covered;
        for (const TestCase& test : outcome.tests) {
            if (!test.new_hl_path || test.outcome_kind == "hang") {
                continue;
            }
            const auto replay =
                workloads::ReplayPy(program, package.test, test.inputs);
            covered.insert(replay.covered_lines.begin(),
                           replay.covered_lines.end());
        }
        const size_t coverable = workloads::CoverableLines(*program);
        outcome.coverage_fraction =
            coverable == 0 ? 0.0
                           : static_cast<double>(covered.size()) /
                                 static_cast<double>(coverable);
    }
    return outcome;
}

/// Runs one Lua package under a strategy/build pair.
inline RunOutcome
RunLua(const LuaPackage& package, StrategyKind strategy,
       interp::InterpBuildOptions build, const Budget& budget,
       uint64_t seed, bool measure_coverage)
{
    auto chunk = workloads::ParseLuaOrDie(package.test.source);
    Engine::Options options;
    options.strategy = strategy;
    options.seed = seed;
    options.max_runs = budget.max_runs;
    options.max_seconds = budget.max_seconds;
    options.max_steps_per_run = budget.max_steps_per_run;
    Engine engine(options);
    RunOutcome outcome;
    outcome.tests = engine.Explore(
        workloads::MakeLuaRunFn(chunk, package.test, build));
    outcome.ll_paths = engine.stats().ll_paths;
    outcome.hl_paths = engine.stats().hl_paths;
    outcome.hangs = engine.stats().hangs;
    outcome.seconds = engine.stats().elapsed_seconds;
    outcome.timeline = engine.stats().timeline;
    if (measure_coverage) {
        std::set<int> covered;
        for (const TestCase& test : outcome.tests) {
            if (!test.new_hl_path || test.outcome_kind == "hang") {
                continue;
            }
            const auto replay =
                workloads::ReplayLua(chunk, package.test, test.inputs);
            covered.insert(replay.covered_lines.begin(),
                           replay.covered_lines.end());
        }
        const size_t coverable = chunk->coverable_lines.size();
        outcome.coverage_fraction =
            coverable == 0 ? 0.0
                           : static_cast<double>(covered.size()) /
                                 static_cast<double>(coverable);
    }
    return outcome;
}

/// Strategy/build for an EvalConfig (path- or coverage-optimized CUPA).
inline StrategyKind
StrategyFor(const EvalConfig& config, bool coverage_optimized)
{
    if (!config.cupa) {
        return StrategyKind::kRandom;
    }
    return coverage_optimized ? StrategyKind::kCupaCoverage
                              : StrategyKind::kCupaPath;
}

inline interp::InterpBuildOptions
BuildFor(const EvalConfig& config)
{
    return config.optimized ? interp::InterpBuildOptions::FullyOptimized()
                            : interp::InterpBuildOptions::Vanilla();
}

inline double
Mean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

/// The command line of every bench with a smoke mode:
/// `<bench> [--smoke] [PATH]`, PATH being the report file (empty here:
/// BenchReport::DefaultPath()). Any other argument that starts with '-'
/// prints usage and exits with status 2 before the bench runs, so a
/// mistyped flag never runs the bench or becomes a report file name.
struct SmokeArgs {
    bool smoke = false;
    std::string report_path;
};

inline SmokeArgs
ParseSmokeArgs(int argc, char** argv)
{
    SmokeArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "usage: %s [--smoke] [PATH]\n", argv[0]);
            std::exit(2);
        } else {
            args.report_path = arg;
        }
    }
    return args;
}

/// Uniform bench artifact. Every bench with a --smoke mode writes
/// BENCH_<name>.json through this one helper, so CI collects artifacts
/// with a single glob and downstream consumers parse a single schema:
///
///   {"bench": <name>, "smoke": <bool>, "wall_seconds": <seconds>,
///    "config": {<knobs the bench ran with>},
///    "metrics": {<scalar results and pass/fail booleans>},
///    "reports": {<embedded full JSON documents>}}
///
/// wall_seconds spans construction to Write() — the whole bench run,
/// every configuration included. Keys keep insertion order.
class BenchReport
{
  public:
    BenchReport(std::string name, bool smoke)
        : name_(std::move(name)), smoke_(smoke),
          start_(std::chrono::steady_clock::now())
    {
    }

    template <typename T>
    void Config(const char* key, const T& value)
    {
        Add(&config_, key, value);
    }

    template <typename T>
    void Metric(const char* key, const T& value)
    {
        Add(&metrics_, key, value);
    }

    /// Embeds an already-rendered JSON document (a service report, a
    /// merged shard report) under reports.<key> verbatim.
    void Report(const char* key, std::string json)
    {
        reports_.emplace_back(key, std::move(json));
    }

    /// The artifact name CI globs for.
    std::string DefaultPath() const { return "BENCH_" + name_ + ".json"; }

    /// Renders and writes the document, complaining on stderr itself so
    /// call sites can collapse to `return report.Write(path) && ok`.
    bool Write(const std::string& path) const
    {
        support::JsonWriter json;
        json.BeginObject();
        json.Key("bench"), json.Value(name_);
        json.Key("smoke"), json.Value(smoke_);
        json.Key("wall_seconds"),
            json.Value(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
        WriteSection(&json, "config", config_);
        WriteSection(&json, "metrics", metrics_);
        WriteSection(&json, "reports", reports_);
        json.EndObject();
        const std::string document = json.Take();
        std::FILE* file = std::fopen(path.c_str(), "wb");
        if (file == nullptr ||
            std::fwrite(document.data(), 1, document.size(), file) !=
                document.size() ||
            std::fclose(file) != 0) {
            std::fprintf(stderr, "failed to write %s\n", path.c_str());
            return false;
        }
        std::printf("report: %s\n", path.c_str());
        return true;
    }

  private:
    using Entries = std::vector<std::pair<std::string, std::string>>;

    /// Values are rendered to JSON eagerly (one tiny writer each), so
    /// the sections can hold mixed types without a variant.
    template <typename T>
    static void Add(Entries* entries, const char* key, const T& value)
    {
        support::JsonWriter json;
        json.Value(value);
        entries->emplace_back(key, json.Take());
    }

    static void WriteSection(support::JsonWriter* json, const char* key,
                             const Entries& entries)
    {
        json->Key(key);
        json->BeginObject();
        for (const auto& [name, value] : entries) {
            json->Key(name.c_str());
            json->RawValue(value);
        }
        json->EndObject();
    }

    std::string name_;
    bool smoke_;
    std::chrono::steady_clock::time_point start_;
    Entries config_;
    Entries metrics_;
    Entries reports_;
};

}  // namespace chef::bench

#endif  // CHEF_BENCH_BENCH_COMMON_H_
