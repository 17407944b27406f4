#ifndef CHEF_LOWLEVEL_RUNTIME_H_
#define CHEF_LOWLEVEL_RUNTIME_H_

/// \file
/// The low-level concolic execution runtime.
///
/// This is our substitute for S2E's guest-facing machinery: interpreters run
/// as ordinary C++ code, but every guest-data-dependent branch goes through
/// Branch() with a unique low-level program counter (LLPC), every symbolic
/// input is created through MakeSymbolicValue(), and the paper's guest API
/// (Table 1: make_symbolic, assume, concretize, upper_bound, is_symbolic,
/// log_pc) is provided as methods. A run executes concretely under the
/// current input assignment while the runtime records the path condition
/// and registers alternate states in the ExecutionTree.

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "lowlevel/exec_tree.h"
#include "lowlevel/symvalue.h"
#include "solver/solver.h"
#include "support/strings.h"

namespace chef::lowlevel {

/// Final status of one concolic run.
enum class PathStatus {
    kRunning,
    kFinished,        ///< The guest program terminated normally.
    kHang,            ///< Step budget exhausted (paper's 60s timeout).
    kAssumeViolated,  ///< An assume() failed concretely; re-solve and rerun.
    kAborted,         ///< Guest aborted (unrecoverable interpreter error).
};

/// Statistics for a completed run.
struct RunStats {
    PathStatus status = PathStatus::kRunning;
    uint64_t steps = 0;
    uint32_t symbolic_branches = 0;
    uint32_t registered_states = 0;
};

/// Declares one symbolic input variable (stable across runs of a test).
struct VarDecl {
    std::string name;
    int width = 8;
    uint64_t default_value = 0;
};

/// Computes a stable low-level PC from a source location: the FNV-1a hash
/// of \p file (as FnvHash computes it) combined with \p line. Interpreters
/// tag each guest-data-dependent branch site with CHEF_LLPC.
constexpr uint64_t
LlpcFromLocation(const char* file, int line)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (; *file != '\0'; ++file) {
        h ^= static_cast<uint8_t>(*file);
        h *= 0x100000001b3ull;
    }
    return HashCombine(h, static_cast<uint64_t>(line));
}

/// The site's LLPC, computed at compile time.
#define CHEF_LLPC                                                        \
    (::std::integral_constant<                                           \
        uint64_t, ::chef::lowlevel::LlpcFromLocation(__FILE__,           \
                                                     __LINE__)>::value)

/// Guest-facing concolic runtime; one instance per symbolic test session.
class LowLevelRuntime
{
  public:
    struct Options {
        /// Low-level step budget per run; exceeding it flags a hang (the
        /// paper's per-path 60-second timeout).
        uint64_t max_steps_per_run = 4'000'000;
        /// Fork-weight decay for consecutive forks at one LLPC (§3.4).
        double fork_weight_decay = 0.75;
        /// State-pool pressure control: after this many alternate states
        /// registered by one run, further branches follow the concrete
        /// path without registering (S2E similarly throttles forking
        /// under memory pressure). Runs that hit the cap are almost
        /// always runaway input-dependent loops already flagged as hangs.
        uint32_t max_registered_per_run = 2048;
    };

    LowLevelRuntime(ExecutionTree* tree, solver::Solver* solver,
                    Options options);

    // -- Run lifecycle (driven by the engine) -------------------------------

    /// Starts a new run under the given input assignment (values
    /// override the per-variable defaults).
    void BeginRun(const solver::Assignment& inputs);

    /// Finalizes the run; a still-running status becomes kFinished.
    RunStats EndRun();

    // -- Guest API (paper Table 1) ------------------------------------------

    /// make_symbolic: creates (or re-binds, on later runs) a symbolic input
    /// variable. Creation order must be deterministic across runs.
    SymValue MakeSymbolicValue(const std::string& name, int width,
                               uint64_t default_value = 0);

    /// Records a branch on a (possibly symbolic) condition at the branch
    /// site \p llpc and returns the direction the concrete execution takes.
    bool Branch(const SymValue& cond, uint64_t llpc);

    /// assume: constrains the path without forking. If the condition is
    /// concretely false the run is flagged kAssumeViolated; the engine
    /// re-solves the path condition and reruns.
    void Assume(const SymValue& cond);

    /// concretize: pins a symbolic value to its concrete value on this
    /// path (adds an equality constraint) and returns that value.
    uint64_t Concretize(const SymValue& value);

    /// upper_bound: maximum value the expression can take on this path.
    uint64_t UpperBound(const SymValue& value);

    /// is_symbolic.
    static bool IsSymbolic(const SymValue& value)
    {
        return value.IsSymbolic();
    }

    /// log_pc: interpreter dispatch-loop instrumentation. Forwarded to the
    /// registered hook (the high-level tracker).
    void LogPc(uint64_t hlpc, uint32_t opcode);

    /// Accounts low-level work; returns false once the step budget is
    /// exhausted (callers must then unwind the run).
    bool CountStep(uint64_t steps = 1);

    bool out_of_budget() const
    {
        return stats_.steps > options_.max_steps_per_run;
    }

    /// Aborts the current path with the given status.
    void AbortPath(PathStatus status);

    PathStatus status() const { return stats_.status; }
    bool running() const { return stats_.status == PathStatus::kRunning; }

    /// The path condition of this runtime's current run (its own cursor).
    const std::vector<solver::ExprRef>& current_path_condition() const
    {
        return cursor_.path_condition();
    }

    // -- Wiring ---------------------------------------------------------------

    using LogPcHook = std::function<void(uint64_t hlpc, uint32_t opcode)>;

    /// Installs the high-level tracker hook, invoked on every LogPc call.
    void set_log_pc_hook(LogPcHook hook) { log_pc_hook_ = std::move(hook); }

    /// Current high-level position, written back by the tracker so that
    /// alternate states registered at low-level branches carry it.
    void SetHlPosition(uint64_t static_hlpc, uint64_t dynamic_hlpc,
                       uint32_t opcode);

    const std::vector<VarDecl>& variables() const { return variables_; }
    const solver::Assignment& inputs() const { return inputs_; }
    ExecutionTree* tree() { return tree_; }
    solver::Solver* constraint_solver() { return solver_; }
    const Options& options() const { return options_; }

    /// Resets the variable registry (new symbolic test session).
    void ResetSession();

  private:
    ExecutionTree* tree_;
    solver::Solver* solver_;
    Options options_;

    std::vector<VarDecl> variables_;
    size_t next_var_index_ = 0;
    solver::Assignment inputs_;

    RunStats stats_;
    LogPcHook log_pc_hook_;

    ExecutionTree::Cursor cursor_;

    uint64_t hl_static_ = 0;
    uint64_t hl_dynamic_ = 0;
    uint32_t hl_opcode_ = 0;

    // Fork streak tracking for §3.4 fork weights.
    uint64_t streak_llpc_ = 0;
    bool streak_active_ = false;
    std::vector<StateId> streak_ids_;
};

}  // namespace chef::lowlevel

#endif  // CHEF_LOWLEVEL_RUNTIME_H_
