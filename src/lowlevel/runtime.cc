#include "lowlevel/runtime.h"

#include "support/diagnostics.h"

namespace chef::lowlevel {

LowLevelRuntime::LowLevelRuntime(ExecutionTree* tree, solver::Solver* solver,
                                 Options options)
    : tree_(tree), solver_(solver), options_(options)
{
}

void
LowLevelRuntime::ResetSession()
{
    variables_.clear();
    next_var_index_ = 0;
    inputs_ = solver::Assignment();
    stats_ = RunStats();
}

void
LowLevelRuntime::BeginRun(const solver::Assignment& inputs)
{
    inputs_ = inputs;
    stats_ = RunStats();
    next_var_index_ = 0;
    hl_static_ = 0;
    hl_dynamic_ = 0;
    hl_opcode_ = 0;
    streak_active_ = false;
    streak_ids_.clear();
    tree_->BeginRun(cursor_);
}

RunStats
LowLevelRuntime::EndRun()
{
    if (stats_.status == PathStatus::kRunning) {
        stats_.status = PathStatus::kFinished;
    }
    return stats_;
}

SymValue
LowLevelRuntime::MakeSymbolicValue(const std::string& name, int width,
                                   uint64_t default_value)
{
    const size_t index = next_var_index_++;
    if (index == variables_.size()) {
        variables_.push_back({name, width, default_value});
    } else {
        CHEF_CHECK_MSG(index < variables_.size() &&
                           variables_[index].name == name &&
                           variables_[index].width == width,
                       "symbolic inputs must be created in a deterministic "
                       "order across runs");
    }
    const uint32_t var_id = static_cast<uint32_t>(index + 1);
    const uint64_t concrete = inputs_.Has(var_id)
                                  ? inputs_.Get(var_id)
                                  : variables_[index].default_value;
    return SymValue(concrete, width,
                    solver::MakeVar(var_id, width));
}

bool
LowLevelRuntime::Branch(const SymValue& cond, uint64_t llpc)
{
    CHEF_CHECK(cond.width() == 1);
    CountStep();
    if (!cond.IsSymbolic() || !running()) {
        return cond.ConcreteTruth();
    }
    const bool taken = cond.ConcreteTruth();
    const solver::ExprRef taken_constraint =
        taken ? cond.ToExpr() : solver::MakeBoolNot(cond.ToExpr());
    ++stats_.symbolic_branches;
    if (stats_.registered_states >= kMaxRegisteredPerRun) {
        // Pool-pressure throttle: keep executing concretely, but record
        // the constraint so the path condition stays sound.
        tree_->AddConstraint(cursor_, taken_constraint);
        return taken;
    }
    const solver::ExprRef negated_constraint =
        solver::MakeBoolNot(taken_constraint);

    ExecutionTree::AdvanceResult advance = tree_->Advance(
        cursor_, llpc, taken, taken_constraint, negated_constraint,
        HlPosition{hl_static_, hl_dynamic_, hl_opcode_});

    if (advance.registered != 0) {
        ++stats_.registered_states;

        // Fork-weight streak (§3.4): consecutive forks at one LLPC decay
        // earlier states by p each time a newer one appears.
        if (streak_active_ && streak_llpc_ == llpc) {
            for (StateId id : streak_ids_) {
                tree_->ScaleForkWeight(id, options_.fork_weight_decay);
            }
        } else {
            streak_ids_.clear();
            streak_llpc_ = llpc;
            streak_active_ = true;
        }
        streak_ids_.push_back(advance.registered);
    } else if (!streak_active_ || streak_llpc_ != llpc) {
        // A branch at a different site interrupts the streak.
        streak_active_ = false;
        streak_ids_.clear();
    }
    return taken;
}

void
LowLevelRuntime::Assume(const SymValue& cond)
{
    CHEF_CHECK(cond.width() == 1);
    if (!running()) {
        return;
    }
    if (cond.IsSymbolic()) {
        tree_->AddConstraint(cursor_, cond.ToExpr());
    }
    if (!cond.ConcreteTruth()) {
        if (!cond.IsSymbolic()) {
            Fatal("assume() on a concretely false, non-symbolic condition: "
                  "the symbolic test is self-contradictory");
        }
        AbortPath(PathStatus::kAssumeViolated);
    }
}

uint64_t
LowLevelRuntime::Concretize(const SymValue& value)
{
    if (value.IsSymbolic() && running()) {
        tree_->AddConstraint(
            cursor_, solver::MakeEq(value.ToExpr(),
                                    solver::MakeConst(value.concrete(),
                                                      value.width())));
    }
    return value.concrete();
}

uint64_t
LowLevelRuntime::UpperBound(const SymValue& value)
{
    if (!value.IsSymbolic()) {
        return value.concrete();
    }
    uint64_t bound = 0;
    if (!solver_->UpperBound(cursor_.path_condition(), value.ToExpr(),
                             &bound)) {
        // The current path condition should always be satisfiable (the run
        // is executing under a witness); fall back to the concrete value.
        return value.concrete();
    }
    return bound;
}

void
LowLevelRuntime::LogPc(uint64_t hlpc, uint32_t opcode)
{
    CountStep();
    if (log_pc_hook_) {
        log_pc_hook_(hlpc, opcode);
    } else {
        // Without a tracker, fall back to using the static HLPC directly.
        SetHlPosition(hlpc, hlpc, opcode);
    }
}

bool
LowLevelRuntime::CountStep(uint64_t steps)
{
    stats_.steps += steps;
    if (stats_.steps > options_.max_steps_per_run) {
        if (stats_.status == PathStatus::kRunning) {
            stats_.status = PathStatus::kHang;
        }
        return false;
    }
    return true;
}

void
LowLevelRuntime::AbortPath(PathStatus status)
{
    if (stats_.status == PathStatus::kRunning) {
        stats_.status = status;
    }
}

void
LowLevelRuntime::SetHlPosition(uint64_t static_hlpc, uint64_t dynamic_hlpc,
                               uint32_t opcode)
{
    hl_static_ = static_hlpc;
    hl_dynamic_ = dynamic_hlpc;
    hl_opcode_ = opcode;
}

}  // namespace chef::lowlevel
