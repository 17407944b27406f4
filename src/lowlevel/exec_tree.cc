#include "lowlevel/exec_tree.h"

#include "support/diagnostics.h"

namespace chef::lowlevel {

PathLink::~PathLink()
{
    std::shared_ptr<PathLink> next = std::move(parent);
    while (next != nullptr && next.use_count() == 1) {
        // Taking the parent first leaves `next` a leaf, so the assignment
        // below frees it without recursing.
        next = std::move(next->parent);
    }
}

std::vector<solver::ExprRef>
AlternateState::PathCondition() const
{
    std::vector<solver::ExprRef> conjuncts(path != nullptr ? path->size : 0);
    for (const PathLink* link = path.get(); link != nullptr;
         link = link->parent.get()) {
        conjuncts[link->size - 1] = link->constraint;
    }
    return conjuncts;
}

ExecutionTree::ExecutionTree()
{
    Reset();
}

void
ExecutionTree::Reset()
{
    nodes_.clear();
    // Node 0 is a sentinel whose child[0] slot holds the first real branch.
    nodes_.push_back(Node{});
    pending_.clear();
    next_state_id_ = 1;
}

void
ExecutionTree::BeginRun(Cursor& cursor)
{
    cursor.node = 0;
    cursor.at_root = true;
    cursor.path_condition_.clear();
    cursor.chain_ = nullptr;
    cursor.depth_ = 0;
}

ExecutionTree::AdvanceResult
ExecutionTree::Advance(Cursor& cursor, uint64_t llpc, bool taken,
                       const solver::ExprRef& taken_constraint,
                       const solver::ExprRef& negated_constraint,
                       const HlPosition& hl)
{
    // The next branch lives in the child slot reached by the last decision
    // (or the sentinel's slot 0 at the start of a run).
    const int32_t parent = cursor.node;
    const int dir_index = cursor.at_root ? 0 : (cursor.last_direction ? 1 : 0);
    int32_t slot = nodes_[parent].child[dir_index];
    if (slot < 0) {
        slot = static_cast<int32_t>(nodes_.size());
        Node node;
        node.llpc = llpc;
        nodes_.push_back(node);
        nodes_[parent].child[dir_index] = slot;
    }
    Node& node = nodes_[slot];
    CHEF_CHECK_MSG(node.llpc == llpc,
                   "non-deterministic branch sequence: interpreter replay "
                   "diverged from the recorded execution tree");

    AdvanceResult result;
    const int taken_index = taken ? 1 : 0;
    const int other_index = taken ? 0 : 1;

    // The taken direction is now explored; a stale pending alternate for it
    // (if the strategy had not picked it yet) is dropped.
    if (node.status[taken_index] == EdgeStatus::kRegistered &&
        pending_.erase(node.pending_id[taken_index]) > 0 &&
        on_pending_removed_) {
        on_pending_removed_(node.pending_id[taken_index]);
    }
    node.status[taken_index] = EdgeStatus::kExplored;

    // Register the alternate for the other direction if it is still open.
    if (node.status[other_index] == EdgeStatus::kUnknown) {
        // Link the constraints added since the last registration, then
        // fork the alternate off the chain's tip.
        const std::vector<solver::ExprRef>& prefix = cursor.path_condition_;
        for (size_t i = cursor.chain_ != nullptr ? cursor.chain_->size : 0;
             i < prefix.size(); ++i) {
            cursor.chain_ = support::MakePooled<PathLink>(
                prefix[i], std::move(cursor.chain_), i + 1);
        }
        AlternateState state;
        state.id = next_state_id_++;
        state.path = support::MakePooled<PathLink>(
            negated_constraint, cursor.chain_, prefix.size() + 1);
        state.node = static_cast<uint32_t>(slot);
        state.direction = !taken;
        state.llpc = llpc;
        state.static_hlpc = hl.static_hlpc;
        state.dynamic_hlpc = hl.dynamic_hlpc;
        state.hl_opcode = hl.opcode;
        state.depth = cursor.depth_;
        node.status[other_index] = EdgeStatus::kRegistered;
        node.pending_id[other_index] = state.id;
        auto [it, inserted] = pending_.emplace(state.id, std::move(state));
        CHEF_CHECK(inserted);
        result.registered = it->first;
        if (on_state_added_) {
            on_state_added_(it->second);
        }
    }

    cursor.path_condition_.push_back(taken_constraint);
    ++cursor.depth_;
    cursor.node = slot;
    cursor.at_root = false;
    cursor.last_direction = taken;
    return result;
}

AlternateState
ExecutionTree::TakePending(StateId id)
{
    auto it = pending_.find(id);
    CHEF_CHECK_MSG(it != pending_.end(), "unknown pending state id");
    AlternateState state = std::move(it->second);
    pending_.erase(it);
    if (on_pending_removed_) {
        on_pending_removed_(state.id);
    }
    return state;
}

void
ExecutionTree::ReleaseClaim(const AlternateState& state)
{
    auto [it, inserted] = pending_.emplace(state.id, state);
    CHEF_CHECK_MSG(inserted, "released state was still pending");
    if (on_state_added_) {
        on_state_added_(it->second);
    }
}

void
ExecutionTree::MarkInfeasible(const AlternateState& state)
{
    Node& node = nodes_[state.node];
    const int index = state.direction ? 1 : 0;
    node.status[index] = EdgeStatus::kInfeasible;
    node.pending_id[index] = 0;
}

const AlternateState*
ExecutionTree::FindPending(StateId id) const
{
    auto it = pending_.find(id);
    return it == pending_.end() ? nullptr : &it->second;
}

void
ExecutionTree::ScaleForkWeight(StateId id, double factor)
{
    auto it = pending_.find(id);
    if (it != pending_.end()) {
        it->second.fork_weight *= factor;
    }
}

}  // namespace chef::lowlevel
