#include "cupa/strategy.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace chef::cupa {

CupaStrategy::CupaStrategy(
    lowlevel::ExecutionTree* tree, Rng* rng, std::vector<LevelSpec> levels,
    std::function<double(const AlternateState&)> state_weight,
    std::string name)
    : tree_(tree),
      rng_(rng),
      levels_(std::move(levels)),
      state_weight_(std::move(state_weight)),
      name_(std::move(name))
{
    CHEF_CHECK(!levels_.empty());
}

void
CupaStrategy::OnStateAdded(const AlternateState& state)
{
    std::vector<uint64_t> keys;
    keys.reserve(levels_.size());
    ClassNode* node = &root_;
    ++node->total_states;
    for (const LevelSpec& level : levels_) {
        const uint64_t key = level.classify(state);
        keys.push_back(key);
        std::unique_ptr<ClassNode>& child = node->children[key];
        if (!child) {
            child = std::make_unique<ClassNode>();
        }
        node = child.get();
        ++node->total_states;
    }
    node->states.push_back(state.id);
    membership_.emplace(state.id, std::move(keys));
}

void
CupaStrategy::OnStateRemoved(StateId id)
{
    auto it = membership_.find(id);
    if (it == membership_.end()) {
        return;
    }
    const std::vector<uint64_t>& keys = it->second;
    // Walk down, decrementing counts and pruning empty classes on the way
    // back up.
    std::vector<ClassNode*> path{&root_};
    ClassNode* node = &root_;
    for (uint64_t key : keys) {
        auto child_it = node->children.find(key);
        CHEF_CHECK(child_it != node->children.end());
        node = child_it->second.get();
        path.push_back(node);
    }
    auto state_it = std::find(node->states.begin(), node->states.end(), id);
    CHEF_CHECK(state_it != node->states.end());
    node->states.erase(state_it);
    for (ClassNode* entry : path) {
        --entry->total_states;
    }
    for (size_t depth = keys.size(); depth > 0; --depth) {
        ClassNode* parent = path[depth - 1];
        if (path[depth]->total_states == 0) {
            parent->children.erase(keys[depth - 1]);
        }
    }
    membership_.erase(it);
}

StateId
CupaStrategy::ClaimState()
{
    CHEF_CHECK(!membership_.empty());
    ClassNode* node = &root_;
    for (const LevelSpec& level : levels_) {
        CHEF_CHECK(!node->children.empty());
        weights_.clear();
        children_.clear();
        for (auto& [key, child] : node->children) {
            double weight = 1.0;
            if (level.class_weight) {
                weight = level.class_weight(key);
            }
            weights_.push_back(weight);
            children_.push_back(child.get());
        }
        node = children_[rng_->PickWeighted(weights_)];
    }
    CHEF_CHECK(!node->states.empty());
    if (!state_weight_) {
        return node->states[rng_->NextBelow(node->states.size())];
    }
    weights_.clear();
    for (StateId id : node->states) {
        const AlternateState* state = tree_->FindPending(id);
        weights_.push_back(state != nullptr ? state_weight_(*state) : 0.0);
    }
    return node->states[rng_->PickWeighted(weights_)];
}

void
RandomStrategy::OnStateAdded(const AlternateState& state)
{
    index_[state.id] = states_.size();
    states_.push_back(state.id);
}

void
RandomStrategy::OnStateRemoved(StateId id)
{
    auto it = index_.find(id);
    if (it == index_.end()) {
        return;
    }
    const size_t pos = it->second;
    const StateId last = states_.back();
    states_[pos] = last;
    index_[last] = pos;
    states_.pop_back();
    index_.erase(it);
}

StateId
RandomStrategy::ClaimState()
{
    CHEF_CHECK(!states_.empty());
    return states_[rng_->NextBelow(states_.size())];
}

void
DfsStrategy::OnStateAdded(const AlternateState& state)
{
    ids_.emplace(state.id, true);
}

void
DfsStrategy::OnStateRemoved(StateId id)
{
    ids_.erase(id);
}

StateId
DfsStrategy::ClaimState()
{
    CHEF_CHECK(!ids_.empty());
    return ids_.rbegin()->first;
}

void
BfsStrategy::OnStateAdded(const AlternateState& state)
{
    ids_.emplace(state.id, true);
}

void
BfsStrategy::OnStateRemoved(StateId id)
{
    ids_.erase(id);
}

StateId
BfsStrategy::ClaimState()
{
    CHEF_CHECK(!ids_.empty());
    return ids_.begin()->first;
}

std::unique_ptr<CupaStrategy>
MakePathOptimizedCupa(lowlevel::ExecutionTree* tree, Rng* rng)
{
    std::vector<CupaStrategy::LevelSpec> levels(2);
    levels[0].classify = [](const AlternateState& state) {
        return state.dynamic_hlpc;
    };
    levels[1].classify = [](const AlternateState& state) {
        return state.llpc;
    };
    return std::make_unique<CupaStrategy>(tree, rng, std::move(levels),
                                          nullptr, "cupa-path");
}

std::unique_ptr<CupaStrategy>
MakeInvertedPathCupa(lowlevel::ExecutionTree* tree, Rng* rng)
{
    std::vector<CupaStrategy::LevelSpec> levels(2);
    levels[0].classify = [](const AlternateState& state) {
        return state.llpc;
    };
    levels[1].classify = [](const AlternateState& state) {
        return state.dynamic_hlpc;
    };
    return std::make_unique<CupaStrategy>(tree, rng, std::move(levels),
                                          nullptr, "cupa-path-inverted");
}

std::unique_ptr<CupaStrategy>
MakeCoverageOptimizedCupa(lowlevel::ExecutionTree* tree, Rng* rng,
                          DistanceWeightFn distance_weight)
{
    std::vector<CupaStrategy::LevelSpec> levels(1);
    levels[0].classify = [](const AlternateState& state) {
        return state.static_hlpc;
    };
    levels[0].class_weight = std::move(distance_weight);
    // Level 2 of §3.4 is "the state itself", weighted by fork weight;
    // realized here as the leaf-level per-state weight.
    return std::make_unique<CupaStrategy>(
        tree, rng, std::move(levels),
        [](const AlternateState& state) { return state.fork_weight; },
        "cupa-coverage");
}

}  // namespace chef::cupa
