#ifndef CHEF_TESTS_FORK_SITES_H_
#define CHEF_TESTS_FORK_SITES_H_

/// \file
/// The fork-site pattern of one guest run, shared by the interpreter
/// tests that pin where a guest forks.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chef/engine.h"

namespace chef::checks {

/// The LLPCs of the alternates that one run of \p run_fn with the default
/// inputs registers, in order, each relabeled by the order of its site's
/// first appearance (0, 1, ...): the fork pattern without the site
/// hashes, which move with source lines.
inline std::vector<int>
ForkSitePattern(const Engine::RunFn& run_fn)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime rt(&tree, &solver, {});
    std::vector<uint64_t> sites;
    std::vector<int> pattern;
    tree.set_on_state_added([&](const lowlevel::AlternateState& state) {
        const auto it = std::find(sites.begin(), sites.end(), state.llpc);
        pattern.push_back(static_cast<int>(it - sites.begin()));
        if (it == sites.end()) {
            sites.push_back(state.llpc);
        }
    });
    rt.BeginRun(solver::Assignment());
    run_fn(rt);
    return pattern;
}

}  // namespace chef::checks

#endif  // CHEF_TESTS_FORK_SITES_H_
