/// \file
/// Tests for high-level tracking: the HL execution tree, the dynamic CFG,
/// branching-opcode inference, distance analysis, and a differential
/// check of the tracker against a map-based reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "hll/hl_tracker.h"
#include "support/strings.h"

namespace chef::hll {
namespace {

enum FakeOpcode : uint32_t {
    kOpLoad = 1,
    kOpCmp = 2,
    kOpJumpIf = 3,
    kOpCall = 4,
    kOpRaise = 5,
};

TEST(HlExecutionTree, AdvanceBuildsPrefixTree)
{
    HlExecutionTree tree;
    HlCfg cfg;
    const uint32_t a = tree.Advance(0, 100, cfg);
    const uint32_t b = tree.Advance(a, 101, cfg);
    // Replaying the same sequence reuses nodes.
    EXPECT_EQ(tree.Advance(0, 100, cfg), a);
    EXPECT_EQ(tree.Advance(a, 101, cfg), b);
    // Diverging creates a new node.
    const uint32_t c = tree.Advance(a, 102, cfg);
    EXPECT_NE(c, b);
    EXPECT_EQ(tree.num_nodes(), 4u);  // root + 3.
    EXPECT_EQ(cfg.num_nodes(), 3u);
}

TEST(HlExecutionTree, SameHlpcDifferentContextIsDifferentNode)
{
    // The dynamic HLPC distinguishes occurrences of one static HLPC on
    // different high-level paths (loop unrolling).
    HlExecutionTree tree;
    HlCfg cfg;
    const uint32_t first = tree.Advance(0, 100, cfg);
    const uint32_t second = tree.Advance(first, 100, cfg);
    EXPECT_NE(first, second);
    EXPECT_EQ(tree.hlpc_of(first), tree.hlpc_of(second));
    EXPECT_EQ(tree.cfg_id_of(first), tree.cfg_id_of(second));
}

TEST(HlExecutionTree, TerminalMarksCountNewPathsOnce)
{
    HlExecutionTree tree;
    HlCfg cfg;
    const uint32_t a = tree.Advance(0, 100, cfg);
    EXPECT_TRUE(tree.MarkTerminal(a));
    EXPECT_FALSE(tree.MarkTerminal(a));
    EXPECT_EQ(tree.num_terminal_paths(), 1u);
}

TEST(HlExecutionTree, LargeTreesKeepIdsAndLinksAcrossChunks)
{
    // Tens of thousands of nodes, past several storage chunks: a long
    // chain, then a wide fan-out under one node, then a reset.
    HlExecutionTree tree;
    HlCfg cfg;
    std::vector<uint32_t> chain;
    uint32_t node = 0;
    for (uint64_t i = 0; i < 20'000; ++i) {
        bool created = false;
        node = tree.Advance(node, 1000 + i, cfg, &created);
        EXPECT_TRUE(created);
        EXPECT_EQ(node, i + 1);
        chain.push_back(node);
    }
    const uint32_t hub = chain[5];
    std::vector<uint32_t> fan;
    for (uint64_t i = 0; i < 5'000; ++i) {
        fan.push_back(tree.Advance(hub, 50'000 + i, cfg));
    }
    EXPECT_EQ(tree.num_nodes(), 1u + 20'000 + 5'000);
    // Every node reads back, and replaying reaches the same ids.
    node = 0;
    for (uint64_t i = 0; i < chain.size(); ++i) {
        bool created = true;
        node = tree.Advance(node, 1000 + i, cfg, &created);
        EXPECT_FALSE(created);
        ASSERT_EQ(node, chain[i]);
        EXPECT_EQ(tree.hlpc_of(node), 1000 + i);
        EXPECT_EQ(tree.cfg_id_of(node), i);
    }
    for (uint64_t i = 0; i < fan.size(); i += 499) {
        EXPECT_EQ(tree.Advance(hub, 50'000 + i, cfg), fan[i]);
        EXPECT_EQ(tree.cfg_id_of(fan[i]), 20'000 + i);
    }
    EXPECT_TRUE(tree.MarkTerminal(fan.back()));
    EXPECT_EQ(tree.num_terminal_paths(), 1u);
    tree.Reset();
    cfg.Reset();
    EXPECT_EQ(tree.num_nodes(), 1u);
    EXPECT_EQ(tree.Advance(0, 7, cfg), 1u);
    EXPECT_EQ(tree.hlpc_of(1), 7u);
}

TEST(HlExecutionTree, MatchesMapPrefixTreeOnRandomForkingWalks)
{
    // Seeded random walks against a std::map prefix tree. Each walk
    // replays a random earlier walk to a random depth, then goes on with
    // HLPCs from a small alphabet: it re-finds existing children, extends
    // chains, and adds siblings under nodes in the middle of a chain, as
    // forks do. Each round runs past several chunks, then resets.
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed);
        HlExecutionTree tree;
        HlCfg cfg;
        for (int round = 0; round < 2; ++round) {
            tree.Reset();
            cfg.Reset();
            std::vector<std::map<uint64_t, uint32_t>> children(1);
            std::vector<uint64_t> hlpc_of(1, 0);
            std::vector<bool> terminal(1, false);
            std::map<uint64_t, uint32_t> cfg_ids;
            uint64_t terminals = 0;
            std::vector<std::vector<uint64_t>> walks;
            const size_t alphabet = 4 + rng() % 28;
            while (children.size() < 14'000) {
                std::vector<uint64_t> walk;
                if (!walks.empty()) {
                    const std::vector<uint64_t>& earlier =
                        walks[rng() % walks.size()];
                    walk.assign(earlier.begin(),
                                earlier.begin() +
                                    rng() % (earlier.size() + 1));
                }
                const size_t extra = 1 + rng() % 120;
                for (size_t i = 0; i < extra; ++i) {
                    walk.push_back(1000 + rng() % alphabet);
                }
                uint32_t node = 0;
                uint32_t want = 0;
                for (const uint64_t hlpc : walk) {
                    bool created = false;
                    node = tree.Advance(node, hlpc, cfg, &created);
                    auto [it, fresh] = children[want].try_emplace(
                        hlpc, static_cast<uint32_t>(children.size()));
                    if (fresh) {
                        children.emplace_back();
                        hlpc_of.push_back(hlpc);
                        terminal.push_back(false);
                        cfg_ids.try_emplace(
                            hlpc, static_cast<uint32_t>(cfg_ids.size()));
                    }
                    want = it->second;
                    ASSERT_EQ(node, want) << "seed " << seed;
                    ASSERT_EQ(created, fresh) << "seed " << seed;
                    // Now and then a run ends in the middle of the walk.
                    if (rng() % 64 == 0) {
                        EXPECT_EQ(tree.MarkTerminal(node), !terminal[node]);
                        terminals += !terminal[node];
                        terminal[node] = true;
                    }
                }
                EXPECT_EQ(tree.MarkTerminal(node), !terminal[node]);
                terminals += !terminal[node];
                terminal[node] = true;
                walks.push_back(std::move(walk));
            }
            ASSERT_EQ(tree.num_nodes(), children.size());
            EXPECT_EQ(tree.num_terminal_paths(), terminals);
            EXPECT_EQ(tree.hlpc_of(0), 0u);
            EXPECT_EQ(tree.cfg_id_of(0), kNoId);
            for (uint32_t node = 1; node < children.size(); ++node) {
                ASSERT_EQ(tree.hlpc_of(node), hlpc_of[node]) << node;
                ASSERT_EQ(tree.cfg_id_of(node), cfg_ids.at(hlpc_of[node]))
                    << node;
                // Every child is found again under its parent.
                for (const auto& [hlpc, child] : children[node]) {
                    bool created = true;
                    ASSERT_EQ(tree.Advance(node, hlpc, cfg, &created), child);
                    ASSERT_FALSE(created);
                }
                // A second terminal mark never counts again.
                EXPECT_EQ(tree.MarkTerminal(node), !terminal[node]);
                terminals += !terminal[node];
                terminal[node] = true;
            }
            EXPECT_EQ(tree.num_nodes(), children.size());
            EXPECT_EQ(tree.num_terminal_paths(), terminals);
        }
        tree.Reset();
        EXPECT_EQ(tree.num_nodes(), 1u);
        EXPECT_EQ(tree.num_terminal_paths(), 0u);
    }
}

TEST(HlCfg, BranchingOpcodeInference)
{
    HlCfg cfg;
    // Instruction 10 (kOpJumpIf) has two successors; instruction 20
    // (kOpLoad) has one.
    for (int i = 0; i < 10; ++i) {
        cfg.RecordNode(10, kOpJumpIf);
        cfg.RecordNode(20, kOpLoad);
    }
    cfg.RecordEdge(10, 20);
    cfg.RecordEdge(10, 30);
    cfg.RecordEdge(20, 10);
    cfg.RecomputeAnalysis();
    EXPECT_TRUE(cfg.IsBranchingOpcode(kOpJumpIf));
    EXPECT_FALSE(cfg.IsBranchingOpcode(kOpLoad));
}

TEST(HlCfg, RareOpcodesAreDropped)
{
    HlCfg cfg;
    // kOpJumpIf branches frequently; kOpRaise branches once (a rare
    // exception edge). With the 10% cutoff the rare opcode is eliminated.
    for (int site = 0; site < 20; ++site) {
        const uint64_t hlpc = 100 + site;
        for (int n = 0; n < 10; ++n) {
            cfg.RecordNode(hlpc, kOpJumpIf);
        }
        cfg.RecordEdge(hlpc, 1000 + site);
        cfg.RecordEdge(hlpc, 2000 + site);
    }
    cfg.RecordNode(999, kOpRaise);
    cfg.RecordEdge(999, 1);  // Two successors: 999 branches, but rarely.
    cfg.RecordEdge(999, 2);
    cfg.RecomputeAnalysis(0.10);
    EXPECT_TRUE(cfg.IsBranchingOpcode(kOpJumpIf));
    EXPECT_FALSE(cfg.IsBranchingOpcode(kOpRaise));
}

TEST(HlCfg, PotentialBranchPointsHaveOneSuccessor)
{
    HlCfg cfg;
    // Site 10 branches (2 successors); site 11 has the same opcode but
    // only one successor observed -> potential branching point.
    for (int n = 0; n < 5; ++n) {
        cfg.RecordNode(10, kOpJumpIf);
        cfg.RecordNode(11, kOpJumpIf);
        cfg.RecordNode(12, kOpLoad);
    }
    cfg.RecordEdge(10, 11);
    cfg.RecordEdge(10, 12);
    cfg.RecordEdge(11, 12);
    cfg.RecomputeAnalysis();
    EXPECT_FALSE(cfg.IsPotentialBranchPoint(10));
    EXPECT_TRUE(cfg.IsPotentialBranchPoint(11));
    EXPECT_FALSE(cfg.IsPotentialBranchPoint(12));
}

TEST(HlCfg, DistanceAnalysis)
{
    HlCfg cfg;
    // Chain 1 -> 2 -> 3 -> 4 where 4 is a potential branching point, plus
    // the branching site 0 with successors 1 and 5 establishing kOpJumpIf
    // as a branching opcode.
    for (int n = 0; n < 5; ++n) {
        cfg.RecordNode(0, kOpJumpIf);
        cfg.RecordNode(1, kOpLoad);
        cfg.RecordNode(2, kOpLoad);
        cfg.RecordNode(3, kOpLoad);
        cfg.RecordNode(4, kOpJumpIf);
        cfg.RecordNode(5, kOpLoad);
    }
    cfg.RecordEdge(0, 1);
    cfg.RecordEdge(0, 5);
    cfg.RecordEdge(1, 2);
    cfg.RecordEdge(2, 3);
    cfg.RecordEdge(3, 4);
    cfg.RecordEdge(4, 5);  // Only one successor: 4 is potential.
    cfg.RecomputeAnalysis();
    ASSERT_TRUE(cfg.IsPotentialBranchPoint(4));
    EXPECT_EQ(cfg.DistanceToBranchPoint(4), 0u);
    EXPECT_EQ(cfg.DistanceToBranchPoint(3), 1u);
    EXPECT_EQ(cfg.DistanceToBranchPoint(2), 2u);
    EXPECT_EQ(cfg.DistanceToBranchPoint(1), 3u);
    EXPECT_DOUBLE_EQ(cfg.DistanceWeight(4), 1.0);
    EXPECT_DOUBLE_EQ(cfg.DistanceWeight(3), 0.5);
    // Unreachable nodes get a small residual weight.
    EXPECT_LT(cfg.DistanceWeight(5), 0.01);
}

TEST(HlpcTracker, TracksDynamicPositionIntoRuntime)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime runtime(&tree, &solver, {});
    HlpcTracker tracker;
    tracker.Attach(&runtime);
    tracker.Reset();

    runtime.BeginRun(solver::Assignment());
    tracker.BeginRun();
    runtime.LogPc(100, kOpLoad);
    runtime.LogPc(101, kOpCmp);

    // A symbolic branch after the second instruction snapshots HL state.
    lowlevel::SymValue x = runtime.MakeSymbolicValue("x", 8, 5);
    runtime.Branch(SvUgt(x, lowlevel::SymValue(10, 8)), 777);
    ASSERT_EQ(tree.pending().size(), 1u);
    const auto& state = tree.pending().begin()->second;
    EXPECT_EQ(state.static_hlpc, 101u);
    EXPECT_EQ(state.hl_opcode, static_cast<uint32_t>(kOpCmp));
    EXPECT_NE(state.dynamic_hlpc, 0u);

    const HlPathInfo info = tracker.EndRun();
    EXPECT_TRUE(info.is_new_path);
    EXPECT_EQ(info.length, 2u);
}

TEST(HlpcTracker, DistinguishesHlPaths)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime runtime(&tree, &solver, {});
    HlpcTracker tracker;
    tracker.Attach(&runtime);
    tracker.Reset();

    // Run 1: 100 -> 101.
    runtime.BeginRun(solver::Assignment());
    tracker.BeginRun();
    runtime.LogPc(100, kOpLoad);
    runtime.LogPc(101, kOpLoad);
    EXPECT_TRUE(tracker.EndRun().is_new_path);

    // Run 2 identical: not a new path.
    runtime.BeginRun(solver::Assignment());
    tracker.BeginRun();
    runtime.LogPc(100, kOpLoad);
    runtime.LogPc(101, kOpLoad);
    EXPECT_FALSE(tracker.EndRun().is_new_path);

    // Run 3 diverges: new path.
    runtime.BeginRun(solver::Assignment());
    tracker.BeginRun();
    runtime.LogPc(100, kOpLoad);
    runtime.LogPc(102, kOpLoad);
    EXPECT_TRUE(tracker.EndRun().is_new_path);

    // Run 4 is a strict prefix: it ends at an interior node that was never
    // terminal, so it is also a distinct high-level path.
    runtime.BeginRun(solver::Assignment());
    tracker.BeginRun();
    runtime.LogPc(100, kOpLoad);
    EXPECT_TRUE(tracker.EndRun().is_new_path);
}

TEST(HlpcTracker, PathHashIsTheFnvHashOfTheTrace)
{
    // A trace that revisits HLPCs, so later runs replay known nodes and
    // create nodes under parents whose CFG successors are known.
    const std::vector<uint64_t> trace = {7,  0x1234567890abcdefull, 7, 8,
                                         7,  8, 9, 0xffffffffffffffffull,
                                         7};
    for (const bool keep_trace : {false, true}) {
        HlpcTracker tracker;
        tracker.set_keep_trace(keep_trace);
        tracker.Reset();
        for (size_t start = 0; start < 3; ++start) {
            tracker.BeginRun();
            HlPathInfo info = tracker.EndRun();
            EXPECT_EQ(info.path_hash, FnvHash(nullptr, 0));
            EXPECT_EQ(info.length, 0u);
            EXPECT_EQ(tracker.last_hlpc(), 0u);
            // EndRun reads the run so far: check it at every prefix.
            for (size_t i = start; i < trace.size(); ++i) {
                tracker.OnLogPc(trace[i], kOpLoad);
                info = tracker.EndRun();
                const std::vector<uint64_t> prefix(
                    trace.begin() + static_cast<std::ptrdiff_t>(start),
                    trace.begin() + static_cast<std::ptrdiff_t>(i + 1));
                ASSERT_EQ(info.path_hash,
                          FnvHash(prefix.data(),
                                  prefix.size() * sizeof(uint64_t)))
                    << "start " << start << " end " << i;
                EXPECT_EQ(info.length, prefix.size());
                EXPECT_EQ(tracker.last_hlpc(), trace[i]);
                EXPECT_EQ(tracker.current_trace(),
                          keep_trace ? prefix : std::vector<uint64_t>());
            }
        }
    }
}

TEST(HlpcTracker, LongRunKeepsNoTraceUnlessAsked)
{
    // A hang-sized run: half a million events around a 7-instruction loop.
    constexpr size_t kEvents = 500'000;
    std::vector<uint64_t> trace(kEvents);
    for (size_t i = 0; i < kEvents; ++i) {
        trace[i] = 100 + i % 7;
    }
    const uint64_t want_hash =
        FnvHash(trace.data(), trace.size() * sizeof(uint64_t));
    for (const bool keep_trace : {false, true}) {
        HlpcTracker tracker;
        tracker.set_keep_trace(keep_trace);
        tracker.Reset();
        tracker.BeginRun();
        for (const uint64_t hlpc : trace) {
            tracker.OnLogPc(hlpc, kOpLoad);
        }
        if (keep_trace) {
            EXPECT_EQ(tracker.current_trace(), trace);
        } else {
            EXPECT_TRUE(tracker.current_trace().empty());
            EXPECT_EQ(tracker.current_trace().capacity(), 0u);
        }
        EXPECT_EQ(tracker.last_hlpc(), trace.back());
        const HlPathInfo info = tracker.EndRun();
        EXPECT_EQ(info.length, kEvents);
        EXPECT_EQ(info.path_hash, want_hash);
        EXPECT_EQ(tracker.tree().num_nodes(), kEvents + 1);
        EXPECT_EQ(tracker.cfg().num_nodes(), 7u);
    }
}

TEST(HlpcTracker, NodesTakeTheIdsInternReturns)
{
    // Random walks over a small program: most new nodes find their HLPC
    // among the parent's CFG successors and skip interning. Each must
    // carry the id Intern gives that HLPC.
    std::mt19937_64 rng(3);
    std::vector<uint64_t> hlpcs(24);
    for (uint64_t& hlpc : hlpcs) {
        hlpc = rng();
    }
    HlpcTracker tracker;
    tracker.Reset();
    for (int run = 0; run < 300; ++run) {
        tracker.BeginRun();
        size_t site = 0;
        for (int step = 0; step < 40; ++step) {
            tracker.OnLogPc(hlpcs[site], kOpLoad);
            site = (site + 1 + rng() % 3) % hlpcs.size();
        }
        tracker.EndRun();
    }
    const HlExecutionTree& tree = tracker.tree();
    ASSERT_GT(tree.num_nodes(), 10 * hlpcs.size());
    const size_t interned = tracker.cfg().num_nodes();
    EXPECT_EQ(interned, hlpcs.size());
    for (uint32_t node = 1; node < tree.num_nodes(); ++node) {
        ASSERT_EQ(tracker.cfg().Intern(tree.hlpc_of(node)),
                  tree.cfg_id_of(node))
            << "node " << node;
    }
    EXPECT_EQ(tracker.cfg().num_nodes(), interned);
}

/// The straightforward map-based tracker: a per-node map of children, and
/// every log_pc event records its node and the edge from the previous
/// HLPC in hlpc-keyed maps. The reference for the differential test.
class ReferenceTracker
{
  public:
    ReferenceTracker() : nodes_(1) {}

    void BeginRun()
    {
        node_ = 0;
        has_last_ = false;
        trace_.clear();
    }

    uint32_t OnLogPc(uint64_t hlpc, uint32_t opcode)
    {
        auto it = nodes_[node_].children.find(hlpc);
        if (it != nodes_[node_].children.end()) {
            node_ = it->second;
        } else {
            const uint32_t child = static_cast<uint32_t>(nodes_.size());
            nodes_[node_].children.emplace(hlpc, child);
            nodes_.emplace_back();
            node_ = child;
        }
        CfgInfo& info = cfg_[hlpc];
        info.opcode = opcode;
        ++info.exec_count;
        if (has_last_) {
            cfg_[last_hlpc_].successors.insert(hlpc);
            cfg_[hlpc].predecessors.insert(last_hlpc_);
        }
        last_hlpc_ = hlpc;
        has_last_ = true;
        trace_.push_back(hlpc);
        return node_;
    }

    HlPathInfo EndRun()
    {
        HlPathInfo info;
        info.final_node = node_;
        info.length = trace_.size();
        info.is_new_path = !nodes_[node_].terminal;
        nodes_[node_].terminal = true;
        info.path_hash =
            FnvHash(trace_.data(), trace_.size() * sizeof(uint64_t));
        return info;
    }

    void RecomputeAnalysis(double drop_fraction)
    {
        branching_opcodes_.clear();
        distance_.clear();
        std::map<uint32_t, uint64_t> opcode_counts;
        for (const auto& [hlpc, info] : cfg_) {
            if (info.successors.size() >= 2) {
                opcode_counts[info.opcode] += info.exec_count;
            }
        }
        uint64_t total = 0;
        std::vector<std::pair<uint64_t, uint32_t>> by_count;
        for (const auto& [opcode, count] : opcode_counts) {
            total += count;
            by_count.push_back({count, opcode});
        }
        std::sort(by_count.begin(), by_count.end());
        uint64_t dropped = 0;
        for (const auto& [count, opcode] : by_count) {
            if (total > 0 &&
                static_cast<double>(dropped + count) <=
                    drop_fraction * static_cast<double>(total)) {
                dropped += count;
                continue;
            }
            branching_opcodes_.insert(opcode);
        }
        std::deque<uint64_t> queue;
        for (const auto& [hlpc, info] : cfg_) {
            if (info.successors.size() == 1 &&
                branching_opcodes_.count(info.opcode)) {
                distance_[hlpc] = 0;
                queue.push_back(hlpc);
            }
        }
        while (!queue.empty()) {
            const uint64_t hlpc = queue.front();
            queue.pop_front();
            for (uint64_t pred : cfg_[hlpc].predecessors) {
                if (!distance_.count(pred)) {
                    distance_[pred] = distance_[hlpc] + 1;
                    queue.push_back(pred);
                }
            }
        }
    }

    bool IsBranchingOpcode(uint32_t opcode) const
    {
        return branching_opcodes_.count(opcode) > 0;
    }
    uint32_t DistanceToBranchPoint(uint64_t hlpc) const
    {
        auto it = distance_.find(hlpc);
        return it == distance_.end() ? UINT32_MAX : it->second;
    }

    size_t num_nodes() const { return nodes_.size(); }
    size_t num_cfg_nodes() const { return cfg_.size(); }

  private:
    struct Node {
        std::map<uint64_t, uint32_t> children;
        bool terminal = false;
    };
    struct CfgInfo {
        uint32_t opcode = 0;
        uint64_t exec_count = 0;
        std::set<uint64_t> successors;
        std::set<uint64_t> predecessors;
    };

    std::vector<Node> nodes_;
    uint32_t node_ = 0;
    uint64_t last_hlpc_ = 0;
    bool has_last_ = false;
    std::vector<uint64_t> trace_;
    std::map<uint64_t, CfgInfo> cfg_;
    std::set<uint32_t> branching_opcodes_;
    std::map<uint64_t, uint32_t> distance_;
};

TEST(HlpcTracker, MatchesMapBasedReferenceOnRandomStreams)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        // A random guest program: static instructions with scattered
        // HLPCs, a few opcodes and one to three successors each, so walks
        // repeat HLPCs and run around loops.
        const size_t num_sites = 8 + rng() % 40;
        std::vector<uint64_t> hlpcs(num_sites);
        std::vector<uint32_t> opcodes(num_sites);
        std::vector<std::vector<size_t>> successors(num_sites);
        for (size_t i = 0; i < num_sites; ++i) {
            hlpcs[i] = rng();
            opcodes[i] = static_cast<uint32_t>(1 + rng() % 6);
            const size_t fanout = 1 + rng() % 3;
            for (size_t k = 0; k < fanout; ++k) {
                successors[i].push_back(rng() % num_sites);
            }
        }

        HlpcTracker tracker;
        tracker.Reset();
        ReferenceTracker reference;
        std::set<uint64_t> seen;
        for (int run = 0; run < 400; ++run) {
            tracker.BeginRun();
            reference.BeginRun();
            size_t site = rng() % 3;
            const size_t length = rng() % 60;
            for (size_t step = 0; step < length; ++step) {
                // A rare opcode change at a site: the last one recorded
                // wins in both implementations.
                if (rng() % 500 == 0) {
                    opcodes[site] = static_cast<uint32_t>(1 + rng() % 6);
                }
                tracker.OnLogPc(hlpcs[site], opcodes[site]);
                ASSERT_EQ(tracker.current_node(),
                          reference.OnLogPc(hlpcs[site], opcodes[site]))
                    << "seed " << seed << " run " << run;
                seen.insert(hlpcs[site]);
                site = successors[site][rng() % successors[site].size()];
            }
            const HlPathInfo got = tracker.EndRun();
            const HlPathInfo want = reference.EndRun();
            ASSERT_EQ(got.final_node, want.final_node);
            ASSERT_EQ(got.length, want.length);
            ASSERT_EQ(got.is_new_path, want.is_new_path);
            ASSERT_EQ(got.path_hash, want.path_hash);

            if (run % 50 != 49) {
                continue;
            }
            const double drop_fraction = (run / 50) % 3 * 0.15;
            tracker.cfg().RecomputeAnalysis(drop_fraction);
            reference.RecomputeAnalysis(drop_fraction);
            ASSERT_EQ(tracker.tree().num_nodes(), reference.num_nodes());
            ASSERT_EQ(tracker.cfg().num_nodes(), reference.num_cfg_nodes());
            for (uint32_t opcode = 0; opcode <= 7; ++opcode) {
                EXPECT_EQ(tracker.cfg().IsBranchingOpcode(opcode),
                          reference.IsBranchingOpcode(opcode));
            }
            size_t potential = 0;
            for (uint64_t hlpc : seen) {
                const uint32_t d = reference.DistanceToBranchPoint(hlpc);
                potential += d == 0;
                EXPECT_EQ(tracker.cfg().IsPotentialBranchPoint(hlpc), d == 0);
                EXPECT_EQ(tracker.cfg().DistanceToBranchPoint(hlpc), d)
                    << "seed " << seed << " run " << run;
            }
            EXPECT_EQ(tracker.cfg().num_potential_branch_points(), potential);
        }
    }
}

TEST(HlCfg, UnknownHlpcHasNoDistance)
{
    HlCfg cfg;
    cfg.RecordNode(10, kOpJumpIf);
    cfg.RecordEdge(10, 11);
    cfg.RecomputeAnalysis();
    // Interned after the analysis ran: not covered until the next one.
    cfg.RecordNode(12, kOpLoad);
    EXPECT_EQ(cfg.DistanceToBranchPoint(12), UINT32_MAX);
    EXPECT_EQ(cfg.DistanceToBranchPoint(99), UINT32_MAX);
    EXPECT_FALSE(cfg.IsPotentialBranchPoint(99));
}

// CHEF_LLPC and its two run-time forms, expanded at one site so they see
// the same __FILE__ and __LINE__.
#define LLPC_FORMS                                                       \
    {CHEF_LLPC, lowlevel::LlpcFromLocation(__FILE__, __LINE__),          \
     HashCombine(FnvHash(__FILE__, std::strlen(__FILE__)), __LINE__)}

TEST(Llpc, SiteConstantMatchesRuntimeHash)
{
    const uint64_t forms[3] = LLPC_FORMS;
    EXPECT_EQ(forms[0], forms[1]);
    EXPECT_EQ(forms[0], forms[2]);
}

}  // namespace
}  // namespace chef::hll
