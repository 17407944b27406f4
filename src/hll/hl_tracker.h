#ifndef CHEF_HLL_HL_TRACKER_H_
#define CHEF_HLL_HL_TRACKER_H_

/// \file
/// High-level program tracking (§3.1, Figure 3 of the paper).
///
/// The interpreter's dispatch loop reports (HLPC, opcode) pairs through
/// log_pc. From the stream of reports, CHEF reconstructs:
///  - the *high-level execution tree*: the unfolded prefix tree of HLPC
///    sequences; a node is a "dynamic HLPC", the occurrence of a static
///    HLPC along a particular high-level path;
///  - the *high-level CFG*, discovered dynamically: static HLPCs with the
///    set of observed successors and execution counts;
///  - the branching-opcode inference and distance-to-potential-branching-
///    point analysis used by coverage-optimized CUPA (§3.4).
///
/// Layout. Both structures are indexed by dense ids:
///  - tree nodes are stored in creation order, in fixed-size chunks. The
///    node id is the dynamic HLPC stamped into alternate states, so ids
///    never move. A node is 4 bytes: its HLPC's CFG id (the tree keeps one
///    HLPC per CFG id, not one per node) and three flags: a run ended
///    there, its first child is the next id, and it has side links. Most
///    nodes need no more: a new path creates each node right after its
///    parent, so a chain's links are implied by the ids. A node that forks
///    (its first child is not the next id, or it has a next sibling) keeps
///    both links in a side table, open-addressed in one array, so an entry
///    costs no allocation of its own. Children are listed in creation
///    order;
///  - the CFG interns a static HLPC to a dense id the first time a tree
///    node with that HLPC is created, and keeps opcode, execution count
///    and successor / predecessor id lists in a vector indexed by it. A
///    new node under a parent whose CFG successors already include its
///    HLPC takes that successor's id without an interning lookup.
///
/// A run's path hash is not stored in the tree: every run starts at the
/// root, so the tracker extends the run's FNV state by each HLPC as it is
/// reported (FNV over a concatenation is FNV over the suffix seeded with
/// the prefix's hash). Nor does the tracker keep the run's HLPC trace,
/// only its length and last HLPC, unless asked to (set_keep_trace) for a
/// per-step consumer such as the attribution profiler: a hang run is
/// hundreds of thousands of events long.
///
/// Edges are recorded only when a tree node is new. A log_pc event that
/// moves from node p to an existing child c repeats the transfer
/// (hlpc_of(p), hlpc_of(c)), and that edge was recorded when c was
/// created. Recording it on creation alone therefore yields the same
/// successor and predecessor sets, and an event on a known path costs one
/// child probe, a counter increment, an opcode store and an 8-byte FNV
/// step.

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lowlevel/runtime.h"

namespace chef::hll {

/// Id meaning "no node" in the tree's links and "not interned" for CFG ids.
inline constexpr uint32_t kNoId = UINT32_MAX;

class HlCfg;

/// Prefix tree over HLPC sequences. Node ids are dense indices in creation
/// order; node 0 is the root (before the first high-level instruction).
class HlExecutionTree
{
  public:
    HlExecutionTree();

    void Reset();

    /// Returns the child of \p node labeled \p hlpc, creating it if absent;
    /// \p created (if given) reports whether it was created. A new child
    /// takes its static HLPC's id from \p node's CFG successors when one
    /// of them is \p hlpc, else from \p cfg.Intern(hlpc); both give the
    /// same id.
    uint32_t Advance(uint32_t node, uint64_t hlpc, HlCfg& cfg,
                     bool* created = nullptr);

    /// Marks that a run ended at \p node; returns true if this is the first
    /// run to end exactly there (i.e., the run covered a new high-level
    /// path).
    bool MarkTerminal(uint32_t node);

    /// The static HLPC of \p node; 0 for the root.
    uint64_t hlpc_of(uint32_t node) const
    {
        const uint32_t id = cfg_id_of(node);
        return id == kNoId ? 0 : hlpcs_[id];
    }
    size_t num_nodes() const { return num_nodes_; }
    uint64_t num_terminal_paths() const { return num_terminals_; }

    /// The CFG id of \p node's HLPC; kNoId for the root.
    uint32_t cfg_id_of(uint32_t node) const
    {
        const uint32_t id = At(node).bits & kCfgIdMask;
        return id == kRootCfgId ? kNoId : id;
    }

  private:
    /// Node::bits: the flags in the top three bits, the CFG id below.
    /// A run ended at the node.
    static constexpr uint32_t kTerminalBit = 1u << 31;
    /// The node's first child is node + 1 (read only without kLinkedBit).
    static constexpr uint32_t kChainBit = 1u << 30;
    /// The node's links are in the side table.
    static constexpr uint32_t kLinkedBit = 1u << 29;
    static constexpr uint32_t kCfgIdMask = kLinkedBit - 1;
    /// The root's CFG id bits (it has no HLPC); cfg_id_of reads kNoId.
    static constexpr uint32_t kRootCfgId = kCfgIdMask;

    struct Node {
        /// The CFG id of the node's HLPC (kRootCfgId for the root) and the
        /// flags.
        uint32_t bits = kRootCfgId;
    };
    // A session can reach a million nodes: the HLPC lives once per CFG id
    // in hlpcs_, the path hash in the tracker and the links of the few
    // forking nodes in links_, not in every node.
    static_assert(sizeof(Node) == 4, "HL tree nodes stay 4 bytes");

    /// A side-table entry: the links of a node with kLinkedBit.
    struct Links {
        uint32_t node = kNoId;  ///< kNoId marks a free slot.
        uint32_t first_child = kNoId;
        uint32_t next_sibling = kNoId;
    };

    /// Nodes live in chunks of kChunkSize, so the tree grows without
    /// copying itself: one vector would copy every node on each doubling
    /// (a session can reach hundreds of thousands of nodes) and hold the
    /// old and the new buffer at once. The first chunk grows like a vector, so a small
    /// tree costs what it did; later chunks reserve their full size up
    /// front and never move.
    static constexpr uint32_t kChunkBits = 12;
    static constexpr uint32_t kChunkSize = 1u << kChunkBits;

    Node& At(uint32_t node)
    {
        return chunks_[node >> kChunkBits][node & (kChunkSize - 1)];
    }
    const Node& At(uint32_t node) const
    {
        return chunks_[node >> kChunkBits][node & (kChunkSize - 1)];
    }
    /// Appends a node with CFG id \p cfg_id; returns its id.
    uint32_t Append(uint32_t cfg_id);

    uint32_t FirstChild(uint32_t node) const
    {
        const uint32_t bits = At(node).bits;
        if (bits & kLinkedBit) {
            return FindLinks(node).first_child;
        }
        return (bits & kChainBit) ? node + 1 : kNoId;
    }
    uint32_t NextSibling(uint32_t node) const
    {
        return (At(node).bits & kLinkedBit) ? FindLinks(node).next_sibling
                                            : kNoId;
    }
    /// The side-table slot of \p node's links, or the free slot they
    /// would take.
    size_t ProbeLinks(uint32_t node) const;
    /// The links of \p node, which has kLinkedBit.
    const Links& FindLinks(uint32_t node) const
    {
        return links_[ProbeLinks(node)];
    }
    /// The links of \p node, moved into the side table (and kLinkedBit
    /// set) on first use. The reference lasts until the next call.
    Links& LinksOf(uint32_t node);

    std::vector<std::vector<Node>> chunks_;
    /// The static HLPC of each CFG id a node carries.
    std::vector<uint64_t> hlpcs_;
    /// Open addressing with linear probing over a power-of-two array, at
    /// most half full.
    std::vector<Links> links_;
    uint32_t num_links_ = 0;
    uint32_t num_nodes_ = 0;
    uint64_t num_terminals_ = 0;
};

/// Dynamically discovered high-level control-flow graph. Static HLPCs are
/// interned to dense ids; the hlpc-keyed calls intern on the fly, the
/// id-keyed ones serve the tracker's per-event path.
class HlCfg
{
  public:
    void Reset();

    /// Returns the dense id of \p hlpc, assigning the next free one on
    /// first sight.
    uint32_t Intern(uint64_t hlpc);

    /// Records execution of the instruction at \p hlpc with \p opcode.
    void RecordNode(uint64_t hlpc, uint32_t opcode)
    {
        RecordNodeById(Intern(hlpc), opcode);
    }
    /// RecordNode for an id returned by Intern().
    void RecordNodeById(uint32_t id, uint32_t opcode)
    {
        NodeInfo& info = nodes_[id];
        info.opcode = opcode;
        ++info.exec_count;
    }

    /// Records an observed control transfer between consecutive HLPCs.
    void RecordEdge(uint64_t from, uint64_t to)
    {
        const uint32_t from_id = Intern(from);
        RecordEdgeById(from_id, Intern(to));
    }
    /// RecordEdge for ids returned by Intern().
    void RecordEdgeById(uint32_t from, uint32_t to);

    /// Re-runs the branching-opcode inference and the distance analysis.
    /// \p drop_fraction is the paper's cutoff eliminating the least
    /// frequent candidate opcodes (10% by default).
    void RecomputeAnalysis(double drop_fraction = 0.10);

    /// True if \p opcode was inferred to be a branching opcode.
    bool IsBranchingOpcode(uint32_t opcode) const;

    /// True if the instruction is a potential branching point: it has a
    /// branching opcode but only one observed successor.
    bool IsPotentialBranchPoint(uint64_t hlpc) const
    {
        return DistanceToBranchPoint(hlpc) == 0;
    }

    /// Distance in CFG hops from \p hlpc to the nearest potential branching
    /// point; UINT32_MAX if none is reachable.
    uint32_t DistanceToBranchPoint(uint64_t hlpc) const;

    /// The paper's class weight for a static HLPC: 1/d with d the distance
    /// (capped below by 1 so potential branch points themselves weigh 1.0).
    double DistanceWeight(uint64_t hlpc) const;

    /// The ids observed to follow \p id, in first-seen order.
    const std::vector<uint32_t>& successors(uint32_t id) const
    {
        return nodes_[id].successors;
    }

    size_t num_nodes() const { return nodes_.size(); }
    size_t num_potential_branch_points() const { return num_potential_; }

  private:
    struct NodeInfo {
        uint32_t opcode = 0;
        uint64_t exec_count = 0;
        std::vector<uint32_t> successors;
        std::vector<uint32_t> predecessors;
    };

    std::unordered_map<uint64_t, uint32_t> ids_;
    std::vector<NodeInfo> nodes_;
    std::unordered_set<uint32_t> branching_opcodes_;
    /// Per id, as of the last RecomputeAnalysis: hops to the nearest
    /// potential branching point (0 for the points themselves), UINT32_MAX
    /// if none. Ids interned since then are not covered.
    std::vector<uint32_t> distance_;
    size_t num_potential_ = 0;
};

/// Per-run summary produced by the tracker.
struct HlPathInfo {
    uint32_t final_node = 0;      ///< Dynamic HLPC where the run ended.
    size_t length = 0;            ///< Number of high-level instructions.
    bool is_new_path = false;     ///< First run to end at final_node.
    /// FNV hash of the run's static-HLPC trace. Stable across sessions
    /// (unlike final_node, which is an index into this session's dynamic
    /// tree), so parallel sessions over the same guest can compare and
    /// deduplicate high-level paths by it.
    uint64_t path_hash = 0;
};

/// Consumes log_pc events from the low-level runtime and maintains the
/// high-level structures. Install with Attach().
class HlpcTracker
{
  public:
    HlpcTracker();

    /// Wires this tracker into the runtime's log_pc hook.
    void Attach(lowlevel::LowLevelRuntime* runtime);

    /// Clears all high-level state (new symbolic test session).
    void Reset();

    /// Begins a run (rewinds the dynamic position to the tree root).
    void BeginRun();

    /// Finishes the run and reports on the high-level path covered.
    HlPathInfo EndRun();

    /// The log_pc event handler.
    void OnLogPc(uint64_t hlpc, uint32_t opcode);

    const HlExecutionTree& tree() const { return tree_; }
    /// Mutable for RecomputeAnalysis. Clear the CFG only through Reset():
    /// the tree caches CFG ids and relies on edges recorded at node
    /// creation.
    HlCfg& cfg() { return cfg_; }
    const HlCfg& cfg() const { return cfg_; }

    /// Current dynamic HLPC (execution tree node of the last log_pc).
    uint32_t current_node() const { return current_node_; }

    /// Whether runs keep their full HLPC trace (current_trace()); off by
    /// default. Survives Reset().
    void set_keep_trace(bool keep) { keep_trace_ = keep; }

    /// The static HLPCs reported so far in the current run; empty unless
    /// set_keep_trace(true).
    const std::vector<uint64_t>& current_trace() const { return trace_; }

    /// The last static HLPC reported in the current run; 0 before the
    /// first.
    uint64_t last_hlpc() const { return last_hlpc_; }

  private:
    lowlevel::LowLevelRuntime* runtime_ = nullptr;
    HlExecutionTree tree_;
    HlCfg cfg_;
    uint32_t current_node_ = 0;
    /// The current run: its length, last HLPC and FnvHash of its HLPCs
    /// (as the bytes of a uint64_t array).
    size_t length_ = 0;
    uint64_t last_hlpc_ = 0;
    uint64_t path_hash_ = 0;
    bool keep_trace_ = false;
    std::vector<uint64_t> trace_;
};

}  // namespace chef::hll

#endif  // CHEF_HLL_HL_TRACKER_H_
