#include "hll/hl_tracker.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace chef::hll {

HlExecutionTree::HlExecutionTree()
{
    Reset();
}

void
HlExecutionTree::Reset()
{
    chunks_.clear();
    hlpcs_.clear();
    links_.clear();
    num_links_ = 0;
    num_nodes_ = 0;
    Append(kRootCfgId);
    num_terminals_ = 0;
}

uint32_t
HlExecutionTree::Append(uint32_t cfg_id)
{
    if (chunks_.empty() || chunks_.back().size() == kChunkSize) {
        chunks_.emplace_back();
        if (chunks_.size() > 1) {
            chunks_.back().reserve(kChunkSize);
        }
    }
    chunks_.back().push_back(Node{cfg_id});
    return num_nodes_++;
}

size_t
HlExecutionTree::ProbeLinks(uint32_t node) const
{
    const size_t mask = links_.size() - 1;
    size_t slot = static_cast<size_t>((node * 0x9e3779b97f4a7c15ull) >> 32) &
                  mask;
    while (links_[slot].node != node && links_[slot].node != kNoId) {
        slot = (slot + 1) & mask;
    }
    return slot;
}

HlExecutionTree::Links&
HlExecutionTree::LinksOf(uint32_t node)
{
    Node& entry = At(node);
    if (entry.bits & kLinkedBit) {
        return links_[ProbeLinks(node)];
    }
    if (2 * (num_links_ + 1) > links_.size()) {
        std::vector<Links> old(std::max<size_t>(16, 2 * links_.size()));
        old.swap(links_);
        for (const Links& moved : old) {
            if (moved.node != kNoId) {
                links_[ProbeLinks(moved.node)] = moved;
            }
        }
    }
    Links& links = links_[ProbeLinks(node)];
    links.node = node;
    links.first_child = (entry.bits & kChainBit) ? node + 1 : kNoId;
    entry.bits |= kLinkedBit;
    ++num_links_;
    return links;
}

uint32_t
HlExecutionTree::Advance(uint32_t node, uint64_t hlpc, HlCfg& cfg,
                         bool* created)
{
    CHEF_CHECK(node < num_nodes_);
    uint32_t last = kNoId;
    for (uint32_t child = FirstChild(node); child != kNoId;
         child = NextSibling(child)) {
        if (hlpcs_[At(child).bits & kCfgIdMask] == hlpc) {
            if (created != nullptr) {
                *created = false;
            }
            return child;
        }
        last = child;
    }
    // A transfer seen before from the parent's static HLPC (on another
    // path through the tree) already names the id; Intern only the rest.
    uint32_t id = kNoId;
    const uint32_t parent_id = cfg_id_of(node);
    if (parent_id != kNoId) {
        for (const uint32_t successor : cfg.successors(parent_id)) {
            if (successor < hlpcs_.size() && hlpcs_[successor] == hlpc) {
                id = successor;
                break;
            }
        }
    }
    if (id == kNoId) {
        id = cfg.Intern(hlpc);
        CHEF_CHECK(id < kRootCfgId);
        if (id >= hlpcs_.size()) {
            hlpcs_.resize(id + 1);
        }
        hlpcs_[id] = hlpc;
    }
    const uint32_t child = Append(id);
    // The new child goes last among its siblings. A first child made right
    // after its parent, as along a new path, needs only the chain flag:
    // that parent has no side links yet, as it has no children and a
    // sibling of it would have taken the id node + 1.
    if (last != kNoId) {
        LinksOf(last).next_sibling = child;
    } else if (child == node + 1) {
        At(node).bits |= kChainBit;
    } else {
        LinksOf(node).first_child = child;
    }
    if (created != nullptr) {
        *created = true;
    }
    return child;
}

bool
HlExecutionTree::MarkTerminal(uint32_t node)
{
    CHEF_CHECK(node < num_nodes_);
    Node& marked = At(node);
    if (marked.bits & kTerminalBit) {
        return false;
    }
    marked.bits |= kTerminalBit;
    ++num_terminals_;
    return true;
}

void
HlCfg::Reset()
{
    ids_.clear();
    nodes_.clear();
    branching_opcodes_.clear();
    distance_.clear();
    num_potential_ = 0;
}

uint32_t
HlCfg::Intern(uint64_t hlpc)
{
    // try_emplace builds no map node when the HLPC is already interned;
    // emplace would allocate one and free it again.
    auto [it, inserted] =
        ids_.try_emplace(hlpc, static_cast<uint32_t>(nodes_.size()));
    if (inserted) {
        nodes_.emplace_back();
    }
    return it->second;
}

void
HlCfg::RecordEdgeById(uint32_t from, uint32_t to)
{
    std::vector<uint32_t>& successors = nodes_[from].successors;
    if (std::find(successors.begin(), successors.end(), to) !=
        successors.end()) {
        return;
    }
    successors.push_back(to);
    nodes_[to].predecessors.push_back(from);
}

void
HlCfg::RecomputeAnalysis(double drop_fraction)
{
    branching_opcodes_.clear();
    distance_.assign(nodes_.size(), UINT32_MAX);
    num_potential_ = 0;

    // Step 1 (§3.4): candidate branching opcodes are those of instructions
    // observed with out-degree >= 2.
    std::unordered_map<uint32_t, uint64_t> opcode_counts;
    for (const NodeInfo& info : nodes_) {
        if (info.successors.size() >= 2) {
            opcode_counts[info.opcode] += info.exec_count;
        }
    }
    // Step 2: eliminate the least frequent opcodes (default 10%), which
    // correspond to exceptions and other rare control-flow events.
    uint64_t total = 0;
    for (const auto& [opcode, count] : opcode_counts) {
        total += count;
    }
    std::vector<std::pair<uint64_t, uint32_t>> by_count;
    by_count.reserve(opcode_counts.size());
    for (const auto& [opcode, count] : opcode_counts) {
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

    // Step 3: potential branching points have a branching opcode but only
    // one successor so far; they seed the BFS at distance 0.
    std::vector<uint32_t> queue;
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].successors.size() == 1 &&
            branching_opcodes_.count(nodes_[id].opcode)) {
            distance_[id] = 0;
            queue.push_back(id);
        }
    }
    num_potential_ = queue.size();

    // Step 4: multi-source BFS on reversed edges computes, for every
    // instruction, the forward distance to the nearest potential branching
    // point.
    for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t id = queue[head];
        const uint32_t d = distance_[id];
        for (uint32_t pred : nodes_[id].predecessors) {
            if (distance_[pred] == UINT32_MAX) {
                distance_[pred] = d + 1;
                queue.push_back(pred);
            }
        }
    }
}

bool
HlCfg::IsBranchingOpcode(uint32_t opcode) const
{
    return branching_opcodes_.count(opcode) > 0;
}

uint32_t
HlCfg::DistanceToBranchPoint(uint64_t hlpc) const
{
    auto it = ids_.find(hlpc);
    if (it == ids_.end() || it->second >= distance_.size()) {
        return UINT32_MAX;
    }
    return distance_[it->second];
}

double
HlCfg::DistanceWeight(uint64_t hlpc) const
{
    const uint32_t d = DistanceToBranchPoint(hlpc);
    if (d == UINT32_MAX) {
        // Unreachable from any potential branching point: keep a small
        // residual weight so such classes are not starved entirely.
        return 1e-3;
    }
    return 1.0 / static_cast<double>(1 + d);
}

HlpcTracker::HlpcTracker()
{
    BeginRun();
}

void
HlpcTracker::Attach(lowlevel::LowLevelRuntime* runtime)
{
    runtime_ = runtime;
    runtime->set_log_pc_hook(
        [this](uint64_t hlpc, uint32_t opcode) { OnLogPc(hlpc, opcode); });
}

void
HlpcTracker::Reset()
{
    tree_.Reset();
    cfg_.Reset();
    BeginRun();
}

void
HlpcTracker::BeginRun()
{
    current_node_ = 0;
    length_ = 0;
    last_hlpc_ = 0;
    path_hash_ = FnvHash(nullptr, 0);
    trace_.clear();
}

HlPathInfo
HlpcTracker::EndRun()
{
    HlPathInfo info;
    info.final_node = current_node_;
    info.length = length_;
    info.is_new_path = tree_.MarkTerminal(current_node_);
    info.path_hash = path_hash_;
    return info;
}

void
HlpcTracker::OnLogPc(uint64_t hlpc, uint32_t opcode)
{
    const uint32_t parent = current_node_;
    bool created = false;
    current_node_ = tree_.Advance(parent, hlpc, cfg_, &created);
    const uint32_t id = tree_.cfg_id_of(current_node_);
    if (created && parent != 0) {
        // The only time the transfer parent -> hlpc is new to the tree, so
        // the only time its CFG edge can be new (see the file comment).
        cfg_.RecordEdgeById(tree_.cfg_id_of(parent), id);
    }
    cfg_.RecordNodeById(id, opcode);
    // FNV over a concatenation is FNV over the suffix seeded with the
    // prefix's hash.
    path_hash_ = FnvHash(&hlpc, sizeof(hlpc), path_hash_);
    ++length_;
    last_hlpc_ = hlpc;
    if (keep_trace_) {
        trace_.push_back(hlpc);
    }
    if (runtime_ != nullptr) {
        runtime_->SetHlPosition(hlpc, current_node_, opcode);
    }
}

}  // namespace chef::hll
