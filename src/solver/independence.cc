#include "solver/independence.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace chef::solver {

namespace {

/// Ids below this bound are stamped in a dense table; larger ids (never
/// produced by the runtimes, which number input bytes from 1) fall back
/// to a scan of the output so no table grows to their size.
constexpr uint32_t kDenseIds = 1u << 20;

/// The state of PartitionIndependent: a union-find forest over one slot
/// per assertion and one per distinct variable, and every assertion's
/// variable ids. All of it is scratch, cleared and refilled per call.
class Partitioner
{
  public:
    std::vector<IndependentSlice>
    Partition(const std::vector<ExprRef>& assertions);

  private:
    size_t MakeSet();
    /// Root of \p x's set, halving the path on the way.
    size_t Find(size_t x);
    /// The union-find slot of variable \p id, made on first sight.
    size_t VarSlot(uint32_t id);

    std::vector<size_t> parent_;
    /// Variable id -> slot + 1 (0: none this call); zeroed after each call.
    std::vector<size_t> dense_slot_;
    /// Slots of ids of kDenseIds and above, found by a scan.
    std::vector<std::pair<uint32_t, size_t>> sparse_slot_;
    std::vector<size_t> assertion_slot_;
    /// Every assertion's variable ids back to back; assertion i's are
    /// ids_[ids_begin_[i], ids_begin_[i + 1]).
    std::vector<uint32_t> ids_;
    std::vector<size_t> ids_begin_;
    std::vector<uint32_t> assertion_ids_;
    std::vector<size_t> root_to_slice_;
};

VarIdCollector&
ThreadCollector()
{
    thread_local VarIdCollector collector;
    return collector;
}

}  // namespace

void
VarIdCollector::Begin(const std::vector<uint32_t>& out)
{
    if (++generation_ == 0) {
        // Wrapped: clear every stamp, so none from an earlier lap can
        // equal a generation of this one (0 itself marks "never").
        std::fill(slots_.begin(), slots_.end(), Slot{});
        std::fill(id_stamp_.begin(), id_stamp_.end(), 0);
        generation_ = 1;
    }
    visited_ = 0;
    for (const uint32_t id : out) {
        if (id < kDenseIds) {
            if (id >= id_stamp_.size()) {
                id_stamp_.resize(std::max<size_t>(id + 1,
                                                  2 * id_stamp_.size()));
            }
            id_stamp_[id] = generation_;
        }
    }
}

bool
VarIdCollector::MarkId(uint32_t id, const std::vector<uint32_t>& out)
{
    if (id >= kDenseIds) {
        return std::find(out.begin(), out.end(), id) == out.end();
    }
    if (id >= id_stamp_.size()) {
        id_stamp_.resize(std::max<size_t>(id + 1, 2 * id_stamp_.size()));
    }
    if (id_stamp_[id] == generation_) {
        return false;
    }
    id_stamp_[id] = generation_;
    return true;
}

void
VarIdCollector::Grow()
{
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    visited_ = 0;
    for (const Slot& slot : old) {
        if (slot.stamp == generation_) {
            Visit(slot.node);
        }
    }
}

bool
VarIdCollector::Visit(const Expr* node)
{
    if (2 * (visited_ + 1) > slots_.size()) {
        Grow();
    }
    const size_t mask = slots_.size() - 1;
    const uint64_t hash = (reinterpret_cast<uintptr_t>(node) >> 4) *
                          0x9e3779b97f4a7c15ull;
    size_t i = static_cast<size_t>(hash ^ (hash >> 32)) & mask;
    while (slots_[i].stamp == generation_) {
        if (slots_[i].node == node) {
            return false;
        }
        i = (i + 1) & mask;
    }
    slots_[i] = {node, generation_};
    ++visited_;
    return true;
}

void
VarIdCollector::Walk(const Expr* root, std::vector<uint32_t>* out)
{
    // Depth-first, children pushed in reverse so `a` is walked first:
    // the ids come out in the order a recursive a, b, c walk finds them.
    // Constants have no children and variables are deduplicated by id,
    // so only inner nodes enter the visited set.
    stack_.push_back(root);
    while (!stack_.empty()) {
        const Expr* e = stack_.back();
        stack_.pop_back();
        if (e == nullptr || e->kind() == ExprKind::kConstant) {
            continue;
        }
        if (e->kind() == ExprKind::kVariable) {
            if (MarkId(e->var_id(), *out)) {
                out->push_back(e->var_id());
            }
            continue;
        }
        if (!Visit(e)) {
            continue;
        }
        stack_.push_back(e->c().get());
        stack_.push_back(e->b().get());
        stack_.push_back(e->a().get());
    }
}

void
VarIdCollector::Collect(const ExprRef& expr, std::vector<uint32_t>* out)
{
    Begin(*out);
    Walk(expr.get(), out);
}

void
VarIdCollector::Collect(const std::vector<ExprRef>& exprs,
                        std::vector<uint32_t>* out)
{
    Begin(*out);
    for (const ExprRef& expr : exprs) {
        Walk(expr.get(), out);
    }
}

void
CollectVarIds(const ExprRef& expr, std::vector<uint32_t>* out)
{
    ThreadCollector().Collect(expr, out);
}

void
CollectVarIds(const std::vector<ExprRef>& exprs, std::vector<uint32_t>* out)
{
    ThreadCollector().Collect(exprs, out);
}

size_t
Partitioner::MakeSet()
{
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
}

size_t
Partitioner::Find(size_t x)
{
    while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]];
        x = parent_[x];
    }
    return x;
}

size_t
Partitioner::VarSlot(uint32_t id)
{
    if (id < kDenseIds) {
        if (id >= dense_slot_.size()) {
            dense_slot_.resize(std::max<size_t>(id + 1,
                                                2 * dense_slot_.size()));
        }
        if (dense_slot_[id] == 0) {
            dense_slot_[id] = MakeSet() + 1;
        }
        return dense_slot_[id] - 1;
    }
    for (const auto& [sparse_id, slot] : sparse_slot_) {
        if (sparse_id == id) {
            return slot;
        }
    }
    sparse_slot_.emplace_back(id, MakeSet());
    return sparse_slot_.back().second;
}

std::vector<IndependentSlice>
Partitioner::Partition(const std::vector<ExprRef>& assertions)
{
    // Each assertion is unioned with every variable it references, so two
    // assertions end up in the same component iff they are transitively
    // connected through shared variables.
    parent_.clear();
    sparse_slot_.clear();
    assertion_slot_.clear();
    ids_.clear();
    ids_begin_.clear();
    for (const ExprRef& assertion : assertions) {
        assertion_slot_.push_back(MakeSet());
        ids_begin_.push_back(ids_.size());
        assertion_ids_.clear();
        CollectVarIds(assertion, &assertion_ids_);
        for (const uint32_t id : assertion_ids_) {
            const size_t var_slot = VarSlot(id);
            parent_[Find(assertion_slot_.back())] = Find(var_slot);
            ids_.push_back(id);
        }
    }
    ids_begin_.push_back(ids_.size());
    for (const uint32_t id : ids_) {
        if (id < kDenseIds) {
            dense_slot_[id] = 0;
        }
    }

    // Group assertions by component, ordered by first occurrence so the
    // partition is deterministic in the input order.
    std::vector<IndependentSlice> slices;
    root_to_slice_.assign(parent_.size(), SIZE_MAX);
    for (size_t i = 0; i < assertions.size(); ++i) {
        size_t& slice_index = root_to_slice_[Find(assertion_slot_[i])];
        if (slice_index == SIZE_MAX) {
            slice_index = slices.size();
            slices.emplace_back();
        }
        IndependentSlice& slice = slices[slice_index];
        slice.assertions.push_back(assertions[i]);
        slice.var_ids.insert(slice.var_ids.end(),
                             ids_.begin() + ids_begin_[i],
                             ids_.begin() + ids_begin_[i + 1]);
    }
    for (IndependentSlice& slice : slices) {
        std::sort(slice.var_ids.begin(), slice.var_ids.end());
        slice.var_ids.erase(
            std::unique(slice.var_ids.begin(), slice.var_ids.end()),
            slice.var_ids.end());
    }
    return slices;
}

std::vector<IndependentSlice>
PartitionIndependent(const std::vector<ExprRef>& assertions)
{
    thread_local Partitioner partitioner;
    return partitioner.Partition(assertions);
}

}  // namespace chef::solver
