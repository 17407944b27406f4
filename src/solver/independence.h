#ifndef CHEF_SOLVER_INDEPENDENCE_H_
#define CHEF_SOLVER_INDEPENDENCE_H_

/// \file
/// Constraint-independence slicing for solver queries.
///
/// A query is a conjunction of width-1 assertions; two assertions are
/// dependent iff they share a variable (transitively). Partitioning a
/// query into variable-disjoint slices lets the solver decide each slice
/// on its own: the conjunction is sat iff every slice is sat, and the
/// union of per-slice models is a model of the whole query (the slices
/// constrain disjoint variables). For concolic negation queries this is
/// the classic KLEE "independence" optimization — the freshly flipped
/// branch condition usually touches a handful of input bytes, while the
/// path prefix drags in every byte the run ever branched on; slicing
/// keeps the SAT call (and, just as importantly, the cache key) down to
/// the relevant bytes.

#include <cstdint>
#include <vector>

#include "solver/expr.h"

namespace chef::solver {

/// One variable-disjoint group of assertions from a query.
struct IndependentSlice {
    /// The slice's assertions, in their original relative order.
    std::vector<ExprRef> assertions;
    /// Sorted distinct ids of the variables the slice constrains.
    std::vector<uint32_t> var_ids;
};

/// Collects variable ids without allocating per call: a reusable set of
/// visited nodes (open addressing over node addresses) and a table of
/// per-variable-id stamps, both valid only while their stamp equals the
/// current generation, so starting a new collection is one increment.
/// Ids are dense input indices in practice; ids of 2^20 and above are
/// deduplicated by a scan of the output instead of the stamp table.
///
/// One instance serves one thread; CollectVarIds() keeps one per thread.
class VarIdCollector
{
  public:
    /// \p generation is the generation the collector starts from (tests
    /// start near the counter's wrap).
    explicit VarIdCollector(uint32_t generation = 0)
        : generation_(generation) {}

    /// Appends the distinct ids of the variables referenced by \p expr
    /// to \p out, in depth-first order (a, then b, then c), walking
    /// every child edge: kIte's condition and arms, kConcat's halves,
    /// kExtract/kSExt/kZExt operands. Ids already in \p out are not
    /// appended again.
    void Collect(const ExprRef& expr, std::vector<uint32_t>* out);
    /// As above over every expression of \p exprs in order, with one
    /// visited set: the same ids in the same order as one Collect() per
    /// expression, at the cost of one walk of their shared DAG.
    void Collect(const std::vector<ExprRef>& exprs,
                 std::vector<uint32_t>* out);

    uint32_t generation() const { return generation_; }
    /// Slots of the visited-node set (grows with the largest DAG seen).
    size_t visited_capacity() const { return slots_.size(); }

  private:
    struct Slot {
        const Expr* node = nullptr;
        uint32_t stamp = 0;
    };

    /// Starts a collection: a fresh generation, with \p out's ids
    /// marked as present.
    void Begin(const std::vector<uint32_t>& out);
    void Walk(const Expr* root, std::vector<uint32_t>* out);
    /// Adds \p node to the visited set; false when it was there already.
    bool Visit(const Expr* node);
    /// Marks \p id present; false when it was already.
    bool MarkId(uint32_t id, const std::vector<uint32_t>& out);
    void Grow();

    uint32_t generation_;
    std::vector<Slot> slots_;
    size_t visited_ = 0;
    std::vector<uint32_t> id_stamp_;
    std::vector<const Expr*> stack_;
};

/// Appends the distinct ids of the variables referenced by \p expr to
/// \p out, deduplicated against ids already present in \p out (see
/// VarIdCollector::Collect; uses the calling thread's collector).
void CollectVarIds(const ExprRef& expr, std::vector<uint32_t>* out);
/// The same over a whole query, walking shared subterms once.
void CollectVarIds(const std::vector<ExprRef>& exprs,
                   std::vector<uint32_t>* out);

/// Partitions \p assertions into independent slices via union-find over
/// the variables each assertion references. Slices are ordered by the
/// first assertion they contain, so the output is deterministic in the
/// input order. Assertions referencing no variables (possible only for
/// shapes the constant folder does not collapse) each form their own
/// slice, which keeps the decomposition sound. The union-find forest and
/// the per-assertion variable lists are per-thread scratch, so after
/// warm-up a call allocates only the slices it returns.
std::vector<IndependentSlice>
PartitionIndependent(const std::vector<ExprRef>& assertions);

}  // namespace chef::solver

#endif  // CHEF_SOLVER_INDEPENDENCE_H_
