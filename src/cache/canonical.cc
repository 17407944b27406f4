#include "cache/canonical.h"

#include <algorithm>
#include <utility>

namespace chef::cache {

uint64_t
QueryHash(const std::vector<solver::ExprRef>& assertions)
{
    // Commutative combination (sum of mixed per-assertion hashes) so that
    // permuted assertion sets hit the same cache line.
    uint64_t combined = 0x51ed270b4d2d3c75ull;
    for (const solver::ExprRef& assertion : assertions) {
        combined += assertion->hash() * 0x9e3779b97f4a7c15ull;
    }
    return combined;
}

std::vector<solver::ExprRef>
SortedByHash(std::vector<solver::ExprRef> assertions)
{
    std::sort(assertions.begin(), assertions.end(),
              [](const solver::ExprRef& a, const solver::ExprRef& b) {
                  return a->hash() < b->hash();
              });
    return assertions;
}

bool
SameAssertions(const std::vector<solver::ExprRef>& sorted_a,
               const std::vector<solver::ExprRef>& sorted_b)
{
    if (sorted_a.size() != sorted_b.size()) {
        return false;
    }
    for (size_t i = 0; i < sorted_a.size(); ++i) {
        if (!solver::Expr::Equal(sorted_a[i], sorted_b[i])) {
            return false;
        }
    }
    return true;
}

size_t
QueryEntryBytes(size_t num_assertions, size_t num_model_entries)
{
    constexpr size_t kEntryOverhead = 128;
    return kEntryOverhead + num_assertions * sizeof(solver::ExprRef) +
           num_model_entries * sizeof(std::pair<uint32_t, uint64_t>);
}

bool
ModelSatisfies(const std::vector<solver::ExprRef>& assertions,
               const solver::Assignment& model)
{
    for (size_t i = assertions.size(); i > 0; --i) {
        if (solver::EvalConcrete(assertions[i - 1], model) == 0) {
            return false;
        }
    }
    return true;
}

}  // namespace chef::cache
