#ifndef CHEF_CACHE_CANONICAL_H_
#define CHEF_CACHE_CANONICAL_H_

/// \file
/// Canonical form for the Solver's query cache.
///
/// A query is the conjunction of a set of width-1 assertions; two queries
/// are the same cache key iff they contain structurally equal assertions,
/// in any order. The key is (order-insensitive hash, assertions sorted by
/// structural hash); the sorted vector is kept alongside the hash so
/// lookups can reject hash collisions with an exact structural
/// comparison.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/expr.h"

namespace chef::cache {

/// Order-insensitive combination of the assertions' structural hashes, so
/// permuted assertion sets map to the same cache line.
uint64_t QueryHash(const std::vector<solver::ExprRef>& assertions);

/// Returns the assertions sorted by structural hash (the canonical order).
std::vector<solver::ExprRef>
SortedByHash(std::vector<solver::ExprRef> assertions);

/// Exact structural equality of two hash-sorted assertion vectors; used to
/// reject hash collisions.
bool SameAssertions(const std::vector<solver::ExprRef>& sorted_a,
                    const std::vector<solver::ExprRef>& sorted_b);

/// Approximate footprint of one cached query entry (structure overhead
/// plus per-ref/per-binding costs — not deep DAG sizes, since expression
/// nodes are shared across entries and with the engine's own trees).
/// Feeds the Solver's cache_bytes gauge and byte budget. Pass 0 model
/// entries for results that store no model (unsat).
size_t QueryEntryBytes(size_t num_assertions, size_t num_model_entries);

/// True if every assertion evaluates to 1 under the model. Evaluates
/// newest-first: for concolic negation queries the violated assertion is
/// almost always the freshly flipped branch at the end.
bool ModelSatisfies(const std::vector<solver::ExprRef>& assertions,
                    const solver::Assignment& model);

}  // namespace chef::cache

#endif  // CHEF_CACHE_CANONICAL_H_
