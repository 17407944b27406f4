/// \file
/// Tests for the solver query cache's canonical key (cache/canonical.h):
/// order-insensitive hashing, hash-sorted assertions and the exact
/// structural comparison that rejects hash collisions.

#include "cache/canonical.h"

#include <gtest/gtest.h>

#include <vector>

namespace chef::cache {
namespace {

using solver::ExprRef;
using solver::MakeConst;
using solver::MakeUgt;
using solver::MakeUlt;
using solver::MakeVar;

std::vector<ExprRef>
IntervalQuery(uint32_t var_id, uint64_t lo, uint64_t hi)
{
    const ExprRef x = MakeVar(var_id, 16);
    return {MakeUgt(x, MakeConst(lo, 16)), MakeUlt(x, MakeConst(hi, 16))};
}

TEST(Canonical, PermutedAssertionSetsShareTheCanonicalForm)
{
    const std::vector<ExprRef> ab = IntervalQuery(1, 10, 20);
    const std::vector<ExprRef> ba = {ab[1], ab[0]};

    EXPECT_EQ(QueryHash(ab), QueryHash(ba));
    const std::vector<ExprRef> sorted_ab = SortedByHash(ab);
    const std::vector<ExprRef> sorted_ba = SortedByHash(ba);
    ASSERT_EQ(sorted_ab.size(), sorted_ba.size());
    EXPECT_TRUE(SameAssertions(sorted_ab, sorted_ba));
}

TEST(Canonical, StructurallyEqualFreshExpressionsShareTheCanonicalForm)
{
    // Freshly constructed nodes, not shared refs.
    const std::vector<ExprRef> a = IntervalQuery(1, 10, 20);
    const std::vector<ExprRef> b = IntervalQuery(1, 10, 20);
    EXPECT_EQ(QueryHash(a), QueryHash(b));
    EXPECT_TRUE(SameAssertions(SortedByHash(a), SortedByHash(b)));
}

TEST(Canonical, DifferentQueriesDiffer)
{
    const std::vector<ExprRef> a = IntervalQuery(1, 10, 20);
    const std::vector<ExprRef> b = IntervalQuery(1, 10, 21);
    EXPECT_FALSE(SameAssertions(SortedByHash(a), SortedByHash(b)));
}

}  // namespace
}  // namespace chef::cache
