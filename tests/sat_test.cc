/// \file
/// Tests for the CDCL SAT solver, including a brute-force cross-check on
/// random small instances.

#include "solver/sat.h"

#include <gtest/gtest.h>

#include "solver/bitblast.h"
#include "solver/expr.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

TEST(Sat, EmptyFormulaIsSat)
{
    CnfFormula formula;
    SatSolver solver;
    EXPECT_EQ(solver.Solve(formula), SatStatus::kSat);
}

TEST(Sat, SingleUnit)
{
    CnfFormula formula;
    const int x = formula.NewVar();
    formula.AddUnit(x);
    SatSolver solver;
    ASSERT_EQ(solver.Solve(formula), SatStatus::kSat);
    EXPECT_TRUE(solver.ModelValue(x));
}

TEST(Sat, ContradictoryUnitsAreUnsat)
{
    CnfFormula formula;
    const int x = formula.NewVar();
    formula.AddUnit(x);
    formula.AddUnit(-x);
    SatSolver solver;
    EXPECT_EQ(solver.Solve(formula), SatStatus::kUnsat);
}

TEST(Sat, EmptyClauseIsUnsat)
{
    CnfFormula formula;
    formula.AddClause({});
    SatSolver solver;
    EXPECT_EQ(solver.Solve(formula), SatStatus::kUnsat);
}

TEST(Sat, TautologicalClauseIsDropped)
{
    CnfFormula formula;
    const int x = formula.NewVar();
    formula.AddClause({x, -x});
    EXPECT_EQ(formula.num_clauses(), 0u);
}

TEST(Sat, SimpleImplicationChain)
{
    CnfFormula formula;
    const int a = formula.NewVar();
    const int b = formula.NewVar();
    const int c = formula.NewVar();
    formula.AddUnit(a);
    formula.AddBinary(-a, b);   // a -> b
    formula.AddBinary(-b, c);   // b -> c
    SatSolver solver;
    ASSERT_EQ(solver.Solve(formula), SatStatus::kSat);
    EXPECT_TRUE(solver.ModelValue(a));
    EXPECT_TRUE(solver.ModelValue(b));
    EXPECT_TRUE(solver.ModelValue(c));
}

TEST(Sat, RequiresConflictAnalysis)
{
    // (a | b) & (a | -b) & (-a | c) & (-a | -c) is unsat via two levels.
    CnfFormula formula;
    const int a = formula.NewVar();
    const int b = formula.NewVar();
    const int c = formula.NewVar();
    formula.AddBinary(a, b);
    formula.AddBinary(a, -b);
    formula.AddBinary(-a, c);
    formula.AddBinary(-a, -c);
    SatSolver solver;
    EXPECT_EQ(solver.Solve(formula), SatStatus::kUnsat);
}

/// Builds pigeonhole PHP(n+1, n): n+1 pigeons into n holes; always unsat.
CnfFormula
Pigeonhole(int holes)
{
    const int pigeons = holes + 1;
    CnfFormula formula;
    // var(p, h): pigeon p sits in hole h.
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (int p = 0; p < pigeons; ++p) {
        for (int h = 0; h < holes; ++h) {
            var[p][h] = formula.NewVar();
        }
    }
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(var[p][h]);
        }
        formula.AddClause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                formula.AddBinary(-var[p1][h], -var[p2][h]);
            }
        }
    }
    return formula;
}

TEST(Sat, PigeonholeUnsat)
{
    for (int holes = 2; holes <= 5; ++holes) {
        SatSolver solver;
        EXPECT_EQ(solver.Solve(Pigeonhole(holes)), SatStatus::kUnsat)
            << "PHP with " << holes << " holes";
    }
}

TEST(Sat, ModelSatisfiesAllClauses)
{
    // Random satisfiable instance: plant a solution, add clauses
    // consistent with it.
    Rng rng(42);
    CnfFormula formula;
    const int num_vars = 50;
    std::vector<bool> planted(num_vars + 1);
    for (int v = 1; v <= num_vars; ++v) {
        formula.NewVar();
        planted[v] = rng.Chance(0.5);
    }
    for (int i = 0; i < 300; ++i) {
        std::vector<Lit> clause;
        bool satisfied = false;
        for (int k = 0; k < 3; ++k) {
            const int v = 1 + static_cast<int>(rng.NextBelow(num_vars));
            const bool positive = rng.Chance(0.5);
            clause.push_back(positive ? v : -v);
            satisfied |= (positive == planted[v]);
        }
        if (!satisfied) {
            // Flip one literal to agree with the planted model.
            const int v = std::abs(clause[0]);
            clause[0] = planted[v] ? v : -v;
        }
        formula.AddClause(clause);
    }
    SatSolver solver;
    ASSERT_EQ(solver.Solve(formula), SatStatus::kSat);
    for (size_t i = 0; i < formula.num_clauses(); ++i) {
        bool satisfied = false;
        for (Lit lit : formula.clause(i)) {
            const bool value = solver.ModelValue(std::abs(lit));
            satisfied |= (lit > 0) == value;
        }
        EXPECT_TRUE(satisfied);
    }
}

/// Brute-force satisfiability for cross-checking (<= 16 variables).
bool
BruteForceSat(const CnfFormula& formula)
{
    const int n = formula.num_vars();
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
        bool all = true;
        for (size_t i = 0; i < formula.num_clauses(); ++i) {
            bool sat = false;
            for (Lit lit : formula.clause(i)) {
                const bool value = (bits >> (std::abs(lit) - 1)) & 1;
                sat |= (lit > 0) == value;
            }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) {
            return true;
        }
    }
    return false;
}

class SatRandomCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatRandomCrossCheck, AgreesWithBruteForce)
{
    Rng rng(GetParam());
    for (int round = 0; round < 40; ++round) {
        CnfFormula formula;
        const int num_vars = 4 + static_cast<int>(rng.NextBelow(8));
        for (int v = 0; v < num_vars; ++v) {
            formula.NewVar();
        }
        // Clause density around 4.3 makes roughly half the instances
        // unsatisfiable.
        const int num_clauses =
            static_cast<int>(num_vars * 4.3) +
            static_cast<int>(rng.NextBelow(4));
        for (int i = 0; i < num_clauses; ++i) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k) {
                const int v =
                    1 + static_cast<int>(rng.NextBelow(num_vars));
                clause.push_back(rng.Chance(0.5) ? v : -v);
            }
            formula.AddClause(clause);
        }
        SatSolver solver;
        const SatStatus status = solver.Solve(formula);
        const bool expected = BruteForceSat(formula);
        EXPECT_EQ(status,
                  expected ? SatStatus::kSat : SatStatus::kUnsat)
            << "seed=" << GetParam() << " round=" << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sat, ConflictLimitReportsUnknown)
{
    SatSolver::Options options;
    options.max_conflicts = 1;
    SatSolver solver(options);
    const SatStatus status = solver.Solve(Pigeonhole(6));
    EXPECT_EQ(status, SatStatus::kUnknown);
}

// ---------------------------------------------------------------------------
// Incremental interface.
// ---------------------------------------------------------------------------

TEST(SatIncremental, AssumptionsFlipOutcomeWithoutReload)
{
    CnfFormula formula;
    const int a = formula.NewVar();
    const int b = formula.NewVar();
    formula.AddBinary(-a, b);  // a -> b
    SatSolver solver;
    ASSERT_EQ(solver.SolveIncremental(formula, {a}), SatStatus::kSat);
    EXPECT_TRUE(solver.ModelValue(a));
    EXPECT_TRUE(solver.ModelValue(b));
    const size_t loaded = solver.loaded_clauses();

    // Contradictory assumptions answer kUnsat without poisoning the
    // database: the un-assumed formula stays satisfiable afterwards.
    EXPECT_EQ(solver.SolveIncremental(formula, {a, -b}),
              SatStatus::kUnsat);
    EXPECT_EQ(solver.SolveIncremental(formula, {-a}), SatStatus::kSat);
    EXPECT_FALSE(solver.ModelValue(a));
    // No clauses were appended, so nothing was reloaded.
    EXPECT_EQ(solver.loaded_clauses(), loaded);
}

TEST(SatIncremental, LoadsOnlyAppendedClauses)
{
    CnfFormula formula;
    const int a = formula.NewVar();
    const int b = formula.NewVar();
    formula.AddBinary(a, b);
    SatSolver solver;
    ASSERT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kSat);
    EXPECT_EQ(solver.loaded_clauses(), 1u);

    const int c = formula.NewVar();
    formula.AddBinary(-a, c);
    formula.AddBinary(-b, c);
    ASSERT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kSat);
    EXPECT_EQ(solver.loaded_clauses(), 3u);
    EXPECT_TRUE(solver.ModelValue(c));
}

TEST(SatIncremental, ClauseLoadedAfterRootAssignmentsStillConstrains)
{
    // Regression: watchers only fire on future enqueues, so a clause
    // appended after its literals were already root-assigned must be
    // evaluated at load time — attaching it blindly would leave it
    // permanently unseen and answer kSat on an unsat database.
    CnfFormula formula;
    const int a = formula.NewVar();
    const int b = formula.NewVar();
    formula.AddUnit(a);
    formula.AddUnit(b);
    SatSolver solver;
    ASSERT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kSat);

    formula.AddBinary(-a, -b);
    EXPECT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kUnsat);

    // Same mechanism, unit flavor: a clause that is unit under the root
    // assignment at load time must propagate its surviving literal.
    CnfFormula chain;
    const int x = chain.NewVar();
    chain.AddUnit(x);
    SatSolver second;
    ASSERT_EQ(second.SolveIncremental(chain, {}), SatStatus::kSat);
    const int y = chain.NewVar();
    chain.AddBinary(-x, y);
    ASSERT_EQ(second.SolveIncremental(chain, {}), SatStatus::kSat);
    EXPECT_TRUE(second.ModelValue(y));
    // ... and assuming its negation is detected as unsat.
    EXPECT_EQ(second.SolveIncremental(chain, {-y}), SatStatus::kUnsat);
}

TEST(SatIncremental, RootUnsatLatchesAcrossCalls)
{
    CnfFormula formula;
    const int x = formula.NewVar();
    formula.AddUnit(x);
    SatSolver solver;
    ASSERT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kSat);
    formula.AddUnit(-x);
    EXPECT_EQ(solver.SolveIncremental(formula, {}), SatStatus::kUnsat);
    // Once the database itself is unsat, every later call answers kUnsat
    // immediately, under any assumptions.
    EXPECT_EQ(solver.SolveIncremental(formula, {x}), SatStatus::kUnsat);
}

TEST(SatIncremental, AssumptionFalsifiedByFullAssignmentIsUnsat)
{
    // Root propagation assigns every variable; the unplaced assumption
    // that contradicts it must still answer kUnsat (a completion check
    // before assumption placement would wrongly report kSat).
    CnfFormula formula;
    const int x = formula.NewVar();
    formula.AddUnit(x);
    SatSolver solver;
    EXPECT_EQ(solver.SolveIncremental(formula, {-x}), SatStatus::kUnsat);
    EXPECT_EQ(solver.SolveIncremental(formula, {x}), SatStatus::kSat);
}

TEST(SatIncremental, AgreesWithOneShotAcrossGrowingFormula)
{
    // Grow a random planted-solution formula in increments; at every step
    // the incremental solver (persistent learned clauses) must agree with
    // a fresh one-shot solve, under assumptions from the planted model.
    Rng rng(99);
    CnfFormula formula;
    const int num_vars = 30;
    std::vector<bool> planted(num_vars + 1);
    for (int v = 1; v <= num_vars; ++v) {
        formula.NewVar();
        planted[v] = rng.Chance(0.5);
    }
    SatSolver incremental;
    for (int step = 0; step < 10; ++step) {
        for (int i = 0; i < 20; ++i) {
            std::vector<Lit> clause;
            bool satisfied = false;
            for (int k = 0; k < 3; ++k) {
                const int v =
                    1 + static_cast<int>(rng.NextBelow(num_vars));
                const bool positive = rng.Chance(0.5);
                clause.push_back(positive ? v : -v);
                satisfied |= (positive == planted[v]);
            }
            if (!satisfied) {
                const int v = std::abs(clause[0]);
                clause[0] = planted[v] ? v : -v;
            }
            formula.AddClause(clause);
        }
        // Assume three planted literals: satisfiable by construction.
        std::vector<Lit> assumptions;
        for (int k = 0; k < 3; ++k) {
            const int v = 1 + static_cast<int>(rng.NextBelow(num_vars));
            assumptions.push_back(planted[v] ? v : -v);
        }
        EXPECT_EQ(incremental.SolveIncremental(formula, assumptions),
                  SatStatus::kSat);
        // Assuming the negation of a planted literal may or may not be
        // satisfiable; cross-check against a fresh one-shot solver on the
        // formula plus assumption units.
        const int v = 1 + static_cast<int>(rng.NextBelow(num_vars));
        const Lit contrary = planted[v] ? -v : v;
        CnfFormula augmented = formula;
        augmented.AddUnit(contrary);
        SatSolver fresh;
        EXPECT_EQ(incremental.SolveIncremental(formula, {contrary}),
                  fresh.Solve(augmented));
    }
}

TEST(SatIncremental, LearnedClausePurgeBoundsLongSession)
{
    // A persistent session accumulates learned clauses across every
    // query; with a cap the lowest-activity half is purged while every
    // answer stays identical to a fresh (uncapped) one-shot solve. The
    // planted-solution formula keeps the database satisfiable forever, so
    // root-unsat never latches and conflict-heavy contrary assumptions
    // keep the learning rate up for the whole session.
    Rng rng(2014);
    CnfFormula formula;
    const int num_vars = 60;
    std::vector<bool> planted(num_vars + 1);
    for (int v = 1; v <= num_vars; ++v) {
        formula.NewVar();
        planted[v] = rng.Chance(0.5);
    }

    SatSolver::Options capped;
    capped.max_learned_clauses = 25;
    SatSolver session(capped);

    for (int step = 0; step < 30; ++step) {
        for (int i = 0; i < 8; ++i) {
            std::vector<Lit> clause;
            bool satisfied = false;
            for (int k = 0; k < 3; ++k) {
                const int v =
                    1 + static_cast<int>(rng.NextBelow(num_vars));
                const bool positive = rng.Chance(0.5);
                clause.push_back(positive ? v : -v);
                satisfied |= (positive == planted[v]);
            }
            if (!satisfied) {
                const int v = std::abs(clause[0]);
                clause[0] = planted[v] ? v : -v;
            }
            formula.AddClause(clause);
        }
        // Assume against the planted model to force conflict analysis.
        std::vector<Lit> assumptions;
        for (int k = 0; k < 3; ++k) {
            const int v = 1 + static_cast<int>(rng.NextBelow(num_vars));
            assumptions.push_back(planted[v] ? -v : v);
        }
        CnfFormula augmented = formula;
        for (const Lit assumption : assumptions) {
            augmented.AddUnit(assumption);
        }
        SatSolver fresh;  // Uncapped reference.
        EXPECT_EQ(session.SolveIncremental(formula, assumptions),
                  fresh.Solve(augmented))
            << "step " << step;
        // The session must stay usable for satisfiable queries too.
        EXPECT_EQ(session.SolveIncremental(formula, {}), SatStatus::kSat);
    }

    EXPECT_GT(session.stats().learned_clauses, 25u);
    EXPECT_GT(session.stats().purged_clauses, 0u);
    // The database stays bounded: live learned clauses (learned minus
    // purged) never outgrow the cap by more than the purge slack.
    EXPECT_LE(session.stats().learned_clauses -
                  session.stats().purged_clauses,
              2 * capped.max_learned_clauses);
}

// ---------------------------------------------------------------------------
// Bit-identity golden: the solver's search is pinned, not just its answers.
// Each digest folds every call's status, model bits, cumulative SatStats
// and loaded-clause count. Models feed the engine's generated inputs (and
// through them exploration order and fingerprints), so a data-layout
// change to the solver must leave this digest exactly where it is. Do not
// re-pin it to make a change pass: a moved digest means the search moved.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
class SearchDigest
{
  public:
    void Mix(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void MixCall(const SatSolver& solver, SatStatus status, int num_vars)
    {
        Mix(static_cast<uint64_t>(status));
        if (status == SatStatus::kSat) {
            uint64_t bits = 0;
            for (int v = 1; v <= num_vars; ++v) {
                bits = (bits << 1) | (solver.ModelValue(v) ? 1u : 0u);
                if (v % 64 == 0 || v == num_vars) {
                    Mix(bits);
                    bits = 0;
                }
            }
        }
        const SatStats& stats = solver.stats();
        Mix(stats.decisions);
        Mix(stats.propagations);
        Mix(stats.conflicts);
        Mix(stats.restarts);
        Mix(stats.learned_clauses);
        Mix(stats.purged_clauses);
        Mix(solver.loaded_clauses());
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Adds \p count random 3-literal clauses satisfied by \p planted.
void
AddPlantedClauses(Rng* rng, const std::vector<bool>& planted, int count,
                  CnfFormula* formula)
{
    const int num_vars = static_cast<int>(planted.size()) - 1;
    for (int i = 0; i < count; ++i) {
        std::vector<Lit> clause;
        bool satisfied = false;
        for (int k = 0; k < 3; ++k) {
            const int v = 1 + static_cast<int>(rng->NextBelow(num_vars));
            const bool positive = rng->Chance(0.5);
            clause.push_back(positive ? v : -v);
            satisfied |= (positive == planted[v]);
        }
        if (!satisfied) {
            const int v = std::abs(clause[0]);
            clause[0] = planted[v] ? v : -v;
        }
        formula->AddClause(clause);
    }
}

/// A long incremental session over a growing planted 3-SAT formula, with
/// assumptions that change every call and a learned-clause cap small
/// enough that PurgeLearned compacts the database many times. With
/// \p var_decay 1 activities stay integers, so purge scores tie and the
/// tie-break order decides which clauses go.
uint64_t
PlantedSessionDigest(uint64_t seed, double var_decay, uint64_t* purged)
{
    Rng rng(seed);
    CnfFormula formula;
    const int num_vars = 90;
    std::vector<bool> planted(num_vars + 1);
    for (int v = 1; v <= num_vars; ++v) {
        formula.NewVar();
        planted[v] = rng.Chance(0.5);
    }
    SatSolver::Options options;
    options.max_learned_clauses = 20;
    options.restart_base = 30;
    options.var_decay = var_decay;
    SatSolver session(options);
    SearchDigest digest;
    for (int step = 0; step < 40; ++step) {
        AddPlantedClauses(&rng, planted, 12, &formula);
        std::vector<Lit> contrary;
        std::vector<Lit> agreeing;
        for (int k = 0; k < 6; ++k) {
            const int v = 1 + static_cast<int>(rng.NextBelow(num_vars));
            contrary.push_back(planted[v] ? -v : v);
            agreeing.push_back(planted[v] ? v : -v);
        }
        for (const std::vector<Lit>* assumptions :
             {&contrary, &agreeing}) {
            const SatStatus status =
                session.SolveIncremental(formula, *assumptions);
            digest.MixCall(session, status, formula.num_vars());
        }
        const SatStatus status = session.SolveIncremental(formula, {});
        EXPECT_EQ(status, SatStatus::kSat);
        digest.MixCall(session, status, formula.num_vars());
    }
    *purged = session.stats().purged_clauses;
    return digest.value();
}

/// Repeated one-shot solves of random near-threshold 3-SAT instances on
/// one capped solver (each Solve() resets the clause database).
uint64_t
OneShotDigest(uint64_t seed)
{
    Rng rng(seed);
    SatSolver::Options options;
    options.max_learned_clauses = 12;
    SatSolver solver(options);
    SearchDigest digest;
    for (int round = 0; round < 30; ++round) {
        CnfFormula formula;
        const int num_vars = 30 + static_cast<int>(rng.NextBelow(20));
        for (int v = 0; v < num_vars; ++v) {
            formula.NewVar();
        }
        const int num_clauses = static_cast<int>(num_vars * 4.26);
        for (int i = 0; i < num_clauses; ++i) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k) {
                const int v =
                    1 + static_cast<int>(rng.NextBelow(num_vars));
                clause.push_back(rng.Chance(0.5) ? v : -v);
            }
            formula.AddClause(clause);
        }
        const SatStatus status = solver.Solve(formula);
        digest.MixCall(solver, status, formula.num_vars());
    }
    return digest.value();
}

ExprRef
RandomTerm(Rng* rng, const std::vector<ExprRef>& vars, int depth)
{
    if (depth == 0 || rng->Chance(0.25)) {
        if (rng->Chance(0.75)) {
            return vars[rng->NextBelow(vars.size())];
        }
        return MakeConst(rng->NextBelow(256), 8);
    }
    const ExprRef a = RandomTerm(rng, vars, depth - 1);
    const ExprRef b = RandomTerm(rng, vars, depth - 1);
    switch (rng->NextBelow(6)) {
      case 0: return MakeAdd(a, b);
      case 1: return MakeSub(a, b);
      case 2: return MakeMul(a, b);
      case 3: return MakeXor(a, b);
      case 4: return MakeAnd(a, b);
      default: return MakeOr(a, b);
    }
}

ExprRef
RandomAtom(Rng* rng, const std::vector<ExprRef>& vars)
{
    const ExprRef a = RandomTerm(rng, vars, 3);
    const ExprRef b = RandomTerm(rng, vars, 2);
    switch (rng->NextBelow(4)) {
      case 0: return MakeEq(a, b);
      case 1: return MakeNe(a, b);
      case 2: return MakeUlt(a, b);
      default: return MakeSle(a, b);
    }
}

/// The solver's own incremental shape: one bit-blasted formula that grows
/// as new path constraints arrive, each call assuming the literals of a
/// changing subset of them.
uint64_t
BitBlastedSessionDigest(uint64_t seed, uint64_t* purged)
{
    Rng rng(seed);
    std::vector<ExprRef> vars;
    for (uint32_t id = 0; id < 4; ++id) {
        vars.push_back(MakeVar(id, 8));
    }
    CnfFormula formula;
    BitBlaster blaster(&formula);
    SatSolver::Options options;
    options.max_learned_clauses = 16;
    options.restart_base = 20;
    SatSolver session(options);
    SearchDigest digest;
    std::vector<ExprRef> pool;
    for (int step = 0; step < 30; ++step) {
        pool.push_back(RandomAtom(&rng, vars));
        pool.push_back(RandomAtom(&rng, vars));
        std::vector<Lit> assumptions;
        const size_t picks = 2 + rng.NextBelow(4);
        for (size_t k = 0; k < picks; ++k) {
            assumptions.push_back(
                blaster.BlastBool(pool[rng.NextBelow(pool.size())]));
        }
        const SatStatus status =
            session.SolveIncremental(formula, assumptions);
        digest.MixCall(session, status, formula.num_vars());
    }
    *purged = session.stats().purged_clauses;
    return digest.value();
}

TEST(SatGolden, SearchIsBitIdentical)
{
    uint64_t planted_purged = 0;
    uint64_t blasted_purged = 0;
    SearchDigest all;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        uint64_t purged = 0;
        for (const double var_decay : {0.95, 1.0, 0.5}) {
            all.Mix(PlantedSessionDigest(seed, var_decay, &purged));
            planted_purged += purged;
        }
        all.Mix(OneShotDigest(seed));
        all.Mix(BitBlastedSessionDigest(seed, &purged));
        blasted_purged += purged;
    }
    // The sessions must exercise PurgeLearned's compaction and reason
    // remapping, or the digest would not pin them.
    EXPECT_GT(planted_purged, 0u);
    EXPECT_GT(blasted_purged, 0u);
    EXPECT_EQ(all.value(), 0x74b2c9aeda178315ull) << std::hex << all.value();
}

// ---------------------------------------------------------------------------
// The two incremental loading paths run one search. The solver facade
// hands each query's cone to the CDCL instance clause by clause
// (BeginIncrement, LoadClause, SolveAssuming); a session fed the same
// clauses through SolveIncremental(CnfFormula) must take the same
// decisions, propagations, conflicts and learned clauses, and find the
// same models.
// ---------------------------------------------------------------------------

/// Appends \p count random clauses of one, three or four literals, each
/// satisfied by \p planted so the database never becomes unsat at the
/// root. Units are rare so most variables stay free.
void
AddPlantedMixedClauses(Rng* rng, const std::vector<bool>& planted,
                       int count, CnfFormula* formula)
{
    const int num_vars = static_cast<int>(planted.size()) - 1;
    for (int i = 0; i < count; ++i) {
        const size_t size = rng->Chance(0.02) ? 1 : 3 + rng->NextBelow(2);
        std::vector<Lit> clause;
        bool satisfied = false;
        for (size_t k = 0; k < size; ++k) {
            const int v = 1 + static_cast<int>(rng->NextBelow(num_vars));
            const bool positive = rng->Chance(0.5);
            clause.push_back(positive ? v : -v);
            satisfied |= (positive == planted[v]);
        }
        if (!satisfied) {
            const int v = std::abs(clause[0]);
            clause[0] = planted[v] ? v : -v;
        }
        formula->AddClause(clause);
    }
}

/// Runs one seeded session through both loading paths in lockstep. Each
/// step adds variables and clauses and solves under a fresh assumption
/// set (mostly against the planted model, so conflicts and purges
/// happen); both solvers are reset halfway. Every call must agree on
/// status, SatStats, loaded-clause count and model. Returns the digest of
/// the clause-by-clause calls; \p purged receives the learned clauses
/// purged before the reset.
uint64_t
LockstepLoadingDigest(uint64_t seed, uint64_t* purged)
{
    Rng rng(seed);
    SatSolver::Options options;
    options.max_learned_clauses = 8;
    options.restart_base = 25;
    SatSolver by_formula(options);
    SatSolver by_clause(options);
    CnfFormula formula;
    std::vector<bool> planted(1);
    size_t handed = 0;  // Clauses of `formula` given to by_clause.
    SearchDigest digest;
    for (int step = 0; step < 32; ++step) {
        if (step == 16) {
            *purged = by_clause.stats().purged_clauses;
            by_formula.Reset();
            by_clause.Reset();
            formula.Clear();
            planted.resize(1);
            handed = 0;
        }
        for (int v = 0; v < 8; ++v) {
            formula.NewVar();
            planted.push_back(rng.Chance(0.5));
        }
        AddPlantedMixedClauses(&rng, planted, 30, &formula);
        std::vector<Lit> assumptions;
        const size_t picks = 1 + rng.NextBelow(6);
        for (size_t k = 0; k < picks; ++k) {
            const int v =
                1 + static_cast<int>(rng.NextBelow(formula.num_vars()));
            const bool agree = rng.Chance(0.3);
            assumptions.push_back(planted[v] == agree ? v : -v);
        }

        const SatStatus expected =
            by_formula.SolveIncremental(formula, assumptions);
        by_clause.BeginIncrement(formula.num_vars());
        for (; handed < formula.num_clauses(); ++handed) {
            const ClauseView clause = formula.clause(handed);
            by_clause.LoadClause(clause.begin(), clause.size());
        }
        const SatStatus status = by_clause.SolveAssuming(assumptions);

        EXPECT_EQ(status, expected) << "seed " << seed << " step " << step;
        const SatStats& a = by_formula.stats();
        const SatStats& b = by_clause.stats();
        EXPECT_EQ(b.decisions, a.decisions) << "seed " << seed;
        EXPECT_EQ(b.propagations, a.propagations) << "seed " << seed;
        EXPECT_EQ(b.conflicts, a.conflicts) << "seed " << seed;
        EXPECT_EQ(b.restarts, a.restarts) << "seed " << seed;
        EXPECT_EQ(b.learned_clauses, a.learned_clauses) << "seed " << seed;
        EXPECT_EQ(b.purged_clauses, a.purged_clauses) << "seed " << seed;
        EXPECT_EQ(by_clause.loaded_clauses(), by_formula.loaded_clauses());
        if (status == SatStatus::kSat && expected == SatStatus::kSat) {
            for (int v = 1; v <= formula.num_vars(); ++v) {
                EXPECT_EQ(by_clause.ModelValue(v), by_formula.ModelValue(v))
                    << "seed " << seed << " step " << step << " var " << v;
            }
        }
        digest.MixCall(by_clause, status, formula.num_vars());
    }
    return digest.value();
}

TEST(SatIncrementalLoading, ClauseByClauseMatchesFormulaLoading)
{
    SearchDigest all;
    uint64_t purged_total = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        uint64_t purged = 0;
        all.Mix(LockstepLoadingDigest(seed, &purged));
        purged_total += purged;
    }
    // The sessions must reach PurgeLearned, or the learned-clause order
    // the two paths share would go unchecked.
    EXPECT_GT(purged_total, 0u);
    // Pins the shared search too: SolveIncremental(CnfFormula) gave this
    // digest before clause-at-a-time loading existed, so a change to the
    // loading routine both paths share (the watch choice, root units, the
    // activity bumps) moves it.
    EXPECT_EQ(all.value(), 0xd88bd38fb131eddbull) << std::hex << all.value();
}

}  // namespace
}  // namespace chef::solver
