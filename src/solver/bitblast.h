#ifndef CHEF_SOLVER_BITBLAST_H_
#define CHEF_SOLVER_BITBLAST_H_

/// \file
/// Tseitin bit-blasting of bitvector expressions to CNF.
///
/// Each expression node is lowered to a vector of CNF literals, least
/// significant bit first. Gate-level peepholes keep circuits involving
/// constant bits small (comparisons against literals, which dominate path
/// conditions, largely collapse).

#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "solver/expr.h"
#include "solver/sat.h"

namespace chef::solver {

/// Lowers expressions into a CnfFormula and tracks input variables so a
/// satisfying SAT model can be mapped back to bitvector values.
///
/// The node→literal memo owns a reference to every node it caches, so a
/// BitBlaster may outlive the queries it served: a long-lived instance
/// (the solver's incremental session) blasts a path's shared prefix once
/// and answers later queries' repeated nodes from the memo, appending
/// only the new nodes' clauses to the formula.
class BitBlaster
{
  public:
    explicit BitBlaster(CnfFormula* cnf);

    /// Lowers \p expr; returns its literals, LSB first.
    std::vector<Lit> Blast(const ExprRef& expr);

    /// Lowers the width-1 expression \p expr and returns its single
    /// literal — used as an assumption by the incremental backend, which
    /// must constrain the expression per-query without asserting it into
    /// the formula permanently.
    Lit BlastBool(const ExprRef& expr);

    /// Asserts that the width-1 expression \p expr is true, as a root
    /// unit clause. For one-shot formulas only: the unit sits outside
    /// every definition range (see CnfFormula), so a formula that is
    /// loaded by cone must take its assertions as assumptions.
    void AssertTrue(const ExprRef& expr);

    /// Bitvector input variable that appeared during blasting.
    struct VarInfo {
        std::vector<Lit> bits;  ///< LSB first.
    };

    /// Variables encountered so far, keyed by variable id.
    const std::unordered_map<uint32_t, VarInfo>& variables() const
    {
        return vars_;
    }

    /// Reads back the value of a blasted variable from a SAT model.
    uint64_t ModelValue(const SatSolver& sat, uint32_t var_id) const;

  private:
    Lit TrueLit();
    Lit FalseLit() { return -TrueLit(); }
    bool IsTrueLit(Lit lit) { return lit == TrueLit(); }
    bool IsFalseLit(Lit lit) { return lit == -TrueLit(); }
    Lit LitConst(bool value) { return value ? TrueLit() : FalseLit(); }

    /// Adds one clause of the newest variable's definition range and
    /// checks that it mentions that variable, the gate output allocated
    /// just before.
    void Define(std::initializer_list<Lit> clause);

    // Gates (with constant peepholes). Each returns a literal equivalent to
    // the gate output.
    Lit GateAnd(Lit a, Lit b);
    Lit GateOr(Lit a, Lit b);
    Lit GateXor(Lit a, Lit b);
    Lit GateIte(Lit c, Lit t, Lit e);
    Lit GateAndMany(const std::vector<Lit>& lits);
    Lit GateOrMany(const std::vector<Lit>& lits);

    // Word-level circuits; vectors are LSB first and equal width unless
    // noted.
    std::vector<Lit> Adder(const std::vector<Lit>& a,
                           const std::vector<Lit>& b, Lit carry_in,
                           Lit* carry_out);
    std::vector<Lit> Negate(const std::vector<Lit>& a);
    Lit UltCircuit(const std::vector<Lit>& a, const std::vector<Lit>& b);
    Lit EqCircuit(const std::vector<Lit>& a, const std::vector<Lit>& b);
    std::vector<Lit> Mux(Lit cond, const std::vector<Lit>& then_bits,
                         const std::vector<Lit>& else_bits);
    std::vector<Lit> Multiplier(const std::vector<Lit>& a,
                                const std::vector<Lit>& b);
    void Divider(const std::vector<Lit>& a, const std::vector<Lit>& b,
                 std::vector<Lit>* quotient, std::vector<Lit>* remainder);
    std::vector<Lit> Shifter(ExprKind kind, const std::vector<Lit>& a,
                             const std::vector<Lit>& b);
    std::vector<Lit> ConstBits(uint64_t value, int width);

    std::vector<Lit> BlastNode(const Expr* e);

    /// Memo entry; owns the node so pointer-keyed entries stay valid for
    /// the blaster's whole lifetime (a dead node's address could
    /// otherwise be reused by a structurally different expression).
    struct BlastedNode {
        ExprRef node;
        std::vector<Lit> bits;
    };

    CnfFormula* cnf_;
    Lit true_lit_ = 0;
    std::unordered_map<const Expr*, BlastedNode> cache_;
    std::unordered_map<uint32_t, VarInfo> vars_;
};

}  // namespace chef::solver

#endif  // CHEF_SOLVER_BITBLAST_H_
