#ifndef CHEF_SOLVER_EXPR_H_
#define CHEF_SOLVER_EXPR_H_

/// \file
/// Immutable bitvector expression DAG.
///
/// This is the constraint language shared by the whole system (the paper's
/// engines speak STP's QF_BV; this module is our STP-equivalent front end).
/// Expressions are fixed-width bitvectors of 1..64 bits; boolean values are
/// width-1 bitvectors. Nodes are immutable and reference counted; the
/// factory functions in this header perform constant folding and light
/// algebraic simplification so that fully concrete computations never reach
/// the SAT backend.
///
/// Small constants are interned: MakeConst returns one shared node per
/// (value, width) for values below kInternedConstantLimit, per thread.
/// Concolic values turn every concrete operand into a constant node, so
/// this saves an allocation on most operations that touch a symbolic
/// value. Interning is invisible to everything but pointer identity:
/// Expr::Equal and hash() are structural, and the bit-blaster maps every
/// constant to the fixed true literal, so the CNF does not change.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace chef::solver {

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

/// Expression node kinds.
enum class ExprKind : uint8_t {
    kConstant,
    kVariable,
    // Unary.
    kNot,       ///< Bitwise complement.
    kNeg,       ///< Two's complement negation.
    kZExt,      ///< Zero extension to the node's width.
    kSExt,      ///< Sign extension to the node's width.
    kExtract,   ///< Bit slice [offset, offset + width).
    // Binary arithmetic / bitwise.
    kAdd, kSub, kMul, kUDiv, kSDiv, kURem, kSRem,
    kAnd, kOr, kXor, kShl, kLShr, kAShr,
    kConcat,    ///< a is the high part, b the low part.
    // Comparisons; result width is 1.
    kEq, kUlt, kUle, kSlt, kSle,
    // Ternary.
    kIte,       ///< a ? b : c with a of width 1.
};

/// Returns a printable mnemonic for an expression kind.
const char* ExprKindName(ExprKind kind);

/// Returns the all-ones mask for a bitvector width (1..64). Inline: every
/// concolic operation calls it.
inline uint64_t
WidthMask(int width)
{
    CHEF_CHECK(width >= 1 && width <= 64);
    return (width == 64) ? ~0ull : ((1ull << width) - 1);
}

/// Sign-extends a width-bit value held in a uint64_t to 64 bits.
int64_t SignExtend(uint64_t value, int width);

/// A single immutable expression node. Construct only via the factory
/// functions below, which fold constants eagerly.
class Expr
{
  public:
    ExprKind kind() const { return kind_; }
    int width() const { return width_; }

    /// Constant payload; meaningful only for kConstant.
    uint64_t constant_value() const { return value_; }

    /// Variable payload; meaningful only for kVariable.
    uint32_t var_id() const { return var_id_; }
    const std::string& var_name() const { return name_; }

    /// Extract offset; meaningful only for kExtract.
    int extract_offset() const { return extract_offset_; }

    const ExprRef& a() const { return a_; }
    const ExprRef& b() const { return b_; }
    const ExprRef& c() const { return c_; }

    /// Structural hash, computed at construction.
    uint64_t hash() const { return hash_; }

    bool IsConstant() const { return kind_ == ExprKind::kConstant; }
    bool IsTrue() const { return IsConstant() && value_ == 1 && width_ == 1; }
    bool IsFalse() const { return IsConstant() && value_ == 0 && width_ == 1; }

    /// Deep structural equality (hash-accelerated).
    static bool Equal(const ExprRef& x, const ExprRef& y);

    /// Renders the expression as an s-expression (for debugging and tests).
    std::string ToString() const;

    // Node constructors are internal; use the Make* factories.
    Expr(ExprKind kind, int width, uint64_t value, uint32_t var_id,
         std::string name, int extract_offset, ExprRef a, ExprRef b,
         ExprRef c);

  private:
    ExprKind kind_;
    uint8_t width_;
    int extract_offset_ = 0;
    uint32_t var_id_ = 0;
    uint64_t value_ = 0;
    uint64_t hash_ = 0;
    std::string name_;
    ExprRef a_, b_, c_;
};

/// Assignment of concrete values to variables, keyed by variable id.
/// Unassigned variables evaluate to zero.
class Assignment
{
  public:
    void Set(uint32_t var_id, uint64_t value);
    uint64_t Get(uint32_t var_id) const;
    bool Has(uint32_t var_id) const;
    size_t size() const { return values_.size(); }
    const std::vector<std::pair<uint32_t, uint64_t>>& entries() const;

  private:
    // Sorted association list; variable counts are small (tens to a few
    // hundred input bytes), so this beats a hash map on locality.
    std::vector<std::pair<uint32_t, uint64_t>> values_;
};

// ---------------------------------------------------------------------------
// Factories (with eager constant folding).
// ---------------------------------------------------------------------------

/// Values (after masking to \p width) below this are interned per thread.
inline constexpr uint64_t kInternedConstantLimit = 256;

/// A constant node. For a masked value below kInternedConstantLimit the
/// same node is returned on every call from one thread.
ExprRef MakeConst(uint64_t value, int width);
ExprRef MakeBool(bool value);
ExprRef MakeVar(uint32_t var_id, const std::string& name, int width);

ExprRef MakeNot(const ExprRef& a);
ExprRef MakeNeg(const ExprRef& a);
ExprRef MakeZExt(const ExprRef& a, int width);
ExprRef MakeSExt(const ExprRef& a, int width);
ExprRef MakeExtract(const ExprRef& a, int offset, int width);

ExprRef MakeAdd(const ExprRef& a, const ExprRef& b);
ExprRef MakeSub(const ExprRef& a, const ExprRef& b);
ExprRef MakeMul(const ExprRef& a, const ExprRef& b);
ExprRef MakeUDiv(const ExprRef& a, const ExprRef& b);
ExprRef MakeSDiv(const ExprRef& a, const ExprRef& b);
ExprRef MakeURem(const ExprRef& a, const ExprRef& b);
ExprRef MakeSRem(const ExprRef& a, const ExprRef& b);
ExprRef MakeAnd(const ExprRef& a, const ExprRef& b);
ExprRef MakeOr(const ExprRef& a, const ExprRef& b);
ExprRef MakeXor(const ExprRef& a, const ExprRef& b);
ExprRef MakeShl(const ExprRef& a, const ExprRef& b);
ExprRef MakeLShr(const ExprRef& a, const ExprRef& b);
ExprRef MakeAShr(const ExprRef& a, const ExprRef& b);
ExprRef MakeConcat(const ExprRef& high, const ExprRef& low);

ExprRef MakeEq(const ExprRef& a, const ExprRef& b);
ExprRef MakeNe(const ExprRef& a, const ExprRef& b);
ExprRef MakeUlt(const ExprRef& a, const ExprRef& b);
ExprRef MakeUle(const ExprRef& a, const ExprRef& b);
ExprRef MakeUgt(const ExprRef& a, const ExprRef& b);
ExprRef MakeUge(const ExprRef& a, const ExprRef& b);
ExprRef MakeSlt(const ExprRef& a, const ExprRef& b);
ExprRef MakeSle(const ExprRef& a, const ExprRef& b);
ExprRef MakeSgt(const ExprRef& a, const ExprRef& b);
ExprRef MakeSge(const ExprRef& a, const ExprRef& b);

/// Boolean connectives over width-1 expressions.
ExprRef MakeBoolAnd(const ExprRef& a, const ExprRef& b);
ExprRef MakeBoolOr(const ExprRef& a, const ExprRef& b);
ExprRef MakeBoolNot(const ExprRef& a);

ExprRef MakeIte(const ExprRef& cond, const ExprRef& then_expr,
                const ExprRef& else_expr);

// ---------------------------------------------------------------------------
// Queries over expressions.
// ---------------------------------------------------------------------------

/// Evaluates the expression under a concrete assignment. The result is
/// masked to the expression width.
uint64_t EvalConcrete(const ExprRef& expr, const Assignment& assignment);

/// True iff the width-1 expressions are syntactic negations of each other
/// — exactly when Expr::Equal(a, MakeBoolNot(b)) would hold — but decided
/// without allocating the negated node. Used by the solver's syntactic-
/// contradiction fast path, which runs on every query.
bool IsSyntacticNegation(const ExprRef& a, const ExprRef& b);

/// Collects the distinct variables referenced by the expression, appending
/// them to \p out (deduplicated by variable id).
void CollectVariables(const ExprRef& expr, std::vector<ExprRef>* out);

/// Counts the number of distinct nodes in the DAG (for stats and tests).
size_t CountNodes(const ExprRef& expr);

}  // namespace chef::solver

#endif  // CHEF_SOLVER_EXPR_H_
