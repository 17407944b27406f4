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
/// Handles and nodes. An ExprRef is one pointer (8 bytes) to a node that
/// carries its own reference count, so every SymValue, path-condition link
/// and solver query holds a node at the cost of a pointer. A node is 40
/// bytes, one 40-byte slot of the node pool (support/node_pool.h), which
/// hands it out and takes it back without a lock or a malloc call. It holds
/// the count, kind, width and extract offset in one word, the cached
/// structural hash, and three words for the two child handles and a third
/// word shared by two uses. An inner node keeps its third child there and has
/// no payload; a leaf has no children and keeps its payload there, the
/// constant value or the variable id. The accessors hide the sharing: a
/// leaf's children read null and an inner node's payloads read 0. A path
/// condition can keep a few hundred thousand nodes alive at once, so their
/// size is most of a long exploration's memory. Nodes hold no variable names:
/// a variable is its id, whose name and width LowLevelRuntime keeps in its
/// VarDecl list, and ToString renders it as v<id>.
///
/// The count is atomic, so a handle may be copied or dropped on any
/// thread. A session makes and drops its nodes on its own thread; what
/// still crosses threads is an interned constant, which outlives the
/// thread that made it while a handle to it does. As in libstdc++'s
/// shared_ptr, a process that has never started a second thread changes
/// counts with plain loads and stores (SingleThreaded), which keeps a
/// locked instruction off every copy in a one-thread session. Dropping
/// the last handle to a node frees it and every descendant it held the
/// last reference to in a loop, not by recursion, so a chain of any depth
/// is released in constant stack.
///
/// Small constants are interned: MakeConst returns one shared node per
/// (value, width) for values below kInternedConstantLimit, per thread.
/// Concolic values turn every concrete operand into a constant node, so
/// this saves an allocation on most operations that touch a symbolic
/// value. Interning is invisible to everything but pointer identity:
/// Expr::Equal and hash() are structural, and the bit-blaster maps every
/// constant to the fixed true literal, so the CNF does not change.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/diagnostics.h"
#include "support/node_pool.h"

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#endif

namespace chef::solver {

class Expr;

/// An owning handle to an immutable expression node (or null): the subset
/// of std::shared_ptr<const Expr> that expression code uses, in one
/// pointer. Copying takes a reference, destruction drops one.
class ExprRef
{
  public:
    constexpr ExprRef() noexcept = default;
    constexpr ExprRef(std::nullptr_t) noexcept {}
    /// Takes a new reference to \p node, which may be null.
    explicit ExprRef(const Expr* node) noexcept;
    ExprRef(const ExprRef& other) noexcept : ExprRef(other.node_) {}
    ExprRef(ExprRef&& other) noexcept
        : node_(std::exchange(other.node_, nullptr))
    {
    }
    ~ExprRef() { reset(); }

    ExprRef&
    operator=(const ExprRef& other) noexcept
    {
        ExprRef(other).swap(*this);
        return *this;
    }
    ExprRef&
    operator=(ExprRef&& other) noexcept
    {
        ExprRef(std::move(other)).swap(*this);
        return *this;
    }

    const Expr* get() const noexcept { return node_; }
    const Expr* operator->() const noexcept { return node_; }
    const Expr& operator*() const noexcept { return *node_; }
    explicit operator bool() const noexcept { return node_ != nullptr; }

    /// Drops this handle's reference; the handle becomes null.
    void reset() noexcept;
    /// Handles to the node (0 when null). Exact only while no other
    /// thread copies or drops one.
    long use_count() const noexcept;
    void swap(ExprRef& other) noexcept { std::swap(node_, other.node_); }

    friend bool
    operator==(const ExprRef& x, const ExprRef& y) noexcept
    {
        return x.node_ == y.node_;
    }
    friend bool
    operator!=(const ExprRef& x, const ExprRef& y) noexcept
    {
        return x.node_ != y.node_;
    }
    friend bool
    operator==(const ExprRef& x, std::nullptr_t) noexcept
    {
        return x.node_ == nullptr;
    }
    friend bool
    operator!=(const ExprRef& x, std::nullptr_t) noexcept
    {
        return x.node_ != nullptr;
    }
    friend bool
    operator==(std::nullptr_t, const ExprRef& x) noexcept
    {
        return x.node_ == nullptr;
    }
    friend bool
    operator!=(std::nullptr_t, const ExprRef& x) noexcept
    {
        return x.node_ != nullptr;
    }

  private:
    friend class Expr;

    /// Wraps a node whose count already includes this handle.
    struct Adopt {};
    ExprRef(const Expr* node, Adopt) noexcept : node_(node) {}

    const Expr* node_ = nullptr;
};

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
    Expr(const Expr&) = delete;
    Expr& operator=(const Expr&) = delete;

    ExprKind kind() const { return kind_; }
    int width() const { return width_; }

    /// Constant payload; 0 unless kConstant.
    uint64_t constant_value() const { return IsConstant() ? value_ : 0; }

    /// Variable payload; 0 unless kVariable.
    uint32_t var_id() const
    {
        return kind_ == ExprKind::kVariable ? static_cast<uint32_t>(value_)
                                            : 0;
    }

    /// Extract offset; meaningful only for kExtract.
    int extract_offset() const { return extract_offset_; }

    /// The children; null handles on leaves (constants and variables).
    const ExprRef& a() const { return a_; }
    const ExprRef& b() const { return b_; }
    const ExprRef& c() const { return IsLeaf() ? kNoChild : c_; }

    /// Structural hash, computed at construction.
    uint64_t hash() const { return hash_; }

    bool IsConstant() const { return kind_ == ExprKind::kConstant; }
    bool IsTrue() const { return IsConstant() && value_ == 1 && width_ == 1; }
    bool IsFalse() const { return IsConstant() && value_ == 0 && width_ == 1; }
    /// A constant or a variable: a node with a payload and no children.
    bool IsLeaf() const { return kind_ <= ExprKind::kVariable; }

    /// Deep structural equality (hash-accelerated).
    static bool Equal(const ExprRef& x, const ExprRef& y);

    /// Renders the expression as an s-expression (for debugging and tests);
    /// a variable reads v<id>.
    std::string ToString() const;

    /// Allocates a node. Internal: use the Make* factories.
    static ExprRef New(ExprKind kind, int width, uint64_t value,
                       uint32_t var_id, int extract_offset, ExprRef a,
                       ExprRef b, ExprRef c);

  private:
    friend class ExprRef;

    Expr(ExprKind kind, int width, uint64_t value, uint32_t var_id,
         int extract_offset, ExprRef a, ExprRef b, ExprRef c);
    /// Destroy has emptied the child handles already.
    ~Expr() {}

    /// Nodes live in the node pool.
    static void*
    operator new(std::size_t size)
    {
        return support::PoolAllocate(size);
    }
    static void
    operator delete(void* ptr, std::size_t size) noexcept
    {
        support::PoolFree(ptr, size);
    }

    /// What c() returns on a leaf.
    static const ExprRef kNoChild;

    /// True while the process has never started a second thread. glibc
    /// keeps the flag, and libstdc++'s shared_ptr reads it the same way:
    /// until then a count can change with plain loads and stores.
    /// Starting a thread clears it for good, and that start orders the
    /// earlier plain writes before anything the new thread does.
    static bool
    SingleThreaded() noexcept
    {
#if __has_include(<sys/single_threaded.h>)
        return ::__libc_single_threaded != 0;
#else
        return false;
#endif
    }

    /// Takes one reference.
    void
    Ref() const noexcept
    {
        if (SingleThreaded()) {
            refs_.store(refs_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
        } else {
            refs_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /// Drops one reference; true when it was the last. A count of one is
    /// the caller's own reference: no other thread can take one, so the
    /// node is freed without a decrement.
    bool
    Unref() const noexcept
    {
        const uint32_t refs = refs_.load(std::memory_order_acquire);
        if (refs == 1) {
            return true;
        }
        if (SingleThreaded()) {
            refs_.store(refs - 1, std::memory_order_relaxed);
            return false;
        }
        return refs_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }

    /// Frees \p node, whose count has reached zero, and every descendant
    /// it held the last reference to, in a loop.
    static void Destroy(const Expr* node) noexcept;

    mutable std::atomic<uint32_t> refs_{1};
    ExprKind kind_;
    uint8_t width_;
    uint8_t extract_offset_;  ///< Below 64: MakeExtract checks the range.
    /// Also links a dead node into Destroy's list of nodes to free.
    uint64_t hash_ = 0;
    /// Null on leaves.
    ExprRef a_, b_;
    /// A leaf has no third child, an inner node no payload: they share a
    /// word. value_ is the constant value or the variable id.
    union {
        ExprRef c_;
        uint64_t value_;
    };
};

inline ExprRef::ExprRef(const Expr* node) noexcept : node_(node)
{
    if (node_ != nullptr) {
        node_->Ref();
    }
}

inline void
ExprRef::reset() noexcept
{
    const Expr* node = std::exchange(node_, nullptr);
    if (node != nullptr && node->Unref()) {
        Expr::Destroy(node);
    }
}

inline long
ExprRef::use_count() const noexcept
{
    return node_ != nullptr
               ? static_cast<long>(
                     node_->refs_.load(std::memory_order_relaxed))
               : 0;
}

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
/// The input variable \p var_id; its name lives with its declaration
/// (LowLevelRuntime's VarDecl), not in the node.
ExprRef MakeVar(uint32_t var_id, int width);

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
