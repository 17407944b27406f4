#include "solver/expr.h"

#include <algorithm>
#include <array>
#include <memory>
#include <new>
#include <unordered_set>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace chef::solver {

const char*
ExprKindName(ExprKind kind)
{
    switch (kind) {
      case ExprKind::kConstant: return "const";
      case ExprKind::kVariable: return "var";
      case ExprKind::kNot: return "not";
      case ExprKind::kNeg: return "neg";
      case ExprKind::kZExt: return "zext";
      case ExprKind::kSExt: return "sext";
      case ExprKind::kExtract: return "extract";
      case ExprKind::kAdd: return "add";
      case ExprKind::kSub: return "sub";
      case ExprKind::kMul: return "mul";
      case ExprKind::kUDiv: return "udiv";
      case ExprKind::kSDiv: return "sdiv";
      case ExprKind::kURem: return "urem";
      case ExprKind::kSRem: return "srem";
      case ExprKind::kAnd: return "and";
      case ExprKind::kOr: return "or";
      case ExprKind::kXor: return "xor";
      case ExprKind::kShl: return "shl";
      case ExprKind::kLShr: return "lshr";
      case ExprKind::kAShr: return "ashr";
      case ExprKind::kConcat: return "concat";
      case ExprKind::kEq: return "eq";
      case ExprKind::kUlt: return "ult";
      case ExprKind::kUle: return "ule";
      case ExprKind::kSlt: return "slt";
      case ExprKind::kSle: return "sle";
      case ExprKind::kIte: return "ite";
    }
    return "?";
}

int64_t
SignExtend(uint64_t value, int width)
{
    CHEF_CHECK(width >= 1 && width <= 64);
    if (width == 64) {
        return static_cast<int64_t>(value);
    }
    const uint64_t sign_bit = 1ull << (width - 1);
    const uint64_t masked = value & WidthMask(width);
    return static_cast<int64_t>((masked ^ sign_bit) - sign_bit);
}

const ExprRef Expr::kNoChild;

Expr::Expr(ExprKind kind, int width, uint64_t value, uint32_t var_id,
           int extract_offset, ExprRef a, ExprRef b, ExprRef c)
    : kind_(kind),
      width_(static_cast<uint8_t>(width)),
      extract_offset_(static_cast<uint8_t>(extract_offset)),
      a_(std::move(a)),
      b_(std::move(b)),
      value_(kind == ExprKind::kConstant ? value : var_id)
{
    CHEF_CHECK(width >= 1 && width <= 64);
    if (IsLeaf()) {
        CHEF_CHECK(!a_ && !b_ && !c);
    } else {
        // An inner node's third child takes the payload's word.
        CHEF_CHECK(value == 0 && var_id == 0);
        new (&c_) ExprRef(std::move(c));
    }
    uint64_t h = HashCombine(static_cast<uint64_t>(kind_), width_);
    h = HashCombine(h, constant_value());
    h = HashCombine(h, this->var_id());
    h = HashCombine(h, static_cast<uint64_t>(extract_offset_));
    if (a_) h = HashCombine(h, a_->hash());
    if (b_) h = HashCombine(h, b_->hash());
    if (!IsLeaf() && c_) h = HashCombine(h, c_->hash());
    hash_ = h;
}

ExprRef
Expr::New(ExprKind kind, int width, uint64_t value, uint32_t var_id,
          int extract_offset, ExprRef a, ExprRef b, ExprRef c)
{
    return ExprRef(new Expr(kind, width, value, var_id, extract_offset,
                            std::move(a), std::move(b), std::move(c)),
                   ExprRef::Adopt{});
}

void
Expr::Destroy(const Expr* node) noexcept
{
    // Nodes are created non-const (New), so the casts are sound. The
    // nodes still to free form a stack threaded through their hash_ fields,
    // which no one reads once the count is zero.
    Expr* dead = const_cast<Expr*>(node);
    dead->hash_ = 0;
    while (dead != nullptr) {
        Expr* next =
            reinterpret_cast<Expr*>(static_cast<uintptr_t>(dead->hash_));
        if (!dead->IsLeaf()) {
            for (ExprRef* child : {&dead->a_, &dead->b_, &dead->c_}) {
                const Expr* kid = std::exchange(child->node_, nullptr);
                if (kid != nullptr && kid->Unref()) {
                    Expr* freed = const_cast<Expr*>(kid);
                    freed->hash_ = reinterpret_cast<uintptr_t>(next);
                    next = freed;
                }
            }
        }
        delete dead;  // Its child handles are null: nothing recurses.
        dead = next;
    }
}

bool
Expr::Equal(const ExprRef& x, const ExprRef& y)
{
    if (x.get() == y.get()) {
        return true;
    }
    if (!x || !y) {
        return false;
    }
    if (x->hash_ != y->hash_ || x->kind_ != y->kind_ ||
        x->width_ != y->width_ ||
        x->extract_offset_ != y->extract_offset_) {
        return false;
    }
    if (x->IsLeaf()) {
        return x->value_ == y->value_;
    }
    return Equal(x->a_, y->a_) && Equal(x->b_, y->b_) && Equal(x->c_, y->c_);
}

std::string
Expr::ToString() const
{
    switch (kind_) {
      case ExprKind::kConstant:
        return std::to_string(value_) + ":" + std::to_string(width_);
      case ExprKind::kVariable:
        return "v" + std::to_string(var_id());
      case ExprKind::kExtract:
        return std::string("(extract ") + std::to_string(extract_offset_) +
               " " + std::to_string(width_) + " " + a_->ToString() + ")";
      default: {
        std::string out = std::string("(") + ExprKindName(kind_);
        if (kind_ == ExprKind::kZExt || kind_ == ExprKind::kSExt) {
            out += " " + std::to_string(width_);
        }
        for (const ExprRef* child : {&a_, &b_, &c_}) {
            if (*child) {
                out += " " + (*child)->ToString();
            }
        }
        out += ")";
        return out;
      }
    }
}

void
Assignment::Set(uint32_t var_id, uint64_t value)
{
    auto it = std::lower_bound(
        values_.begin(), values_.end(), var_id,
        [](const auto& entry, uint32_t id) { return entry.first < id; });
    if (it != values_.end() && it->first == var_id) {
        it->second = value;
    } else {
        values_.insert(it, {var_id, value});
    }
}

uint64_t
Assignment::Get(uint32_t var_id) const
{
    auto it = std::lower_bound(
        values_.begin(), values_.end(), var_id,
        [](const auto& entry, uint32_t id) { return entry.first < id; });
    if (it != values_.end() && it->first == var_id) {
        return it->second;
    }
    return 0;
}

bool
Assignment::Has(uint32_t var_id) const
{
    auto it = std::lower_bound(
        values_.begin(), values_.end(), var_id,
        [](const auto& entry, uint32_t id) { return entry.first < id; });
    return it != values_.end() && it->first == var_id;
}

const std::vector<std::pair<uint32_t, uint64_t>>&
Assignment::entries() const
{
    return values_;
}

namespace {

ExprRef
MakeNode(ExprKind kind, int width, ExprRef a, ExprRef b = nullptr,
         ExprRef c = nullptr, int extract_offset = 0)
{
    return Expr::New(kind, width, 0, 0, extract_offset, std::move(a),
                     std::move(b), std::move(c));
}

bool
IsConst(const ExprRef& e, uint64_t value)
{
    return e->IsConstant() && e->constant_value() == value;
}

bool
IsAllOnes(const ExprRef& e)
{
    return e->IsConstant() &&
           e->constant_value() == WidthMask(e->width());
}

}  // namespace

ExprRef
MakeConst(uint64_t value, int width)
{
    const uint64_t masked = value & WidthMask(width);
    const auto make = [masked, width] {
        return Expr::New(ExprKind::kConstant, width, masked, 0, 0, nullptr,
                         nullptr, nullptr);
    };
    if (masked >= kInternedConstantLimit) {
        return make();
    }
    // One table of kInternedConstantLimit nodes per width, made on the
    // width's first use. Per thread, so the lookup takes no lock; a node
    // handed to another thread stays alive through its reference count.
    using WidthTable = std::array<ExprRef, kInternedConstantLimit>;
    thread_local std::array<std::unique_ptr<WidthTable>, 64> tables;
    std::unique_ptr<WidthTable>& table = tables[width - 1];
    if (!table) {
        table = std::make_unique<WidthTable>();
    }
    ExprRef& node = (*table)[masked];
    if (!node) {
        node = make();
    }
    return node;
}

ExprRef
MakeBool(bool value)
{
    return MakeConst(value ? 1 : 0, 1);
}

ExprRef
MakeVar(uint32_t var_id, int width)
{
    return Expr::New(ExprKind::kVariable, width, 0, var_id, 0, nullptr,
                     nullptr, nullptr);
}

ExprRef
MakeNot(const ExprRef& a)
{
    if (a->IsConstant()) {
        return MakeConst(~a->constant_value(), a->width());
    }
    if (a->kind() == ExprKind::kNot) {
        return a->a();
    }
    return MakeNode(ExprKind::kNot, a->width(), a);
}

ExprRef
MakeNeg(const ExprRef& a)
{
    if (a->IsConstant()) {
        return MakeConst(-a->constant_value(), a->width());
    }
    return MakeNode(ExprKind::kNeg, a->width(), a);
}

ExprRef
MakeZExt(const ExprRef& a, int width)
{
    CHEF_CHECK(width >= a->width());
    if (width == a->width()) {
        return a;
    }
    if (a->IsConstant()) {
        return MakeConst(a->constant_value(), width);
    }
    return MakeNode(ExprKind::kZExt, width, a);
}

ExprRef
MakeSExt(const ExprRef& a, int width)
{
    CHEF_CHECK(width >= a->width());
    if (width == a->width()) {
        return a;
    }
    if (a->IsConstant()) {
        return MakeConst(
            static_cast<uint64_t>(SignExtend(a->constant_value(),
                                             a->width())),
            width);
    }
    return MakeNode(ExprKind::kSExt, width, a);
}

ExprRef
MakeExtract(const ExprRef& a, int offset, int width)
{
    CHEF_CHECK(offset >= 0 && width >= 1 && offset + width <= a->width());
    if (offset == 0 && width == a->width()) {
        return a;
    }
    if (a->IsConstant()) {
        return MakeConst(a->constant_value() >> offset, width);
    }
    // (extract off w (extract off2 w2 x)) = (extract (off+off2) w x)
    if (a->kind() == ExprKind::kExtract) {
        return MakeExtract(a->a(), offset + a->extract_offset(), width);
    }
    // Extracting the low part of a concat reaches through to the low child.
    if (a->kind() == ExprKind::kConcat) {
        const int low_width = a->b()->width();
        if (offset + width <= low_width) {
            return MakeExtract(a->b(), offset, width);
        }
        if (offset >= low_width) {
            return MakeExtract(a->a(), offset - low_width, width);
        }
    }
    // Extracting the low bits of a zext/sext that stay within the original.
    if ((a->kind() == ExprKind::kZExt || a->kind() == ExprKind::kSExt) &&
        offset + width <= a->a()->width()) {
        return MakeExtract(a->a(), offset, width);
    }
    return MakeNode(ExprKind::kExtract, width, a, nullptr, nullptr, offset);
}

#define CHEF_CHECK_SAME_WIDTH(a, b) CHEF_CHECK((a)->width() == (b)->width())

ExprRef
MakeAdd(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() + b->constant_value(),
                         a->width());
    }
    if (IsConst(a, 0)) return b;
    if (IsConst(b, 0)) return a;
    return MakeNode(ExprKind::kAdd, a->width(), a, b);
}

ExprRef
MakeSub(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() - b->constant_value(),
                         a->width());
    }
    if (IsConst(b, 0)) return a;
    if (Expr::Equal(a, b)) return MakeConst(0, a->width());
    return MakeNode(ExprKind::kSub, a->width(), a, b);
}

ExprRef
MakeMul(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() * b->constant_value(),
                         a->width());
    }
    if (IsConst(a, 0) || IsConst(b, 0)) return MakeConst(0, a->width());
    if (IsConst(a, 1)) return b;
    if (IsConst(b, 1)) return a;
    // Multiplication by a power of two is a shift.
    for (const ExprRef* operand : {&b, &a}) {
        const ExprRef& c = *operand;
        if (c->IsConstant() &&
            (c->constant_value() & (c->constant_value() - 1)) == 0) {
            int shift = 0;
            while ((1ull << shift) != c->constant_value()) {
                ++shift;
            }
            return MakeShl(Expr::Equal(c, b) ? a : b,
                           MakeConst(static_cast<uint64_t>(shift),
                                     a->width()));
        }
    }
    return MakeNode(ExprKind::kMul, a->width(), a, b);
}

ExprRef
MakeUDiv(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        // SMT-LIB semantics: x udiv 0 = all ones.
        if (b->constant_value() == 0) {
            return MakeConst(WidthMask(a->width()), a->width());
        }
        return MakeConst(a->constant_value() / b->constant_value(),
                         a->width());
    }
    if (IsConst(b, 1)) return a;
    // Division by a power of two is a logical shift.
    if (b->IsConstant() && (b->constant_value() &
                            (b->constant_value() - 1)) == 0 &&
        b->constant_value() != 0) {
        int shift = 0;
        while ((1ull << shift) != b->constant_value()) {
            ++shift;
        }
        return MakeLShr(a, MakeConst(static_cast<uint64_t>(shift),
                                     a->width()));
    }
    return MakeNode(ExprKind::kUDiv, a->width(), a, b);
}

ExprRef
MakeSDiv(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        const int64_t bv = SignExtend(b->constant_value(), b->width());
        const int64_t av = SignExtend(a->constant_value(), a->width());
        if (bv == 0) {
            // SMT-LIB: x sdiv 0 = (x < 0) ? 1 : -1.
            return MakeConst(av < 0 ? 1 : WidthMask(a->width()), a->width());
        }
        if (av == INT64_MIN && bv == -1) {
            return MakeConst(a->constant_value(), a->width());
        }
        return MakeConst(static_cast<uint64_t>(av / bv), a->width());
    }
    if (IsConst(b, 1)) return a;
    return MakeNode(ExprKind::kSDiv, a->width(), a, b);
}

ExprRef
MakeURem(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        // SMT-LIB semantics: x urem 0 = x.
        if (b->constant_value() == 0) {
            return a;
        }
        return MakeConst(a->constant_value() % b->constant_value(),
                         a->width());
    }
    if (IsConst(b, 1)) return MakeConst(0, a->width());
    // Remainder by a power of two is a mask.
    if (b->IsConstant() && (b->constant_value() &
                            (b->constant_value() - 1)) == 0 &&
        b->constant_value() != 0) {
        return MakeAnd(a, MakeConst(b->constant_value() - 1, a->width()));
    }
    return MakeNode(ExprKind::kURem, a->width(), a, b);
}

ExprRef
MakeSRem(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        const int64_t bv = SignExtend(b->constant_value(), b->width());
        const int64_t av = SignExtend(a->constant_value(), a->width());
        if (bv == 0) {
            return a;
        }
        if (av == INT64_MIN && bv == -1) {
            return MakeConst(0, a->width());
        }
        return MakeConst(static_cast<uint64_t>(av % bv), a->width());
    }
    return MakeNode(ExprKind::kSRem, a->width(), a, b);
}

ExprRef
MakeAnd(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() & b->constant_value(),
                         a->width());
    }
    if (IsConst(a, 0) || IsConst(b, 0)) return MakeConst(0, a->width());
    if (IsAllOnes(a)) return b;
    if (IsAllOnes(b)) return a;
    if (Expr::Equal(a, b)) return a;
    return MakeNode(ExprKind::kAnd, a->width(), a, b);
}

ExprRef
MakeOr(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() | b->constant_value(),
                         a->width());
    }
    if (IsConst(a, 0)) return b;
    if (IsConst(b, 0)) return a;
    if (IsAllOnes(a)) return a;
    if (IsAllOnes(b)) return b;
    if (Expr::Equal(a, b)) return a;
    return MakeNode(ExprKind::kOr, a->width(), a, b);
}

ExprRef
MakeXor(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeConst(a->constant_value() ^ b->constant_value(),
                         a->width());
    }
    if (IsConst(a, 0)) return b;
    if (IsConst(b, 0)) return a;
    if (Expr::Equal(a, b)) return MakeConst(0, a->width());
    return MakeNode(ExprKind::kXor, a->width(), a, b);
}

namespace {

/// Common shift folding: shifts of >= width bits have defined results.
ExprRef
FoldShift(ExprKind kind, const ExprRef& a, const ExprRef& b)
{
    const int width = a->width();
    if (b->IsConstant()) {
        const uint64_t amount = b->constant_value();
        if (amount == 0) {
            return a;
        }
        if (amount >= static_cast<uint64_t>(width)) {
            if (kind == ExprKind::kAShr) {
                // Fills with sign bit.
                if (a->IsConstant()) {
                    const int64_t sa = SignExtend(a->constant_value(), width);
                    return MakeConst(sa < 0 ? WidthMask(width) : 0, width);
                }
            } else {
                return MakeConst(0, width);
            }
        } else if (a->IsConstant()) {
            switch (kind) {
              case ExprKind::kShl:
                return MakeConst(a->constant_value() << amount, width);
              case ExprKind::kLShr:
                return MakeConst(
                    (a->constant_value() & WidthMask(width)) >> amount,
                    width);
              case ExprKind::kAShr:
                return MakeConst(
                    static_cast<uint64_t>(
                        SignExtend(a->constant_value(), width) >>
                        amount),
                    width);
              default:
                break;
            }
        }
    }
    return nullptr;
}

}  // namespace

ExprRef
MakeShl(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (ExprRef folded = FoldShift(ExprKind::kShl, a, b)) return folded;
    return MakeNode(ExprKind::kShl, a->width(), a, b);
}

ExprRef
MakeLShr(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (ExprRef folded = FoldShift(ExprKind::kLShr, a, b)) return folded;
    return MakeNode(ExprKind::kLShr, a->width(), a, b);
}

ExprRef
MakeAShr(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (ExprRef folded = FoldShift(ExprKind::kAShr, a, b)) return folded;
    return MakeNode(ExprKind::kAShr, a->width(), a, b);
}

ExprRef
MakeConcat(const ExprRef& high, const ExprRef& low)
{
    const int width = high->width() + low->width();
    CHEF_CHECK(width <= 64);
    if (high->IsConstant() && low->IsConstant()) {
        return MakeConst((high->constant_value() << low->width()) |
                             low->constant_value(),
                         width);
    }
    // A zero high part is a zext.
    if (IsConst(high, 0)) {
        return MakeZExt(low, width);
    }
    return MakeNode(ExprKind::kConcat, width, high, low);
}

ExprRef
MakeEq(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeBool(a->constant_value() == b->constant_value());
    }
    if (Expr::Equal(a, b)) {
        return MakeBool(true);
    }
    // Boolean equality against a constant simplifies to the operand or its
    // negation.
    if (a->width() == 1) {
        if (a->IsConstant()) {
            return a->constant_value() ? b : MakeBoolNot(b);
        }
        if (b->IsConstant()) {
            return b->constant_value() ? a : MakeBoolNot(a);
        }
    }
    return MakeNode(ExprKind::kEq, 1, a, b);
}

ExprRef
MakeNe(const ExprRef& a, const ExprRef& b)
{
    return MakeBoolNot(MakeEq(a, b));
}

ExprRef
MakeUlt(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeBool(a->constant_value() < b->constant_value());
    }
    if (IsConst(b, 0)) return MakeBool(false);
    if (Expr::Equal(a, b)) return MakeBool(false);
    return MakeNode(ExprKind::kUlt, 1, a, b);
}

ExprRef
MakeUle(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeBool(a->constant_value() <= b->constant_value());
    }
    if (IsConst(a, 0)) return MakeBool(true);
    if (Expr::Equal(a, b)) return MakeBool(true);
    return MakeNode(ExprKind::kUle, 1, a, b);
}

ExprRef
MakeUgt(const ExprRef& a, const ExprRef& b)
{
    return MakeUlt(b, a);
}

ExprRef
MakeUge(const ExprRef& a, const ExprRef& b)
{
    return MakeUle(b, a);
}

ExprRef
MakeSlt(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeBool(SignExtend(a->constant_value(), a->width()) <
                        SignExtend(b->constant_value(), b->width()));
    }
    if (Expr::Equal(a, b)) return MakeBool(false);
    return MakeNode(ExprKind::kSlt, 1, a, b);
}

ExprRef
MakeSle(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK_SAME_WIDTH(a, b);
    if (a->IsConstant() && b->IsConstant()) {
        return MakeBool(SignExtend(a->constant_value(), a->width()) <=
                        SignExtend(b->constant_value(), b->width()));
    }
    if (Expr::Equal(a, b)) return MakeBool(true);
    return MakeNode(ExprKind::kSle, 1, a, b);
}

ExprRef
MakeSgt(const ExprRef& a, const ExprRef& b)
{
    return MakeSlt(b, a);
}

ExprRef
MakeSge(const ExprRef& a, const ExprRef& b)
{
    return MakeSle(b, a);
}

ExprRef
MakeBoolAnd(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK(a->width() == 1 && b->width() == 1);
    return MakeAnd(a, b);
}

ExprRef
MakeBoolOr(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK(a->width() == 1 && b->width() == 1);
    return MakeOr(a, b);
}

ExprRef
MakeBoolNot(const ExprRef& a)
{
    CHEF_CHECK(a->width() == 1);
    return MakeNot(a);
}

bool
IsSyntacticNegation(const ExprRef& a, const ExprRef& b)
{
    CHEF_CHECK(a->width() == 1 && b->width() == 1);
    // Mirrors MakeBoolNot's folding: the negation of a kNot node is its
    // operand, the negation of anything else is a kNot wrapper, and
    // constants fold. Checking both orientations covers MakeBoolNot's
    // double-negation collapse without building a node.
    if (a->kind() == ExprKind::kNot && Expr::Equal(a->a(), b)) {
        return true;
    }
    if (b->kind() == ExprKind::kNot && Expr::Equal(b->a(), a)) {
        return true;
    }
    return a->IsConstant() && b->IsConstant() &&
           ((a->constant_value() ^ b->constant_value()) & 1) == 1;
}

ExprRef
MakeIte(const ExprRef& cond, const ExprRef& then_expr,
        const ExprRef& else_expr)
{
    CHEF_CHECK(cond->width() == 1);
    CHEF_CHECK_SAME_WIDTH(then_expr, else_expr);
    if (cond->IsConstant()) {
        return cond->constant_value() ? then_expr : else_expr;
    }
    if (Expr::Equal(then_expr, else_expr)) {
        return then_expr;
    }
    // Boolean ite with constant arms reduces to cond or its negation.
    if (then_expr->width() == 1 && then_expr->IsConstant() &&
        else_expr->IsConstant()) {
        return then_expr->constant_value() ? cond : MakeBoolNot(cond);
    }
    return MakeNode(ExprKind::kIte, then_expr->width(), cond, then_expr,
                    else_expr);
}

uint64_t
EvalConcrete(const ExprRef& expr, const Assignment& assignment)
{
    const Expr* e = expr.get();
    const int width = e->width();
    const uint64_t mask = WidthMask(width);
    switch (e->kind()) {
      case ExprKind::kConstant:
        return e->constant_value() & mask;
      case ExprKind::kVariable:
        return assignment.Get(e->var_id()) & mask;
      case ExprKind::kNot:
        return ~EvalConcrete(e->a(), assignment) & mask;
      case ExprKind::kNeg:
        return (-EvalConcrete(e->a(), assignment)) & mask;
      case ExprKind::kZExt:
        return EvalConcrete(e->a(), assignment) & mask;
      case ExprKind::kSExt:
        return static_cast<uint64_t>(
                   SignExtend(EvalConcrete(e->a(), assignment),
                              e->a()->width())) &
               mask;
      case ExprKind::kExtract:
        return (EvalConcrete(e->a(), assignment) >> e->extract_offset()) &
               mask;
      default:
        break;
    }
    if (e->kind() == ExprKind::kIte) {
        return EvalConcrete(e->a(), assignment)
                   ? EvalConcrete(e->b(), assignment)
                   : EvalConcrete(e->c(), assignment);
    }
    const uint64_t av = EvalConcrete(e->a(), assignment);
    const uint64_t bv = e->b() ? EvalConcrete(e->b(), assignment) : 0;
    const int aw = e->a()->width();
    switch (e->kind()) {
      case ExprKind::kAdd: return (av + bv) & mask;
      case ExprKind::kSub: return (av - bv) & mask;
      case ExprKind::kMul: return (av * bv) & mask;
      case ExprKind::kUDiv:
        return (bv == 0 ? mask : (av / bv)) & mask;
      case ExprKind::kURem:
        return (bv == 0 ? av : (av % bv)) & mask;
      case ExprKind::kSDiv: {
        const int64_t sa = SignExtend(av, aw);
        const int64_t sb = SignExtend(bv, aw);
        if (sb == 0) return (sa < 0 ? 1 : mask) & mask;
        if (sa == INT64_MIN && sb == -1) return av & mask;
        return static_cast<uint64_t>(sa / sb) & mask;
      }
      case ExprKind::kSRem: {
        const int64_t sa = SignExtend(av, aw);
        const int64_t sb = SignExtend(bv, aw);
        if (sb == 0) return av & mask;
        if (sa == INT64_MIN && sb == -1) return 0;
        return static_cast<uint64_t>(sa % sb) & mask;
      }
      case ExprKind::kAnd: return av & bv;
      case ExprKind::kOr: return av | bv;
      case ExprKind::kXor: return av ^ bv;
      case ExprKind::kShl:
        return (bv >= static_cast<uint64_t>(width)) ? 0 : (av << bv) & mask;
      case ExprKind::kLShr:
        return (bv >= static_cast<uint64_t>(width)) ? 0 : (av >> bv);
      case ExprKind::kAShr: {
        const int64_t sa = SignExtend(av, width);
        if (bv >= static_cast<uint64_t>(width)) {
            return (sa < 0 ? mask : 0);
        }
        return static_cast<uint64_t>(sa >> bv) & mask;
      }
      case ExprKind::kConcat:
        return ((av << e->b()->width()) | bv) & mask;
      case ExprKind::kEq: return av == bv;
      case ExprKind::kUlt: return av < bv;
      case ExprKind::kUle: return av <= bv;
      case ExprKind::kSlt:
        return SignExtend(av, aw) < SignExtend(bv, aw);
      case ExprKind::kSle:
        return SignExtend(av, aw) <= SignExtend(bv, aw);
      default:
        CHEF_UNREACHABLE("unhandled expression kind in EvalConcrete");
    }
}

namespace {

void
CollectVariablesImpl(const ExprRef& expr,
                     std::unordered_set<const Expr*>* visited,
                     std::unordered_set<uint32_t>* seen_ids,
                     std::vector<ExprRef>* out)
{
    if (!expr || visited->count(expr.get())) {
        return;
    }
    visited->insert(expr.get());
    if (expr->kind() == ExprKind::kVariable) {
        if (seen_ids->insert(expr->var_id()).second) {
            out->push_back(expr);
        }
        return;
    }
    CollectVariablesImpl(expr->a(), visited, seen_ids, out);
    CollectVariablesImpl(expr->b(), visited, seen_ids, out);
    CollectVariablesImpl(expr->c(), visited, seen_ids, out);
}

void
CountNodesImpl(const ExprRef& expr,
               std::unordered_set<const Expr*>* visited)
{
    if (!expr || visited->count(expr.get())) {
        return;
    }
    visited->insert(expr.get());
    CountNodesImpl(expr->a(), visited);
    CountNodesImpl(expr->b(), visited);
    CountNodesImpl(expr->c(), visited);
}

}  // namespace

void
CollectVariables(const ExprRef& expr, std::vector<ExprRef>* out)
{
    std::unordered_set<const Expr*> visited;
    std::unordered_set<uint32_t> seen_ids;
    for (const ExprRef& existing : *out) {
        seen_ids.insert(existing->var_id());
    }
    CollectVariablesImpl(expr, &visited, &seen_ids, out);
}

size_t
CountNodes(const ExprRef& expr)
{
    std::unordered_set<const Expr*> visited;
    CountNodesImpl(expr, &visited);
    return visited.size();
}

}  // namespace chef::solver
