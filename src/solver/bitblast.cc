#include "solver/bitblast.h"

#include <algorithm>
#include <cstdlib>

#include "support/diagnostics.h"

namespace chef::solver {

BitBlaster::BitBlaster(CnfFormula* cnf) : cnf_(cnf) {}

void
BitBlaster::Define(std::initializer_list<Lit> clause)
{
    const int output = cnf_->num_vars();
    CHEF_CHECK_MSG(std::any_of(clause.begin(), clause.end(),
                               [output](Lit lit) {
                                   return std::abs(lit) == output;
                               }),
                   "gate clause outside its output's definition range");
    Lit lits[3];
    CHEF_CHECK(clause.size() <= 3);
    std::copy(clause.begin(), clause.end(), lits);
    cnf_->AddClause(lits, clause.size());
}

Lit
BitBlaster::TrueLit()
{
    if (true_lit_ == 0) {
        true_lit_ = cnf_->NewVar();
        Define({true_lit_});
    }
    return true_lit_;
}

Lit
BitBlaster::GateAnd(Lit a, Lit b)
{
    if (IsFalseLit(a) || IsFalseLit(b)) return FalseLit();
    if (IsTrueLit(a)) return b;
    if (IsTrueLit(b)) return a;
    if (a == b) return a;
    if (a == -b) return FalseLit();
    const Lit out = cnf_->NewVar();
    Define({-a, -b, out});
    Define({a, -out});
    Define({b, -out});
    return out;
}

Lit
BitBlaster::GateOr(Lit a, Lit b)
{
    return -GateAnd(-a, -b);
}

Lit
BitBlaster::GateXor(Lit a, Lit b)
{
    if (IsFalseLit(a)) return b;
    if (IsFalseLit(b)) return a;
    if (IsTrueLit(a)) return -b;
    if (IsTrueLit(b)) return -a;
    if (a == b) return FalseLit();
    if (a == -b) return TrueLit();
    const Lit out = cnf_->NewVar();
    Define({-out, a, b});
    Define({-out, -a, -b});
    Define({out, -a, b});
    Define({out, a, -b});
    return out;
}

Lit
BitBlaster::GateIte(Lit c, Lit t, Lit e)
{
    if (IsTrueLit(c)) return t;
    if (IsFalseLit(c)) return e;
    if (t == e) return t;
    if (IsTrueLit(t) && IsFalseLit(e)) return c;
    if (IsFalseLit(t) && IsTrueLit(e)) return -c;
    if (IsTrueLit(t)) return GateOr(c, e);
    if (IsFalseLit(t)) return GateAnd(-c, e);
    if (IsTrueLit(e)) return GateOr(-c, t);
    if (IsFalseLit(e)) return GateAnd(c, t);
    const Lit out = cnf_->NewVar();
    Define({-c, -t, out});
    Define({-c, t, -out});
    Define({c, -e, out});
    Define({c, e, -out});
    return out;
}

Lit
BitBlaster::GateAndMany(const std::vector<Lit>& lits)
{
    Lit acc = TrueLit();
    for (Lit lit : lits) {
        acc = GateAnd(acc, lit);
    }
    return acc;
}

Lit
BitBlaster::GateOrMany(const std::vector<Lit>& lits)
{
    Lit acc = FalseLit();
    for (Lit lit : lits) {
        acc = GateOr(acc, lit);
    }
    return acc;
}

std::vector<Lit>
BitBlaster::Adder(const std::vector<Lit>& a, const std::vector<Lit>& b,
                  Lit carry_in, Lit* carry_out)
{
    CHEF_CHECK(a.size() == b.size());
    std::vector<Lit> sum(a.size());
    Lit carry = carry_in;
    for (size_t i = 0; i < a.size(); ++i) {
        const Lit axb = GateXor(a[i], b[i]);
        sum[i] = GateXor(axb, carry);
        // carry' = (a & b) | (carry & (a ^ b))
        carry = GateOr(GateAnd(a[i], b[i]), GateAnd(carry, axb));
    }
    if (carry_out != nullptr) {
        *carry_out = carry;
    }
    return sum;
}

std::vector<Lit>
BitBlaster::Negate(const std::vector<Lit>& a)
{
    std::vector<Lit> inverted(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        inverted[i] = -a[i];
    }
    return Adder(inverted, ConstBits(0, static_cast<int>(a.size())),
                 TrueLit(), nullptr);
}

Lit
BitBlaster::UltCircuit(const std::vector<Lit>& a, const std::vector<Lit>& b)
{
    CHEF_CHECK(a.size() == b.size());
    // a < b  <=>  no carry out of a + ~b + 1.
    std::vector<Lit> b_inverted(b.size());
    for (size_t i = 0; i < b.size(); ++i) {
        b_inverted[i] = -b[i];
    }
    Lit carry_out = 0;
    Adder(a, b_inverted, TrueLit(), &carry_out);
    return -carry_out;
}

Lit
BitBlaster::EqCircuit(const std::vector<Lit>& a, const std::vector<Lit>& b)
{
    CHEF_CHECK(a.size() == b.size());
    Lit acc = TrueLit();
    for (size_t i = 0; i < a.size(); ++i) {
        acc = GateAnd(acc, -GateXor(a[i], b[i]));
    }
    return acc;
}

std::vector<Lit>
BitBlaster::Mux(Lit cond, const std::vector<Lit>& then_bits,
                const std::vector<Lit>& else_bits)
{
    CHEF_CHECK(then_bits.size() == else_bits.size());
    std::vector<Lit> out(then_bits.size());
    for (size_t i = 0; i < then_bits.size(); ++i) {
        out[i] = GateIte(cond, then_bits[i], else_bits[i]);
    }
    return out;
}

std::vector<Lit>
BitBlaster::Multiplier(const std::vector<Lit>& a, const std::vector<Lit>& b)
{
    CHEF_CHECK(a.size() == b.size());
    const size_t width = a.size();
    std::vector<Lit> acc = ConstBits(0, static_cast<int>(width));
    for (size_t i = 0; i < width; ++i) {
        if (IsFalseLit(b[i])) {
            continue;
        }
        // addend = (a << i) & b[i], truncated to width.
        std::vector<Lit> addend(width, FalseLit());
        for (size_t j = i; j < width; ++j) {
            addend[j] = GateAnd(a[j - i], b[i]);
        }
        acc = Adder(acc, addend, FalseLit(), nullptr);
    }
    return acc;
}

void
BitBlaster::Divider(const std::vector<Lit>& a, const std::vector<Lit>& b,
                    std::vector<Lit>* quotient,
                    std::vector<Lit>* remainder)
{
    const size_t width = a.size();
    CHEF_CHECK(b.size() == width);
    // Restoring division on a (width+1)-bit remainder register.
    const size_t ext = width + 1;
    std::vector<Lit> b_ext = b;
    b_ext.push_back(FalseLit());
    std::vector<Lit> rem(ext, FalseLit());
    std::vector<Lit> q(width, FalseLit());
    for (size_t step = 0; step < width; ++step) {
        const size_t bit = width - 1 - step;
        // rem = (rem << 1) | a[bit]; the top bit shifts out but is always
        // zero because rem < b <= 2^width - 1 before the shift.
        for (size_t i = ext - 1; i > 0; --i) {
            rem[i] = rem[i - 1];
        }
        rem[0] = a[bit];
        const Lit geq = -UltCircuit(rem, b_ext);
        q[bit] = geq;
        const std::vector<Lit> diff =
            Adder(rem, [&] {
                std::vector<Lit> inverted(ext);
                for (size_t i = 0; i < ext; ++i) {
                    inverted[i] = -b_ext[i];
                }
                return inverted;
            }(), TrueLit(), nullptr);
        rem = Mux(geq, diff, rem);
    }
    // Division by zero follows SMT-LIB: q = all ones, r = a.
    const Lit b_is_zero = EqCircuit(b, ConstBits(0, static_cast<int>(width)));
    std::vector<Lit> rem_trunc(rem.begin(), rem.begin() + width);
    *quotient = Mux(b_is_zero,
                    ConstBits(WidthMask(static_cast<int>(width)),
                              static_cast<int>(width)),
                    q);
    *remainder = Mux(b_is_zero, a, rem_trunc);
}

std::vector<Lit>
BitBlaster::Shifter(ExprKind kind, const std::vector<Lit>& a,
                    const std::vector<Lit>& b)
{
    const size_t width = a.size();
    CHEF_CHECK(b.size() == width);
    const Lit fill_msb =
        (kind == ExprKind::kAShr) ? a[width - 1] : FalseLit();

    // Barrel shifter over the low stage bits.
    size_t stages = 0;
    while ((1ull << stages) < width) {
        ++stages;
    }
    std::vector<Lit> current = a;
    for (size_t s = 0; s < stages && s < width; ++s) {
        const size_t amount = 1ull << s;
        std::vector<Lit> shifted(width);
        for (size_t i = 0; i < width; ++i) {
            if (kind == ExprKind::kShl) {
                shifted[i] =
                    (i >= amount) ? current[i - amount] : FalseLit();
            } else {
                shifted[i] = (i + amount < width) ? current[i + amount]
                                                  : fill_msb;
            }
        }
        current = Mux(b[s], shifted, current);
    }
    // Out-of-range shift amounts (>= width) produce the fill value.
    const Lit oob = -UltCircuit(
        b, ConstBits(static_cast<uint64_t>(width),
                     static_cast<int>(width)));
    const std::vector<Lit> fill(width, fill_msb);
    return Mux(oob, fill, current);
}

std::vector<Lit>
BitBlaster::ConstBits(uint64_t value, int width)
{
    std::vector<Lit> bits(width);
    for (int i = 0; i < width; ++i) {
        bits[i] = LitConst((value >> i) & 1);
    }
    return bits;
}

std::vector<Lit>
BitBlaster::Blast(const ExprRef& expr)
{
    auto it = cache_.find(expr.get());
    if (it != cache_.end()) {
        return it->second.bits;
    }
    std::vector<Lit> bits = BlastNode(expr.get());
    CHEF_CHECK(bits.size() == static_cast<size_t>(expr->width()));
    cache_.emplace(expr.get(), BlastedNode{expr, bits});
    return bits;
}

Lit
BitBlaster::BlastBool(const ExprRef& expr)
{
    CHEF_CHECK(expr->width() == 1);
    return Blast(expr)[0];
}

std::vector<Lit>
BitBlaster::BlastNode(const Expr* e)
{
    const int width = e->width();
    switch (e->kind()) {
      case ExprKind::kConstant:
        return ConstBits(e->constant_value(), width);
      case ExprKind::kVariable: {
        auto it = vars_.find(e->var_id());
        if (it != vars_.end()) {
            return it->second.bits;
        }
        VarInfo info;
        info.bits.resize(width);
        for (int i = 0; i < width; ++i) {
            info.bits[i] = cnf_->NewVar();
        }
        auto inserted = vars_.emplace(e->var_id(), std::move(info));
        return inserted.first->second.bits;
      }
      case ExprKind::kNot: {
        std::vector<Lit> bits = Blast(e->a());
        for (Lit& bit : bits) {
            bit = -bit;
        }
        return bits;
      }
      case ExprKind::kNeg:
        return Negate(Blast(e->a()));
      case ExprKind::kZExt: {
        std::vector<Lit> bits = Blast(e->a());
        bits.resize(width, FalseLit());
        return bits;
      }
      case ExprKind::kSExt: {
        std::vector<Lit> bits = Blast(e->a());
        const Lit sign = bits.back();
        bits.resize(width, sign);
        return bits;
      }
      case ExprKind::kExtract: {
        const std::vector<Lit> bits = Blast(e->a());
        return std::vector<Lit>(
            bits.begin() + e->extract_offset(),
            bits.begin() + e->extract_offset() + width);
      }
      case ExprKind::kConcat: {
        std::vector<Lit> low = Blast(e->b());
        const std::vector<Lit> high = Blast(e->a());
        low.insert(low.end(), high.begin(), high.end());
        return low;
      }
      case ExprKind::kIte:
        return Mux(Blast(e->a())[0], Blast(e->b()), Blast(e->c()));
      default:
        break;
    }

    const std::vector<Lit> a = Blast(e->a());
    const std::vector<Lit> b = Blast(e->b());
    switch (e->kind()) {
      case ExprKind::kAdd:
        return Adder(a, b, FalseLit(), nullptr);
      case ExprKind::kSub: {
        std::vector<Lit> b_inverted(b.size());
        for (size_t i = 0; i < b.size(); ++i) {
            b_inverted[i] = -b[i];
        }
        return Adder(a, b_inverted, TrueLit(), nullptr);
      }
      case ExprKind::kMul:
        return Multiplier(a, b);
      case ExprKind::kUDiv: {
        std::vector<Lit> q, r;
        Divider(a, b, &q, &r);
        return q;
      }
      case ExprKind::kURem: {
        std::vector<Lit> q, r;
        Divider(a, b, &q, &r);
        return r;
      }
      case ExprKind::kSDiv:
      case ExprKind::kSRem: {
        const Lit a_neg = a.back();
        const Lit b_neg = b.back();
        const std::vector<Lit> abs_a = Mux(a_neg, Negate(a), a);
        const std::vector<Lit> abs_b = Mux(b_neg, Negate(b), b);
        std::vector<Lit> q, r;
        Divider(abs_a, abs_b, &q, &r);
        if (e->kind() == ExprKind::kSDiv) {
            const Lit flip = GateXor(a_neg, b_neg);
            // Division by zero keeps SMT-LIB unsigned-path semantics; the
            // Divider already special-cases b == 0 on the absolute values,
            // and the sign mux below matches the sdiv definition closely
            // enough for our (division-by-nonzero) guest semantics, which
            // guard division by zero at the interpreter level.
            return Mux(flip, Negate(q), q);
        }
        return Mux(a_neg, Negate(r), r);
      }
      case ExprKind::kAnd: {
        std::vector<Lit> out(a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            out[i] = GateAnd(a[i], b[i]);
        }
        return out;
      }
      case ExprKind::kOr: {
        std::vector<Lit> out(a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            out[i] = GateOr(a[i], b[i]);
        }
        return out;
      }
      case ExprKind::kXor: {
        std::vector<Lit> out(a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            out[i] = GateXor(a[i], b[i]);
        }
        return out;
      }
      case ExprKind::kShl:
      case ExprKind::kLShr:
      case ExprKind::kAShr:
        return Shifter(e->kind(), a, b);
      case ExprKind::kEq:
        return {EqCircuit(a, b)};
      case ExprKind::kUlt:
        return {UltCircuit(a, b)};
      case ExprKind::kUle:
        return {-UltCircuit(b, a)};
      case ExprKind::kSlt: {
        // slt(a,b) = (sign(a) ^ sign(b)) ? sign(a) : ult(a,b)
        const Lit sign_differs = GateXor(a.back(), b.back());
        return {GateIte(sign_differs, a.back(), UltCircuit(a, b))};
      }
      case ExprKind::kSle: {
        const Lit sign_differs = GateXor(a.back(), b.back());
        return {GateIte(sign_differs, a.back(), -UltCircuit(b, a))};
      }
      default:
        CHEF_UNREACHABLE("unhandled expression kind in bit blaster");
    }
}

void
BitBlaster::AssertTrue(const ExprRef& expr)
{
    CHEF_CHECK(expr->width() == 1);
    const std::vector<Lit> bits = Blast(expr);
    // A root unit, not a definition: it lands in the newest variable's
    // range, so formulas loaded by cone never hold one (the incremental
    // session passes BlastBool literals as assumptions instead).
    cnf_->AddUnit(bits[0]);
}

uint64_t
BitBlaster::ModelValue(const SatSolver& sat, uint32_t var_id) const
{
    auto it = vars_.find(var_id);
    CHEF_CHECK(it != vars_.end());
    uint64_t value = 0;
    const std::vector<Lit>& bits = it->second.bits;
    for (size_t i = 0; i < bits.size(); ++i) {
        const Lit lit = bits[i];
        const bool bit_value =
            (lit > 0) ? sat.ModelValue(lit) : !sat.ModelValue(-lit);
        if (bit_value) {
            value |= 1ull << i;
        }
    }
    return value;
}

}  // namespace chef::solver
