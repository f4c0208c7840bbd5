#include "minmach/util/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "minmach/obs/metrics.hpp"
#include "minmach/util/arena.hpp"

namespace minmach {

namespace {

using Limb = std::uint64_t;
using WideLimb = unsigned __int128;

constexpr WideLimb kLimbBase = static_cast<WideLimb>(1) << 64;

std::uint64_t magnitude_of(std::int64_t value) {
  // Negate in unsigned space so INT64_MIN does not overflow.
  return value < 0 ? ~static_cast<std::uint64_t>(value) + 1
                   : static_cast<std::uint64_t>(value);
}

std::size_t trim_mag(const Limb* mag, std::size_t n) {
  while (n > 0 && mag[n - 1] == 0) --n;
  return n;
}

int compare_mag(const Limb* a, std::size_t na, const Limb* b, std::size_t nb) {
  if (na != nb) return na < nb ? -1 : 1;
  for (std::size_t i = na; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// All magnitude kernels write into caller-provided scratch (arena memory)
// and return the trimmed limb count; none of them allocates.

// `out` must hold max(na, nb) + 1 limbs.
std::size_t add_mag(const Limb* a, std::size_t na, const Limb* b,
                    std::size_t nb, Limb* out) {
  if (na < nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  unsigned carry = 0;
  for (std::size_t i = 0; i < na; ++i) {
    Limb sum;
    unsigned c1 = __builtin_add_overflow(a[i], i < nb ? b[i] : 0, &sum);
    unsigned c2 = __builtin_add_overflow(sum, static_cast<Limb>(carry), &sum);
    carry = c1 | c2;
    out[i] = sum;
  }
  if (carry != 0) {
    out[na] = 1;
    return na + 1;
  }
  return na;
}

// Requires |a| >= |b|; `out` must hold na limbs.
std::size_t sub_mag(const Limb* a, std::size_t na, const Limb* b,
                    std::size_t nb, Limb* out) {
  unsigned borrow = 0;
  for (std::size_t i = 0; i < na; ++i) {
    Limb diff;
    unsigned b1 = __builtin_sub_overflow(a[i], i < nb ? b[i] : 0, &diff);
    unsigned b2 = __builtin_sub_overflow(diff, static_cast<Limb>(borrow),
                                         &diff);
    borrow = b1 | b2;
    out[i] = diff;
  }
  return trim_mag(out, na);
}

// `out` must hold na + nb limbs (zeroed here).
std::size_t mul_mag(const Limb* a, std::size_t na, const Limb* b,
                    std::size_t nb, Limb* out) {
  if (na == 0 || nb == 0) return 0;
  std::fill(out, out + na + nb, 0);
  for (std::size_t i = 0; i < na; ++i) {
    if (a[i] == 0) continue;
    Limb carry = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      WideLimb cur = static_cast<WideLimb>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    std::size_t k = i + nb;
    while (carry != 0) {
      WideLimb cur = static_cast<WideLimb>(out[k]) + carry;
      out[k] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
      ++k;
    }
  }
  return trim_mag(out, na + nb);
}

// Writes n + 1 limbs to `out`: the input shifted left by s bits (s < 64).
void shift_left_mag(const Limb* p, std::size_t n, int s, Limb* out) {
  if (s == 0) {
    std::copy(p, p + n, out);
    out[n] = 0;
    return;
  }
  out[0] = p[0] << s;
  for (std::size_t i = 1; i < n; ++i)
    out[i] = (p[i] << s) | (p[i - 1] >> (64 - s));
  out[n] = p[n - 1] >> (64 - s);
}

struct MagSpan {
  const Limb* data = nullptr;
  std::size_t size = 0;
};

// Knuth TAOCP vol. 2 algorithm D, base 2^64. Quotient, remainder, and the
// normalization scratch all live in `scope`; the spans stay valid until the
// caller's scope closes.
void div_mod_mag(const Limb* dividend, std::size_t nd, const Limb* divisor,
                 std::size_t nv, minmach::util::ArenaScope& scope,
                 MagSpan& quotient, MagSpan& remainder) {
  if (nv == 0) throw std::domain_error("BigInt: division by zero");
  if (nd == 0) return;  // 0 / x

  // Fast path: single-limb divisor.
  if (nv == 1) {
    Limb d = divisor[0];
    Limb* q = scope.alloc<Limb>(nd);
    Limb rem = 0;
    for (std::size_t i = nd; i-- > 0;) {
      WideLimb cur = (static_cast<WideLimb>(rem) << 64) | dividend[i];
      q[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    quotient = {q, trim_mag(q, nd)};
    if (rem != 0) {
      Limb* r = scope.alloc<Limb>(1);
      r[0] = rem;
      remainder = {r, 1};
    }
    return;
  }

  if (compare_mag(dividend, nd, divisor, nv) < 0) {
    remainder = {dividend, nd};
    return;
  }

  // D1: normalize so the top divisor limb has its high bit set. One arena
  // bump covers the normalized dividend, divisor, and quotient (m <= nd
  // because the trimmed divisor keeps at least two limbs).
  const int shift = std::countl_zero(divisor[nv - 1]);
  Limb* u = scope.alloc<Limb>(2 * nd + nv + 2);
  Limb* v = u + (nd + 1);
  shift_left_mag(dividend, nd, shift, u);
  shift_left_mag(divisor, nv, shift, v);
  const std::size_t n = trim_mag(v, nv + 1);
  const std::size_t m = (nd + 1) - n;  // quotient has at most m limbs

  Limb* q = v + (nv + 1);
  std::fill(q, q + m, 0);
  const WideLimb vn1 = v[n - 1];
  const WideLimb vn2 = v[n - 2];

  for (std::size_t j = m; j-- > 0;) {
    // D3: estimate q_hat from the top two dividend limbs, clamped to base-1
    // per Knuth so all intermediates below fit in 128 bits.
    WideLimb numerator = (static_cast<WideLimb>(u[j + n]) << 64) | u[j + n - 1];
    WideLimb q_hat = numerator / vn1;
    WideLimb r_hat = numerator % vn1;
    if (q_hat >= kLimbBase) {
      q_hat = kLimbBase - 1;
      r_hat = numerator - q_hat * vn1;
    }
    while (r_hat < kLimbBase &&
           q_hat * vn2 > ((r_hat << 64) | u[j + n - 2])) {
      --q_hat;
      r_hat += vn1;
    }
    // D4: multiply-subtract q_hat * v from u[j .. j+n].
    Limb mul_carry = 0;
    unsigned borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      WideLimb product =
          static_cast<WideLimb>(q_hat) * v[i] + mul_carry;
      Limb low = static_cast<Limb>(product);
      mul_carry = static_cast<Limb>(product >> 64);
      Limb diff;
      unsigned b1 = __builtin_sub_overflow(u[i + j], low, &diff);
      unsigned b2 =
          __builtin_sub_overflow(diff, static_cast<Limb>(borrow), &diff);
      borrow = b1 | b2;
      u[i + j] = diff;
    }
    Limb top;
    unsigned b1 = __builtin_sub_overflow(u[j + n], mul_carry, &top);
    unsigned b2 = __builtin_sub_overflow(top, static_cast<Limb>(borrow), &top);
    bool went_negative = (b1 | b2) != 0;
    u[j + n] = top;

    // D6: add back if the estimate was one too large.
    if (went_negative) {
      --q_hat;
      unsigned carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Limb sum;
        unsigned c1 = __builtin_add_overflow(u[i + j], v[i], &sum);
        unsigned c2 =
            __builtin_add_overflow(sum, static_cast<Limb>(carry), &sum);
        carry = c1 | c2;
        u[i + j] = sum;
      }
      u[j + n] += carry;
    }
    q[j] = static_cast<Limb>(q_hat);
  }

  quotient = {q, trim_mag(q, m)};

  // D8: de-normalize the remainder in place on u.
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      u[i] >>= shift;
      if (i + 1 < n) u[i] |= u[i + 1] << (64 - shift);
    }
  }
  remainder = {u, trim_mag(u, n)};
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int az = std::countr_zero(a);
  int bz = std::countr_zero(b);
  int shift = az < bz ? az : bz;
  a >>= az;
  // Binary gcd: both operands odd at the top of every iteration.
  while (b != 0) {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

int countr_zero_wide(WideLimb x) {
  const Limb low = static_cast<Limb>(x);
  return low != 0 ? std::countr_zero(low)
                  : 64 + std::countr_zero(static_cast<Limb>(x >> 64));
}

// Binary gcd on two-limb magnitudes. Once the smaller operand fits a limb,
// one remainder brings the larger down too and gcd_u64 finishes.
WideLimb gcd_u128(WideLimb a, WideLimb b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = countr_zero_wide(a | b);
  a >>= countr_zero_wide(a);
  // a odd and b nonzero at the top of every iteration.
  while (true) {
    b >>= countr_zero_wide(b);
    if (a > b) std::swap(a, b);
    if ((a >> 64) == 0) {
      const Limb g = gcd_u64(static_cast<Limb>(a), static_cast<Limb>(b % a));
      return static_cast<WideLimb>(g) << shift;
    }
    b -= a;
    if (b == 0) return a << shift;
  }
}

// Bits [shift, shift + 64) of a magnitude, zero past its end.
Limb bits_at(const Limb* mag, std::size_t n, std::size_t shift) {
  const std::size_t i = shift / 64;
  const int offset = static_cast<int>(shift % 64);
  if (i >= n) return 0;
  Limb out = mag[i] >> offset;
  if (offset != 0 && i + 1 < n) out |= mag[i + 1] << (64 - offset);
  return out;
}

// Lehmer's gcd on magnitudes (Knuth TAOCP vol. 2 §4.5.2), in the form
// CPython's long gcd uses: while |a| >= 2^128, run Euclid on the top 62 bits
// x of a and the same bits y of b, accepting a quotient only while
// Jebelean's test (cofactor <= remainder) proves it is also the quotient of
// the full operands. The accepted steps give a unimodular cofactor matrix,
// with every cofactor below 2^31, that one pass applies to both magnitudes;
// a round with no certain step takes one division remainder instead. The
// <= 2-limb tail runs binary gcd on __int128. Requires a >= b; the result
// may borrow a's storage or live in `scope`.
MagSpan gcd_mag(MagSpan a, MagSpan b, minmach::util::ArenaScope& scope) {
  while (a.size > 2) {
    if (b.size == 0) return a;
    const std::size_t shift =
        a.size * 64 - static_cast<std::size_t>(
                          std::countl_zero(a.data[a.size - 1])) - 62;
    Limb x = bits_at(a.data, a.size, shift);
    Limb y = bits_at(b.data, b.size, shift);
    // Cofactor magnitudes; the signs alternate with the step parity k.
    Limb ca = 1, cb = 0, cc = 0, cd = 1;
    int k = 0;
    for (;; ++k) {
      if (y == cc) break;
      const Limb q = (x + (ca - 1)) / (y - cc);
      const WideLimb qy = static_cast<WideLimb>(q) * y;
      if (qy > x) break;
      const Limb t = x - static_cast<Limb>(qy);
      const WideLimb s = cb + static_cast<WideLimb>(q) * cd;
      if (s > t) break;
      x = y;
      y = t;
      const Limb next = ca + q * cc;
      ca = cd;
      cb = cc;
      cc = static_cast<Limb>(s);
      cd = next;
    }
    if (k == 0) {
      MagSpan quotient;
      MagSpan remainder;
      div_mod_mag(a.data, a.size, b.data, b.size, scope, quotient, remainder);
      a = b;
      b = remainder;
      continue;
    }
    // Even k: a, b = ca*a - cb*b, cd*b - cc*a; odd k: a and b trade roles.
    // Both results are non-negative and at most a, so na limbs hold them.
    const bool odd = (k & 1) != 0;
    Limb* next_a = scope.alloc<Limb>(2 * a.size);
    Limb* next_b = next_a + a.size;
    using SignedWide = __int128;
    SignedWide carry_a = 0;
    SignedWide carry_b = 0;
    for (std::size_t i = 0; i < a.size; ++i) {
      const Limb ai = a.data[i];
      const Limb bi = i < b.size ? b.data[i] : 0;
      const Limb u = odd ? bi : ai;
      const Limb v = odd ? ai : bi;
      carry_a += static_cast<SignedWide>(static_cast<WideLimb>(ca) * u) -
                 static_cast<SignedWide>(static_cast<WideLimb>(cb) * v);
      carry_b += static_cast<SignedWide>(static_cast<WideLimb>(cd) * v) -
                 static_cast<SignedWide>(static_cast<WideLimb>(cc) * u);
      next_a[i] = static_cast<Limb>(carry_a);
      next_b[i] = static_cast<Limb>(carry_b);
      carry_a >>= 64;
      carry_b >>= 64;
    }
    b = {next_b, trim_mag(next_b, a.size)};
    a = {next_a, trim_mag(next_a, a.size)};
  }
  auto wide = [](MagSpan m) {
    WideLimb out = m.size > 0 ? m.data[0] : 0;
    if (m.size > 1) out |= static_cast<WideLimb>(m.data[1]) << 64;
    return out;
  };
  const WideLimb g = gcd_u128(wide(a), wide(b));
  Limb* out = scope.alloc<Limb>(2);
  out[0] = static_cast<Limb>(g);
  out[1] = static_cast<Limb>(g >> 64);
  return {out, trim_mag(out, 2)};
}

}  // namespace

// ---- LimbStore ---------------------------------------------------------

void BigInt::LimbStore::spill(std::size_t needed, bool preserve) {
  MINMACH_OBS_TALLY(bigint_spill);
  std::size_t new_cap = std::max<std::size_t>(needed, std::size_t{cap_} * 2);
  Limb* block = static_cast<Limb*>(::operator new(new_cap * sizeof(Limb)));
  if (preserve) std::copy(data(), data() + size_, block);
  ::operator delete(heap_);
  heap_ = block;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

void BigInt::LimbStore::assign(const Limb* src, std::size_t n) {
  if (n > cap_) [[unlikely]] spill(n, /*preserve=*/false);
  std::copy(src, src + n, data());
  size_ = static_cast<std::uint32_t>(n);
}

void BigInt::LimbStore::push_back(Limb limb) {
  if (size_ == cap_) [[unlikely]]
    spill(std::size_t{size_} + 1, /*preserve=*/true);
  data()[size_++] = limb;
}

void BigInt::LimbStore::steal(LimbStore& other) noexcept {
  heap_ = other.heap_;
  size_ = other.size_;
  cap_ = other.cap_;
  if (heap_ == nullptr)
    std::copy(other.inline_, other.inline_ + kInlineLimbs, inline_);
  other.heap_ = nullptr;
  other.size_ = 0;
  other.cap_ = kInlineLimbs;
}

// ---- BigInt ------------------------------------------------------------

BigInt::MagView BigInt::mag_view(Limb& scratch) const {
  if (!small_) return {limbs_.data(), limbs_.size()};
  scratch = magnitude_of(value_);
  return {&scratch, scratch == 0 ? std::size_t{0} : std::size_t{1}};
}

void BigInt::assign_mag(const Limb* mag, std::size_t size, bool negative) {
  size = trim_mag(mag, size);
  if (size == 0) {
    small_ = true;
    value_ = 0;
    negative_ = false;
    limbs_.clear();
    return;
  }
  if (size == 1) {
    Limb m = mag[0];
    if (m < (1ull << 63)) {
      small_ = true;
      value_ = negative ? -static_cast<std::int64_t>(m)
                        : static_cast<std::int64_t>(m);
      negative_ = false;
      limbs_.clear();
      return;
    }
    if (negative && m == (1ull << 63)) {
      small_ = true;
      value_ = INT64_MIN_VALUE;
      negative_ = false;
      limbs_.clear();
      return;
    }
  }
  MINMACH_OBS_TALLY(bigint_promotions);
  small_ = false;
  value_ = 0;
  negative_ = negative;
  limbs_.assign(mag, size);
}

BigInt BigInt::from_mag(const Limb* mag, std::size_t size, bool negative) {
  BigInt out;
  out.assign_mag(mag, size, negative);
  return out;
}

void BigInt::debug_force_promote() {
  if (!small_) return;
  std::uint64_t magnitude = magnitude_of(value_);
  negative_ = value_ < 0;
  limbs_.clear();
  if (magnitude != 0) limbs_.push_back(magnitude);
  if (limbs_.empty()) negative_ = false;
  small_ = false;
  value_ = 0;
}

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt: empty string");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) throw std::invalid_argument("BigInt: sign only");
  BigInt result;
  const BigInt ten(10);
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigInt: non-digit character");
    result *= ten;
    result += BigInt(c - '0');
  }
  if (negative) return result.negated();
  return result;
}

BigInt BigInt::abs() const {
  if (small_) {
    if (value_ == INT64_MIN_VALUE) {
      Limb m = 1ull << 63;
      return from_mag(&m, 1, false);
    }
    return BigInt(value_ < 0 ? -value_ : value_);
  }
  // from_mag re-canonicalizes: |x| may fit int64 even when x did not.
  return from_mag(limbs_.data(), limbs_.size(), false);
}

BigInt BigInt::negated() const {
  if (small_) {
    // -INT64_MIN does not fit int64; promote to the limb tier.
    if (value_ == INT64_MIN_VALUE) {
      Limb m = 1ull << 63;
      return from_mag(&m, 1, false);
    }
    return BigInt(-value_);
  }
  // from_mag re-canonicalizes: -2^63 demotes back to small INT64_MIN.
  return from_mag(limbs_.data(), limbs_.size(), !negative_ && !is_zero());
}

int BigInt::compare_slow(const BigInt& lhs, const BigInt& rhs) {
  bool lneg = lhs.is_negative();
  bool rneg = rhs.is_negative();
  if (lneg != rneg) return lneg ? -1 : 1;
  Limb ls;
  Limb rs;
  MagView lv = lhs.mag_view(ls);
  MagView rv = rhs.mag_view(rs);
  int mag = compare_mag(lv.data, lv.size, rv.data, rv.size);
  return lneg ? -mag : mag;
}

BigInt& BigInt::add_sub_slow(const BigInt& rhs, bool negate_rhs) {
  MINMACH_OBS_TALLY(bigint_slow_ops);
  bool lneg = is_negative();
  bool rneg = rhs.is_negative() != negate_rhs;
  if (rhs.is_zero()) rneg = false;
  Limb ls;
  Limb rs;
  MagView lv = mag_view(ls);
  MagView rv = rhs.mag_view(rs);
  util::ArenaScope scope(util::thread_arena());
  Limb* out = scope.alloc<Limb>(std::max(lv.size, rv.size) + 1);
  if (lneg == rneg) {
    assign_mag(out, add_mag(lv.data, lv.size, rv.data, rv.size, out), lneg);
    return *this;
  }
  int cmp = compare_mag(lv.data, lv.size, rv.data, rv.size);
  if (cmp == 0) {
    assign_mag(nullptr, 0, false);
    return *this;
  }
  if (cmp > 0) {
    assign_mag(out, sub_mag(lv.data, lv.size, rv.data, rv.size, out), lneg);
  } else {
    assign_mag(out, sub_mag(rv.data, rv.size, lv.data, lv.size, out), rneg);
  }
  return *this;
}

BigInt& BigInt::mul_slow(const BigInt& rhs) {
  MINMACH_OBS_TALLY(bigint_slow_ops);
  bool negative = is_negative() != rhs.is_negative();
  Limb ls;
  Limb rs;
  MagView lv = mag_view(ls);
  MagView rv = rhs.mag_view(rs);
  util::ArenaScope scope(util::thread_arena());
  Limb* out = scope.alloc<Limb>(lv.size + rv.size);
  assign_mag(out, mul_mag(lv.data, lv.size, rv.data, rv.size, out), negative);
  return *this;
}

BigIntDivMod BigInt::div_mod(const BigInt& dividend, const BigInt& divisor) {
  if (dividend.small_ && divisor.small_ && divisor.value_ != 0 &&
      !(dividend.value_ == INT64_MIN_VALUE && divisor.value_ == -1)) {
    return {BigInt(dividend.value_ / divisor.value_),
            BigInt(dividend.value_ % divisor.value_)};
  }
  Limb ds;
  Limb vs;
  MagView dv = dividend.mag_view(ds);
  MagView vv = divisor.mag_view(vs);
  util::ArenaScope scope(util::thread_arena());
  MagSpan q;
  MagSpan r;
  div_mod_mag(dv.data, dv.size, vv.data, vv.size, scope, q, r);
  BigIntDivMod out;
  bool qneg = dividend.is_negative() != divisor.is_negative();
  out.quotient.assign_mag(q.data, q.size, qneg);
  out.remainder.assign_mag(r.data, r.size, dividend.is_negative());
  return out;
}

BigInt& BigInt::div_slow(const BigInt& rhs) {
  MINMACH_OBS_TALLY(bigint_slow_ops);
  *this = div_mod(*this, rhs).quotient;
  return *this;
}

BigInt& BigInt::mod_slow(const BigInt& rhs) {
  MINMACH_OBS_TALLY(bigint_slow_ops);
  *this = div_mod(*this, rhs).remainder;
  return *this;
}

BigInt BigInt::gcd(const BigInt& a_in, const BigInt& b_in) {
  if (a_in.small_ && b_in.small_) {
    std::uint64_t g =
        gcd_u64(magnitude_of(a_in.value_), magnitude_of(b_in.value_));
    return from_mag(&g, 1, false);
  }
  // Lehmer's gcd on raw magnitudes in one arena scope. Rat normalization
  // runs this on every slow-tier operation, so no step materializes a
  // BigInt: the inputs are read in place (the small-tier scratch lives on
  // this frame) and every intermediate is a span of arena scratch until the
  // single from_mag at the end.
  util::ArenaScope scope(util::thread_arena());
  Limb as;
  Limb bs;
  MagView av = a_in.mag_view(as);
  MagView bv = b_in.mag_view(bs);
  MagSpan a{av.data, av.size};
  MagSpan b{bv.data, bv.size};
  if (compare_mag(a.data, a.size, b.data, b.size) < 0) std::swap(a, b);
  const MagSpan g = gcd_mag(a, b, scope);
  return from_mag(g.data, g.size, false);
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt(0);
  BigInt g = gcd(a, b);
  return (a / g * b).abs();
}

std::size_t BigInt::bit_length() const {
  if (small_) {
    std::uint64_t magnitude = magnitude_of(value_);
    return static_cast<std::size_t>(64 - std::countl_zero(magnitude)) *
           (magnitude != 0 ? 1 : 0);
  }
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<std::size_t>(64 - std::countl_zero(limbs_.back()));
}

bool BigInt::fits_int64() const {
  if (small_) return true;
  if (limbs_.empty()) return true;
  if (limbs_.size() > 1) return false;
  if (negative_) return limbs_[0] <= (1ull << 63);
  return limbs_[0] < (1ull << 63);
}

std::int64_t BigInt::to_int64() const {
  if (small_) return value_;
  if (!fits_int64()) throw std::overflow_error("BigInt: does not fit int64");
  std::uint64_t magnitude = limbs_.empty() ? 0 : limbs_[0];
  if (negative_) return static_cast<std::int64_t>(~magnitude + 1);
  return static_cast<std::int64_t>(magnitude);
}

double BigInt::to_double() const {
  if (small_) return static_cast<double>(value_);
  double result = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    result = result * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -result : result;
}

std::string BigInt::to_string() const {
  if (small_) return std::to_string(value_);
  if (limbs_.empty()) return "0";
  // Peel 19 decimal digits at a time via single-limb division by 1e19.
  util::ArenaScope scope(util::thread_arena());
  Limb* current = scope.alloc<Limb>(limbs_.size());
  std::copy(limbs_.data(), limbs_.data() + limbs_.size(), current);
  std::size_t len = limbs_.size();
  std::vector<std::uint64_t> chunks;
  constexpr Limb kChunk = 10000000000000000000ull;  // 1e19 < 2^64
  while (len != 0) {
    Limb rem = 0;
    for (std::size_t i = len; i-- > 0;) {
      WideLimb cur = (static_cast<WideLimb>(rem) << 64) | current[i];
      current[i] = static_cast<Limb>(cur / kChunk);
      rem = static_cast<Limb>(cur % kChunk);
    }
    len = trim_mag(current, len);
    chunks.push_back(rem);
  }
  std::string out;
  if (negative_) out.push_back('-');
  out += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(19 - part.size(), '0');
    out += part;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace minmach

