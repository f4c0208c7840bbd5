#include "minmach/util/rational.hpp"

#include <bit>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "minmach/obs/metrics.hpp"
#include "minmach/util/simd.hpp"

namespace minmach {

namespace {

using I128 = __int128;
using U128 = unsigned __int128;

std::uint64_t mag64(std::int64_t value) {
  return value < 0 ? ~static_cast<std::uint64_t>(value) + 1
                   : static_cast<std::uint64_t>(value);
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int az = std::countr_zero(a);
  int bz = std::countr_zero(b);
  int shift = az < bz ? az : bz;
  a >>= az;
  while (b != 0) {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

bool fits_i64(I128 value) {
  return value >= static_cast<I128>(INT64_MIN) &&
         value <= static_cast<I128>(INT64_MAX);
}

bool both_small(const BigInt& a, const BigInt& b) {
  return a.is_small() && b.is_small();
}

// Every game runs at speed 1, so `remaining / speed` on a limb-tier Rat
// would otherwise pay two gcds and BigInt divisions by 1.
bool is_one(const Rat& value) {
  return value.num() == BigInt(1) && value.den() == BigInt(1);
}

}  // namespace

Rat::Rat(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
  if (den_.is_zero()) throw std::domain_error("Rat: zero denominator");
  normalize();
}

void Rat::normalize() {
  if (both_small(num_, den_)) {
    std::int64_t n = num_.small_value();
    std::int64_t d = den_.small_value();
    // INT64_MIN magnitudes negate/divide awkwardly in int64; let the BigInt
    // path canonicalize those (its results demote back automatically).
    if (n != INT64_MIN && d != INT64_MIN) {
      if (n == 0) {
        den_ = BigInt(1);
        return;
      }
      if (d < 0) {
        n = -n;
        d = -d;
      }
      std::uint64_t g = gcd_u64(mag64(n), static_cast<std::uint64_t>(d));
      if (g > 1) {
        n /= static_cast<std::int64_t>(g);
        d /= static_cast<std::int64_t>(g);
      }
      num_ = BigInt(n);
      den_ = BigInt(d);
      return;
    }
  }
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ /= g;
    den_ /= g;
  }
}

Rat Rat::from_string(std::string_view text) {
  auto slash = text.find('/');
  if (slash != std::string_view::npos) {
    return {BigInt::from_string(text.substr(0, slash)),
            BigInt::from_string(text.substr(slash + 1))};
  }
  auto dot = text.find('.');
  if (dot == std::string_view::npos) {
    return {BigInt::from_string(text), BigInt(1)};
  }
  std::string digits(text.substr(0, dot));
  std::string_view frac = text.substr(dot + 1);
  digits += frac;
  BigInt den(1);
  const BigInt ten(10);
  for (std::size_t i = 0; i < frac.size(); ++i) den *= ten;
  return {BigInt::from_string(digits), den};
}

// a/b + c/d with gcd(a,b) = gcd(c,d) = 1, b,d > 0: with g = gcd(b, d),
// t = a(d/g) +- c(b/g) and g2 = gcd(t, g), the result t/g2 over
// (b/g)(d/g2) is already in lowest terms (Knuth 4.5.1). All intermediates
// fit __int128 because every factor fits int64.
bool Rat::add_small(const Rat& rhs, bool negate_rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  const std::uint64_t g = gcd_u64(static_cast<std::uint64_t>(b),
                                  static_cast<std::uint64_t>(d));
  const std::int64_t b1 = b / static_cast<std::int64_t>(g);
  const std::int64_t d1 = d / static_cast<std::int64_t>(g);
  const I128 rhs_num = negate_rhs ? -static_cast<I128>(c)
                                  : static_cast<I128>(c);
  const I128 t = static_cast<I128>(a) * d1 + rhs_num * b1;
  if (t == 0) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return true;
  }
  std::uint64_t g2 = 1;
  if (g > 1) {
    const U128 t_mag = static_cast<U128>(t < 0 ? -t : t);
    g2 = gcd_u64(static_cast<std::uint64_t>(t_mag % g), g);
  }
  const I128 num = t / static_cast<std::int64_t>(g2);
  const I128 den =
      static_cast<I128>(b1) * (d / static_cast<std::int64_t>(g2));
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

bool Rat::mul_small(const Rat& rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  if (a == 0 || c == 0) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return true;
  }
  // Cross-reduce before multiplying: gcd(a,d) and gcd(c,b) carry all common
  // factors, so the products below are already in lowest terms.
  const std::int64_t g1 = static_cast<std::int64_t>(
      gcd_u64(mag64(a), static_cast<std::uint64_t>(d)));
  const std::int64_t g2 = static_cast<std::int64_t>(
      gcd_u64(mag64(c), static_cast<std::uint64_t>(b)));
  const I128 num = static_cast<I128>(a / g1) * (c / g2);
  const I128 den = static_cast<I128>(b / g2) * (d / g1);
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

bool Rat::div_small(const Rat& rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  if (a == 0) {
    den_ = BigInt(1);
    return true;
  }
  // gcd(|INT64_MIN|, |INT64_MIN|) = 2^63 does not fit int64.
  if (a == INT64_MIN && c == INT64_MIN) return false;
  const std::int64_t g1 =
      static_cast<std::int64_t>(gcd_u64(mag64(a), mag64(c)));
  const std::int64_t g2 = static_cast<std::int64_t>(
      gcd_u64(static_cast<std::uint64_t>(b), static_cast<std::uint64_t>(d)));
  I128 num = static_cast<I128>(a / g1) * (d / g2);
  I128 den = static_cast<I128>(b / g2) * (c / g1);
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

Rat& Rat::add_slow(const Rat& rhs, bool negate_rhs) {
  const BigInt rhs_num = negate_rhs ? rhs.num_.negated() : rhs.num_;
  BigInt g = BigInt::gcd(den_, rhs.den_);
  if (g == BigInt(1)) {
    // Coprime denominators: the cross-sum is already in lowest terms.
    num_ = num_ * rhs.den_ + rhs_num * den_;
    den_ *= rhs.den_;
  } else {
    BigInt b1 = den_ / g;
    BigInt d1 = rhs.den_ / g;
    BigInt t = num_ * d1 + rhs_num * b1;
    BigInt g2 = BigInt::gcd(t, g);
    num_ = t / g2;
    den_ = b1 * (rhs.den_ / g2);
  }
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat& Rat::operator+=(const Rat& rhs) {
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      add_small(rhs, /*negate_rhs=*/false)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  return add_slow(rhs, /*negate_rhs=*/false);
}

Rat& Rat::operator-=(const Rat& rhs) {
  if (this == &rhs) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return *this;
  }
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      add_small(rhs, /*negate_rhs=*/true)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  return add_slow(rhs, /*negate_rhs=*/true);
}

Rat& Rat::operator*=(const Rat& rhs) {
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      mul_small(rhs)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  if (is_one(rhs)) return *this;
  BigInt g1 = BigInt::gcd(num_, rhs.den_);
  BigInt g2 = BigInt::gcd(rhs.num_, den_);
  num_ = (num_ / g1) * (rhs.num_ / g2);
  den_ = (den_ / g2) * (rhs.den_ / g1);
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat& Rat::operator/=(const Rat& rhs) {
  if (rhs.is_zero()) throw std::domain_error("Rat: division by zero");
  if (this == &rhs) {
    num_ = BigInt(1);
    den_ = BigInt(1);
    return *this;
  }
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      div_small(rhs)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  if (is_one(rhs)) return *this;
  BigInt g1 = BigInt::gcd(num_, rhs.num_);
  BigInt g2 = BigInt::gcd(den_, rhs.den_);
  num_ = (num_ / g1) * (rhs.den_ / g2);
  den_ = (den_ / g2) * (rhs.num_ / g1);
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat Rat::operator-() const {
  Rat out = *this;
  out.num_ = out.num_.negated();
  return out;
}

std::strong_ordering operator<=>(const Rat& lhs, const Rat& rhs) {
  // Denominators are positive, so cross-multiplication preserves order; for
  // small components the products fit __int128.
  if (both_small(lhs.num_, lhs.den_) && both_small(rhs.num_, rhs.den_))
      [[likely]] {
    const I128 left = static_cast<I128>(lhs.num_.small_value()) *
                      rhs.den_.small_value();
    const I128 right = static_cast<I128>(rhs.num_.small_value()) *
                       lhs.den_.small_value();
    if (left < right) return std::strong_ordering::less;
    if (left > right) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  return lhs.num_ * rhs.den_ <=> rhs.num_ * lhs.den_;
}

Rat Rat::abs() const {
  Rat out = *this;
  out.num_ = out.num_.abs();
  return out;
}

BigInt Rat::floor() const {
  auto dm = BigInt::div_mod(num_, den_);
  if (num_.is_negative() && !dm.remainder.is_zero())
    dm.quotient -= BigInt(1);
  return dm.quotient;
}

BigInt Rat::ceil() const {
  auto dm = BigInt::div_mod(num_, den_);
  if (!num_.is_negative() && !dm.remainder.is_zero())
    dm.quotient += BigInt(1);
  return dm.quotient;
}

double Rat::to_double() const { return num_.to_double() / den_.to_double(); }

std::string Rat::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

std::ostream& operator<<(std::ostream& os, const Rat& value) {
  return os << value.to_string();
}

// ---- rat_batch ---------------------------------------------------------

namespace rat_batch {

namespace {

// Scratch for the SoA extractions; thread_local so batch calls from the
// parallel sweep harness never contend or allocate in steady state.
struct BatchScratch {
  std::vector<std::int64_t> a_num, a_den, b_num, b_den;
};

BatchScratch& scratch() {
  static thread_local BatchScratch s;
  return s;
}

}  // namespace

bool to_i64(const Rat* values, std::size_t n, std::int64_t* out,
            std::int64_t max_abs) {
  for (std::size_t i = 0; i < n; ++i) {
    const Rat& v = values[i];
    if (!v.is_integer() || !v.num().is_small()) return false;
    const std::int64_t x = v.num().small_value();
    if (x < -max_abs || x > max_abs) return false;
    out[i] = x;
  }
  return true;
}

Rat sum(const Rat* values, std::size_t n, bool avx2) {
  auto& s = scratch();
  s.a_num.resize(n);
  // Integer fast path: the sum of int64 integers is associative and
  // exact, so lane-parallel accumulation matches sequential += bit for
  // bit. One non-integer lane (or an int64 overflow) spills the batch.
  if (to_i64(values, n, s.a_num.data(), INT64_MAX)) {
    std::int64_t total = 0;
    if (util::simd::sum_i64(s.a_num.data(), n, &total, avx2)) return Rat(total);
  }
  MINMACH_OBS_TALLY(simd_scalar_spills);
  Rat acc;
  for (std::size_t i = 0; i < n; ++i) acc += values[i];
  return acc;
}

void less_than(const Rat* a, const Rat* b, std::size_t n, unsigned char* out,
               bool avx2) {
  constexpr std::int64_t kMax31 = (std::int64_t{1} << 31) - 1;
  auto& s = scratch();
  s.a_num.resize(n);
  s.a_den.resize(n);
  s.b_num.resize(n);
  s.b_den.resize(n);
  bool small = true;
  for (std::size_t i = 0; i < n && small; ++i) {
    const BigInt &an = a[i].num(), &ad = a[i].den();
    const BigInt &bn = b[i].num(), &bd = b[i].den();
    small = an.is_small() && ad.is_small() && bn.is_small() && bd.is_small();
    if (!small) break;
    s.a_num[i] = an.small_value();
    s.a_den[i] = ad.small_value();
    s.b_num[i] = bn.small_value();
    s.b_den[i] = bd.small_value();
    small = s.a_num[i] >= -kMax31 && s.a_num[i] <= kMax31 &&
            s.b_num[i] >= -kMax31 && s.b_num[i] <= kMax31 &&
            s.a_den[i] <= kMax31 && s.b_den[i] <= kMax31;
  }
  if (small) {
    // a/b < c/d  <=>  a*d < c*b (denominators positive by Rat invariant);
    // all components < 2^31, so the cross-products are exact in int64.
    util::simd::rat31_less(s.a_num.data(), s.a_den.data(), s.b_num.data(),
                           s.b_den.data(), n, out, avx2);
    return;
  }
  MINMACH_OBS_TALLY(simd_scalar_spills);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<unsigned char>(a[i] < b[i]);
}

void make(const std::int64_t* num, const std::int64_t* den, std::size_t n,
          Rat* out, bool avx2) {
  if (n == 0) return;
  // One vector prescan replaces three per-lane validity branches: any
  // zero/negative denominator or INT64_MIN magnitude sends the whole
  // batch through the checked Rat constructor (which throws on den == 0
  // and canonicalizes INT64_MIN via BigInt, exactly as before).
  std::int64_t num_min = 0, num_max = 0, den_min = 0, den_max = 0;
  util::simd::minmax_i64(num, n, &num_min, &num_max, avx2);
  util::simd::minmax_i64(den, n, &den_min, &den_max, avx2);
  if (den_min <= 0 || num_min == INT64_MIN) {
    MINMACH_OBS_TALLY(simd_scalar_spills);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = Rat(BigInt(num[i]), BigInt(den[i]));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t nv = num[i], dv = den[i];
    if (nv == 0) {
      out[i].num_ = BigInt(0);
      out[i].den_ = BigInt(1);
      continue;
    }
    const std::uint64_t g = gcd_u64(mag64(nv), static_cast<std::uint64_t>(dv));
    if (g > 1) {
      nv /= static_cast<std::int64_t>(g);
      dv /= static_cast<std::int64_t>(g);
    }
    out[i].num_ = BigInt(nv);
    out[i].den_ = BigInt(dv);
  }
}

}  // namespace rat_batch

}  // namespace minmach
