#include "minmach/util/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.signum(), 0);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.to_int64(), 0);
}

TEST(BigInt, Int64RoundTrip) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{42}, std::int64_t{-123456789012345},
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    BigInt b(v);
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v);
    EXPECT_EQ(b.to_string(), std::to_string(v));
  }
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "7",
                         "-7",
                         "4294967295",
                         "4294967296",
                         "-18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "-999999999999999999999999999999999999999"};
  for (const char* text : cases) {
    EXPECT_EQ(BigInt::from_string(text).to_string(), text);
  }
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string(" 12"), std::invalid_argument);
}

TEST(BigInt, OverflowGuards) {
  BigInt big = BigInt::from_string("340282366920938463463374607431768211456");
  EXPECT_FALSE(big.fits_int64());
  EXPECT_THROW((void)big.to_int64(), std::overflow_error);
  // INT64_MIN magnitude fits exactly; one more does not.
  BigInt min64(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(min64.fits_int64());
  EXPECT_FALSE((min64 - BigInt(1)).fits_int64());
  EXPECT_TRUE((min64.negated() - BigInt(1)).fits_int64());
  EXPECT_FALSE(min64.negated().fits_int64());
}

TEST(BigInt, SmallArithmetic) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).to_int64(), 5);
  EXPECT_EQ((BigInt(2) - BigInt(3)).to_int64(), -1);
  EXPECT_EQ((BigInt(-2) * BigInt(3)).to_int64(), -6);
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);  // truncation
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);  // sign of dividend
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_int64(), 1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW((void)(BigInt(1) / BigInt(0)), std::domain_error);
  EXPECT_THROW((void)(BigInt(1) % BigInt(0)), std::domain_error);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt::from_string("18446744073709551616"), BigInt(1) + BigInt(2));
  EXPECT_EQ(BigInt(0), BigInt(7) - BigInt(7));
  EXPECT_LT(BigInt::from_string("-18446744073709551616"), BigInt(-1));
}

TEST(BigInt, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_int64(), 0);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).to_int64(), 12);
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)).to_int64(), 0);
  // gcd of huge coprimes.
  BigInt a = BigInt::from_string("170141183460469231731687303715884105727");
  EXPECT_EQ(BigInt::gcd(a, a * BigInt(3) + BigInt(1)), BigInt(1));
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt::from_string("18446744073709551616").bit_length(), 65u);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::from_string("10000000000000000000").to_double(), 1e19,
              1e6);
}

// ----- randomized oracle tests against __int128 -----

using I128 = __int128;

I128 to_i128(const BigInt& b) {
  // Only valid for values that fit; tests keep operands within range.
  bool negative = b.is_negative();
  BigInt mag = b.abs();
  I128 out = 0;
  BigInt base = BigInt::from_string("18446744073709551616");  // 2^64
  auto dm = BigInt::div_mod(mag, base);
  out = static_cast<I128>(
      static_cast<unsigned long long>(dm.quotient.to_int64()));
  out <<= 64;
  BigInt rem = dm.remainder;
  // remainder < 2^64 may not fit signed int64; split again
  auto dm2 = BigInt::div_mod(rem, BigInt(1) + BigInt(0xffffffff));
  (void)dm2;
  // simpler: peel 32-bit chunks
  I128 lo = 0;
  I128 mul = 1;
  BigInt cur = rem;
  BigInt b32(0x100000000ll);
  while (!cur.is_zero()) {
    auto d = BigInt::div_mod(cur, b32);
    lo += mul * static_cast<I128>(d.remainder.to_int64());
    mul <<= 32;
    cur = d.quotient;
  }
  out += lo;
  return negative ? -out : out;
}

[[maybe_unused]] BigInt from_i128(I128 v) {
  bool negative = v < 0;
  unsigned __int128 mag =
      negative ? static_cast<unsigned __int128>(-(v + 1)) + 1
               : static_cast<unsigned __int128>(v);
  BigInt out(0);
  BigInt mul(1);
  BigInt b32(0x100000000ll);
  while (mag != 0) {
    out += mul * BigInt(static_cast<std::int64_t>(mag & 0xffffffffu));
    mul *= b32;
    mag >>= 32;
  }
  return negative ? out.negated() : out;
}

class BigIntRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntRandom, ArithmeticMatchesInt128Oracle) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    // 62-bit operands: products fit comfortably in __int128.
    std::int64_t xa = rng.uniform_int(-(1ll << 62), 1ll << 62);
    std::int64_t xb = rng.uniform_int(-(1ll << 62), 1ll << 62);
    BigInt a(xa);
    BigInt b(xb);
    EXPECT_EQ(to_i128(a + b), static_cast<I128>(xa) + xb);
    EXPECT_EQ(to_i128(a - b), static_cast<I128>(xa) - xb);
    EXPECT_EQ(to_i128(a * b), static_cast<I128>(xa) * xb);
    if (xb != 0) {
      EXPECT_EQ(to_i128(a / b), static_cast<I128>(xa) / xb);
      EXPECT_EQ(to_i128(a % b), static_cast<I128>(xa) % xb);
    }
    EXPECT_EQ(a < b, xa < xb);
    EXPECT_EQ(a == b, xa == xb);
  }
}

TEST_P(BigIntRandom, MultiLimbDivisionIdentity) {
  Rng rng(GetParam() * 7919 + 13);
  for (int iter = 0; iter < 1500; ++iter) {
    // Build random magnitudes up to ~12 limbs, biased toward 0xffffffff
    // limbs to stress the Knuth-D estimate corrections.
    auto random_big = [&](int max_limbs) {
      BigInt out(0);
      BigInt mul(1);
      BigInt b32(0x100000000ll);
      int limbs = static_cast<int>(rng.uniform_int(1, max_limbs));
      for (int i = 0; i < limbs; ++i) {
        std::int64_t limb = rng.bernoulli(0.25)
                                ? 0xffffffffll
                                : rng.uniform_int(0, 0xffffffffll);
        out += mul * BigInt(limb);
        mul *= b32;
      }
      return rng.bernoulli(0.5) ? out.negated() : out;
    };
    BigInt a = random_big(12);
    BigInt b = random_big(6);
    if (b.is_zero()) continue;
    auto dm = BigInt::div_mod(a, b);
    // a == q*b + r
    EXPECT_EQ(dm.quotient * b + dm.remainder, a)
        << "a=" << a << " b=" << b << " q=" << dm.quotient
        << " r=" << dm.remainder;
    // |r| < |b|
    EXPECT_LT(dm.remainder.abs(), b.abs());
    // sign conventions
    if (!dm.remainder.is_zero()) {
      EXPECT_EQ(dm.remainder.signum(), a.signum());
    }
  }
}

TEST_P(BigIntRandom, StringRoundTripRandom) {
  Rng rng(GetParam() ^ 0xabcdef);
  BigInt b32(0x100000000ll);
  for (int iter = 0; iter < 300; ++iter) {
    BigInt value(0);
    int limbs = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < limbs; ++i)
      value = value * b32 + BigInt(rng.uniform_int(0, 0xffffffffll));
    if (rng.bernoulli(0.5)) value = value.negated();
    EXPECT_EQ(BigInt::from_string(value.to_string()), value);
  }
}

TEST_P(BigIntRandom, Int128ConversionRoundTrip) {
  Rng rng(GetParam() + 555);
  for (int iter = 0; iter < 500; ++iter) {
    I128 hi = static_cast<I128>(rng.uniform_int(-(1ll << 60), 1ll << 60));
    I128 value = (hi << 32) + rng.uniform_int(0, 0xffffffffll);
    EXPECT_EQ(to_i128(from_i128(value)), value);
  }
}

// ----- gcd differential against a reference Euclid -----

// Textbook Euclid on the public div_mod: independent of the production gcd
// kernel.
BigInt reference_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt r = BigInt::div_mod(a, b).remainder;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

// Little-endian 64-bit limbs to a non-negative BigInt.
BigInt from_limbs(const std::vector<std::uint64_t>& limbs) {
  const BigInt base = BigInt::from_string("18446744073709551616");  // 2^64
  BigInt out(0);
  for (std::size_t i = limbs.size(); i-- > 0;) {
    // Each limb goes in as two 32-bit halves: int64 holds neither 2^64 - 1
    // nor any limb with its top bit set.
    out = out * base + BigInt(static_cast<std::int64_t>(limbs[i] >> 32)) *
                           BigInt(0x100000000ll) +
          BigInt(static_cast<std::int64_t>(limbs[i] & 0xffffffffu));
  }
  return out;
}

// 1..max_limbs limbs, each uniform, all ones or zero; the top limb is
// nonzero and sometimes exactly 1.
BigInt random_limbs(Rng& rng, int max_limbs) {
  std::vector<std::uint64_t> limbs(
      static_cast<std::size_t>(rng.uniform_int(1, max_limbs)));
  for (auto& limb : limbs) {
    const auto kind = rng.uniform_int(0, 5);
    limb = kind == 0 ? ~std::uint64_t{0} : kind == 1 ? 0 : rng.next_u64();
  }
  if (rng.bernoulli(0.15)) limbs.back() = 1;
  if (limbs.back() == 0) limbs.back() = rng.next_u64() | 1;
  return from_limbs(limbs);
}

BigInt random_sign(Rng& rng, const BigInt& value) {
  return rng.bernoulli(0.5) ? value.negated() : value;
}

// gcd(a, b) must equal the reference, be non-negative and canonical, divide
// both operands, and leave coprime cofactors.
void expect_gcd(const BigInt& a, const BigInt& b) {
  const BigInt g = BigInt::gcd(a, b);
  ASSERT_EQ(g, reference_gcd(a, b)) << "a=" << a << " b=" << b;
  EXPECT_EQ(BigInt::gcd(b, a), g);
  EXPECT_FALSE(g.is_negative());
  EXPECT_EQ(g.is_small(), g.fits_int64()) << g;
  if (g.is_zero()) {
    EXPECT_TRUE(a.is_zero() && b.is_zero());
    return;
  }
  EXPECT_TRUE((a % g).is_zero()) << "a=" << a << " g=" << g;
  EXPECT_TRUE((b % g).is_zero()) << "b=" << b << " g=" << g;
  EXPECT_EQ(BigInt::gcd(a / g, b / g), BigInt(1)) << "a=" << a << " b=" << b;
}

TEST_P(BigIntRandom, GcdMatchesReferenceEuclid) {
  Rng rng(GetParam() * 104729 + 7);
  for (int iter = 0; iter < 400; ++iter) {
    // Independent operands of 1-8 limbs, both signs.
    expect_gcd(random_sign(rng, random_limbs(rng, 8)),
               random_sign(rng, random_limbs(rng, 8)));
    // A planted common factor of 1-3 limbs.
    const BigInt factor = random_limbs(rng, 3);
    expect_gcd(random_sign(rng, factor * random_limbs(rng, 5)),
               random_sign(rng, factor * random_limbs(rng, 5)));
    // Equal operands, zero, and neighbours.
    const BigInt u = random_limbs(rng, 8);
    expect_gcd(u, u);
    expect_gcd(u, u.negated());
    expect_gcd(u, BigInt(0));
    expect_gcd(u, u + BigInt(1));
    expect_gcd(u, u - BigInt(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(BigInt, GcdAtLimbBoundaries) {
  const BigInt two64 = BigInt::from_string("18446744073709551616");
  const BigInt two128 = two64 * two64;
  std::vector<BigInt> values;
  for (const BigInt& edge : {two64, two128}) {
    for (int delta : {-1, 0, 1}) values.push_back(edge + BigInt(delta));
  }
  values.push_back(BigInt(1));
  values.push_back(BigInt(0));
  values.push_back(BigInt(std::numeric_limits<std::int64_t>::min()));
  values.push_back(two128 * two64 - BigInt(1));  // three limbs of all ones
  const std::size_t base_count = values.size();
  for (std::size_t i = 0; i < base_count; ++i)
    values.push_back(values[i] * (two128 + BigInt(1)));
  for (const BigInt& a : values) {
    for (const BigInt& b : values) expect_gcd(a, b);
  }
  Rng rng(64128);
  for (const BigInt& edge : values) {
    for (int iter = 0; iter < 50; ++iter)
      expect_gcd(edge, random_sign(rng, random_limbs(rng, 6)));
  }
}

TEST(BigInt, GcdOfConsecutiveFibonacci) {
  // Every Euclid quotient is 1: the longest remainder sequence for the
  // operand size, so every multi-limb round runs many single steps.
  BigInt f0(0);
  BigInt f1(1);
  for (int i = 0; i < 600; ++i) {
    BigInt next = f0 + f1;
    f0 = std::move(f1);
    f1 = std::move(next);
    if (i % 20 == 0) {
      expect_gcd(f1, f0);
      expect_gcd(f1 * BigInt(6), f0 * BigInt(10));
    }
  }
}

// Directed Knuth-D corner: dividend top limbs equal to divisor top limb
// forces the q_hat = base-1 clamp path.
TEST(BigInt, KnuthDClampPath) {
  BigInt base32(0x100000000ll);
  // divisor = [0, X] (i.e. X * 2^32), dividend = [r, X, X] so that the
  // leading estimate overflows one limb.
  BigInt x(0xfffffffell);
  BigInt divisor = x * base32;
  BigInt dividend = ((x * base32 + x) * base32) + BigInt(12345);
  auto dm = BigInt::div_mod(dividend, divisor);
  EXPECT_EQ(dm.quotient * divisor + dm.remainder, dividend);
  EXPECT_LT(dm.remainder.abs(), divisor.abs());
}

TEST(BigInt, AddBackPath) {
  // Classic add-back trigger from Hacker's Delight: u = [0,0,0x80000000],
  // v = [1,0x80000000] in base 2^32.
  BigInt base32(0x100000000ll);
  BigInt u = BigInt(0x80000000ll) * base32 * base32;
  BigInt v = BigInt(0x80000000ll) * base32 + BigInt(1);
  auto dm = BigInt::div_mod(u, v);
  EXPECT_EQ(dm.quotient * v + dm.remainder, u);
  EXPECT_LT(dm.remainder.abs(), v.abs());
}

// Regression: sign-magnitude negation of the most-negative int64 is the
// classic UB trap -- |INT64_MIN| = 2^63 has no int64 representation, so
// negation/abs must promote to the limb tier instead of overflowing.
TEST(BigInt, Int64MinNegationAndAbs) {
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  BigInt value(min64);
  EXPECT_TRUE(value.is_small());
  EXPECT_EQ(value.to_int64(), min64);
  EXPECT_EQ(value.to_string(), "-9223372036854775808");

  BigInt negated = value.negated();
  EXPECT_FALSE(negated.is_small());  // 2^63 does not fit int64
  EXPECT_EQ(negated.to_string(), "9223372036854775808");
  EXPECT_EQ(negated.negated(), value);  // round-trips back to the small tier
  EXPECT_TRUE(negated.negated().is_small());

  BigInt absolute = value.abs();
  EXPECT_EQ(absolute, negated);
  EXPECT_FALSE(absolute.fits_int64());
  EXPECT_EQ((-value).to_string(), "9223372036854775808");
}

TEST(BigInt, Int64MinArithmeticPromotes) {
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  BigInt value(min64);
  // INT64_MIN / -1 is the one small/small quotient that overflows int64.
  BigInt quotient = value / BigInt(-1);
  EXPECT_EQ(quotient.to_string(), "9223372036854775808");
  EXPECT_TRUE((value % BigInt(-1)).is_zero());
  auto dm = BigInt::div_mod(value, BigInt(-1));
  EXPECT_EQ(dm.quotient.to_string(), "9223372036854775808");
  EXPECT_TRUE(dm.remainder.is_zero());

  EXPECT_EQ((value + value).to_string(), "-18446744073709551616");
  EXPECT_EQ((value - BigInt(1)).to_string(), "-9223372036854775809");
  EXPECT_EQ((value * BigInt(-1)).to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(value, value).to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(value, BigInt(3)).to_int64(), 1);
  EXPECT_EQ(BigInt::from_string("-9223372036854775808"), value);
}

}  // namespace
}  // namespace minmach
