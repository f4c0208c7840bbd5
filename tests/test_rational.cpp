#include "minmach/util/rational.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

TEST(Rat, ConstructionNormalizes) {
  EXPECT_EQ(Rat(2, 4), Rat(1, 2));
  EXPECT_EQ(Rat(-2, 4), Rat(1, -2));
  EXPECT_EQ(Rat(-2, 4).to_string(), "-1/2");
  EXPECT_EQ(Rat(0, 5), Rat(0));
  EXPECT_EQ(Rat(0, 5).den(), BigInt(1));
  EXPECT_THROW(Rat(1, 0), std::domain_error);
}

TEST(Rat, FromString) {
  EXPECT_EQ(Rat::from_string("3"), Rat(3));
  EXPECT_EQ(Rat::from_string("-3/6"), Rat(-1, 2));
  EXPECT_EQ(Rat::from_string("3.25"), Rat(13, 4));
  EXPECT_EQ(Rat::from_string("-0.5"), Rat(-1, 2));
  EXPECT_EQ(Rat::from_string("0.125"), Rat(1, 8));
}

TEST(Rat, Arithmetic) {
  EXPECT_EQ(Rat(1, 2) + Rat(1, 3), Rat(5, 6));
  EXPECT_EQ(Rat(1, 2) - Rat(1, 3), Rat(1, 6));
  EXPECT_EQ(Rat(2, 3) * Rat(3, 4), Rat(1, 2));
  EXPECT_EQ(Rat(2, 3) / Rat(4, 3), Rat(1, 2));
  EXPECT_EQ(-Rat(1, 2), Rat(-1, 2));
  EXPECT_THROW(Rat(1) /= Rat(0), std::domain_error);
}

TEST(Rat, Ordering) {
  EXPECT_LT(Rat(1, 3), Rat(1, 2));
  EXPECT_LT(Rat(-1, 2), Rat(-1, 3));
  EXPECT_LT(Rat(-1), Rat(0));
  EXPECT_EQ(Rat::min(Rat(1, 3), Rat(1, 2)), Rat(1, 3));
  EXPECT_EQ(Rat::max(Rat(1, 3), Rat(1, 2)), Rat(1, 2));
  EXPECT_GE(Rat(1, 2), Rat(1, 2));
}

TEST(Rat, FloorCeil) {
  EXPECT_EQ(Rat(7, 2).floor(), BigInt(3));
  EXPECT_EQ(Rat(7, 2).ceil(), BigInt(4));
  EXPECT_EQ(Rat(-7, 2).floor(), BigInt(-4));
  EXPECT_EQ(Rat(-7, 2).ceil(), BigInt(-3));
  EXPECT_EQ(Rat(4).floor(), BigInt(4));
  EXPECT_EQ(Rat(4).ceil(), BigInt(4));
  EXPECT_EQ(Rat(0).floor(), BigInt(0));
}

TEST(Rat, Predicates) {
  EXPECT_TRUE(Rat(0).is_zero());
  EXPECT_TRUE(Rat(-1, 7).is_negative());
  EXPECT_TRUE(Rat(1, 7).is_positive());
  EXPECT_TRUE(Rat(5).is_integer());
  EXPECT_FALSE(Rat(5, 2).is_integer());
  EXPECT_EQ(Rat(-3, 2).abs(), Rat(3, 2));
}

TEST(Rat, ToDouble) {
  EXPECT_DOUBLE_EQ(Rat(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rat(-1, 4).to_double(), -0.25);
}

TEST(Rat, UnitOperandKeepsValueAndRepresentation) {
  // A small value, the same value with limb-tier components (the general
  // path), and a multi-limb value.
  const Rat small(-7, 3);
  BigInt promoted_num(-7);
  BigInt promoted_den(3);
  promoted_num.debug_force_promote();
  promoted_den.debug_force_promote();
  const Rat promoted(promoted_num, promoted_den);
  const Rat wide(BigInt::from_string("-340282366920938463463374607431768211457"),
                 BigInt::from_string("18446744073709551629"));
  ASSERT_FALSE(promoted.num().is_small());
  ASSERT_FALSE(wide.num().is_small());
  for (const Rat& x : {small, promoted, wide}) {
    for (const Rat& y : {x * Rat(1), x / Rat(1)}) {
      EXPECT_EQ(y, x);
      EXPECT_EQ(y.num(), x.num());
      EXPECT_EQ(y.den(), x.den());
      EXPECT_EQ(y.num().is_small(), x.num().is_small());
      EXPECT_EQ(y.den().is_small(), x.den().is_small());
      EXPECT_EQ(y.to_string(), x.to_string());
    }
  }
  // Other operands still take the general path, whose results are
  // canonical and agree with the small tier.
  const std::pair<Rat, Rat> general[] = {{promoted * Rat(-1), small * Rat(-1)},
                                         {promoted / Rat(2), small / Rat(2)}};
  for (const auto& [y, expected] : general) {
    EXPECT_EQ(y, expected);
    EXPECT_TRUE(y.num().is_small());
    EXPECT_TRUE(y.den().is_small());
    EXPECT_EQ(y.to_string(), expected.to_string());
  }
  EXPECT_EQ(wide * Rat(-1), -wide);
  EXPECT_EQ(wide / Rat(2) * Rat(2), wide);
  EXPECT_EQ((wide / Rat(2)).den(), wide.den() * BigInt(2));
}

class RatRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RatRandom, FieldAxioms) {
  Rng rng(GetParam());
  auto random_rat = [&] {
    return Rat(rng.uniform_int(-1000, 1000), rng.uniform_int(1, 60));
  };
  for (int iter = 0; iter < 500; ++iter) {
    Rat a = random_rat();
    Rat b = random_rat();
    Rat c = random_rat();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Rat(0));
    if (!b.is_zero()) {
      EXPECT_EQ(a / b * b, a);
    }
    // floor/ceil sandwich
    Rat fl(a.floor(), BigInt(1));
    Rat ce(a.ceil(), BigInt(1));
    EXPECT_LE(fl, a);
    EXPECT_LE(a, ce);
    EXPECT_LE(ce - fl, Rat(1));
    // ordering consistent with doubles (coarse check away from ties)
    if (a != b) {
      EXPECT_EQ(a < b, a.to_double() < b.to_double());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RatRandom, ::testing::Values(11u, 22u, 33u));

TEST(Rat, DeepDenominatorsStayExact) {
  // Mimics the adversary's repeated epsilon/2 rescaling: denominators grow
  // geometrically but arithmetic stays exact.
  Rat eps(1);
  Rat sum(0);
  for (int level = 0; level < 64; ++level) {
    eps = eps / Rat(3) + Rat(1, 7);
    sum += eps;
  }
  Rat back = sum;
  for (int level = 0; level < 64; ++level) back -= Rat(0);
  EXPECT_EQ(back, sum);
  EXPECT_GT(sum, Rat(0));
  // Round-trip through the string form.
  EXPECT_EQ(Rat::from_string(sum.to_string()), sum);
}

}  // namespace
}  // namespace minmach
