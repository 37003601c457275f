#include "constraint/parser.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "workload/generator.h"

namespace cdb {
namespace {

TEST(ParserTest, SimpleConjunction) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("x >= 0, y >= 0, x + y <= 4", &t).ok());
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.constraints()[0].a, 1.0);
  EXPECT_EQ(t.constraints()[0].cmp, Cmp::kGE);
  EXPECT_EQ(t.constraints()[2].a, 1.0);
  EXPECT_EQ(t.constraints()[2].b, 1.0);
  EXPECT_EQ(t.constraints()[2].c, -4.0);
  EXPECT_EQ(t.constraints()[2].cmp, Cmp::kLE);
  EXPECT_TRUE(t.IsSatisfiable());
}

TEST(ParserTest, AndSeparatorAndCoefficients) {
  GeneralizedTuple t;
  ASSERT_TRUE(
      ParseGeneralizedTuple("y >= 2*x - 1 and y <= 10", &t).ok());
  ASSERT_EQ(t.size(), 2u);
  // y - 2x + 1 >= 0.
  EXPECT_EQ(t.constraints()[0].a, -2.0);
  EXPECT_EQ(t.constraints()[0].b, 1.0);
  EXPECT_EQ(t.constraints()[0].c, 1.0);
  EXPECT_EQ(t.constraints()[0].cmp, Cmp::kGE);
}

TEST(ParserTest, ImplicitMultiplication) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("2x + 3y <= 6", &t).ok());
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.constraints()[0].a, 2.0);
  EXPECT_EQ(t.constraints()[0].b, 3.0);
  EXPECT_EQ(t.constraints()[0].c, -6.0);
}

TEST(ParserTest, EqualityExpandsToTwoConstraints) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("2x + 3y = 6", &t).ok());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.constraints()[0].cmp, Cmp::kLE);
  EXPECT_EQ(t.constraints()[1].cmp, Cmp::kGE);
}

TEST(ParserTest, StrictOperatorsAreClosed) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("x < 5, y > 1", &t).ok());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.constraints()[0].cmp, Cmp::kLE);
  EXPECT_EQ(t.constraints()[1].cmp, Cmp::kGE);
}

TEST(ParserTest, NegativeAndFractionalNumbers) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("-0.5x - y <= -2.25", &t).ok());
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.constraints()[0].a, -0.5);
  EXPECT_DOUBLE_EQ(t.constraints()[0].b, -1.0);
  EXPECT_DOUBLE_EQ(t.constraints()[0].c, 2.25);
}

TEST(ParserTest, RejectsGarbage) {
  GeneralizedTuple t;
  EXPECT_TRUE(ParseGeneralizedTuple("", &t).IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("x >=", &t).IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("x + z <= 1", &t).IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("x 5", &t).IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("x <= 1 y >= 0", &t).IsInvalidArgument());
}

TEST(ParserTest, HalfPlaneQueryNormalization) {
  HalfPlaneQuery q;
  ASSERT_TRUE(ParseHalfPlaneQuery("y >= 2x + 3", &q).ok());
  EXPECT_DOUBLE_EQ(q.slope, 2.0);
  EXPECT_DOUBLE_EQ(q.intercept, 3.0);
  EXPECT_EQ(q.cmp, Cmp::kGE);

  // Negative y coefficient flips the comparison:
  // -y + 2x + 3 >= 0  <=>  y <= 2x + 3.
  ASSERT_TRUE(ParseHalfPlaneQuery("2x + 3 - y >= 0", &q).ok());
  EXPECT_DOUBLE_EQ(q.slope, 2.0);
  EXPECT_DOUBLE_EQ(q.intercept, 3.0);
  EXPECT_EQ(q.cmp, Cmp::kLE);
}

TEST(ParserTest, HalfPlaneQueryRejectsVerticalAndConjunction) {
  HalfPlaneQuery q;
  EXPECT_TRUE(ParseHalfPlaneQuery("x >= 3", &q).IsInvalidArgument());
  EXPECT_TRUE(ParseHalfPlaneQuery("y >= 0, y <= 1", &q).IsInvalidArgument());
  EXPECT_TRUE(ParseHalfPlaneQuery("y = 2x", &q).IsInvalidArgument());
}

TEST(ParserTest, FormatRoundTrip) {
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("x >= 0, y >= 0, x + 2y <= 4", &t).ok());
  std::string text = FormatGeneralizedTuple(t);
  GeneralizedTuple again;
  ASSERT_TRUE(ParseGeneralizedTuple(text, &again).ok()) << text;
  ASSERT_EQ(again.size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.constraints()[i].a, t.constraints()[i].a);
    EXPECT_DOUBLE_EQ(again.constraints()[i].b, t.constraints()[i].b);
    EXPECT_DOUBLE_EQ(again.constraints()[i].c, t.constraints()[i].c);
    EXPECT_EQ(again.constraints()[i].cmp, t.constraints()[i].cmp);
  }
}

// Property: Format -> Parse round-trips every generated workload tuple.
TEST(ParserTest, FormatParseRoundTripOnRandomTuples) {
  Rng rng(2024);
  WorkloadOptions w;
  for (int trial = 0; trial < 150; ++trial) {
    GeneralizedTuple t = trial % 4 == 0 ? RandomUnboundedTuple(&rng, w)
                                        : RandomBoundedTuple(&rng, w);
    std::string text = FormatGeneralizedTuple(t);
    GeneralizedTuple back;
    ASSERT_TRUE(ParseGeneralizedTuple(text, &back).ok()) << text;
    ASSERT_EQ(back.size(), t.size()) << text;
    for (size_t i = 0; i < t.size(); ++i) {
      // The formatter prints with default precision; compare loosely and
      // then exactly via the geometry: both versions must agree on TOP/BOT.
      EXPECT_EQ(back.constraints()[i].cmp, t.constraints()[i].cmp);
    }
    for (double slope : {-1.0, 0.0, 0.7}) {
      double t_top = t.Top(slope), b_top = back.Top(slope);
      if (std::isinf(t_top) || std::isinf(b_top)) {
        EXPECT_EQ(t_top, b_top) << text;
      } else {
        EXPECT_NEAR(t_top, b_top, 1e-3) << text;
      }
    }
  }
}

TEST(ParserTest, PaperExampleTuple) {
  // The introduction's example: x <= 2 ∧ y >= 3 — an unbounded tuple.
  GeneralizedTuple t;
  ASSERT_TRUE(ParseGeneralizedTuple("x <= 2, y >= 3", &t).ok());
  EXPECT_TRUE(t.IsSatisfiable());
  Rect r;
  EXPECT_FALSE(t.GetBoundingRect(&r));  // Infinite extension.
  EXPECT_EQ(t.Top(0.0), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(t.Bot(0.0), 3.0);
}

}  // namespace
}  // namespace cdb
