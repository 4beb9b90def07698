#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "depend/availability.hpp"
#include "util/error.hpp"

namespace upsim::depend {
namespace {

TEST(Availability, ExactFormula) {
  EXPECT_DOUBLE_EQ(availability_exact(99.0, 1.0), 0.99);
  EXPECT_DOUBLE_EQ(availability_exact(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(availability_exact(1.0, 1.0), 0.5);
}

TEST(Availability, LinearFormulaMatchesPaper) {
  // Formula 1: A = 1 - MTTR/MTBF.
  EXPECT_DOUBLE_EQ(availability_linear(100.0, 1.0), 0.99);
  EXPECT_DOUBLE_EQ(availability_linear(3000.0, 24.0), 1.0 - 24.0 / 3000.0);
  // The approximation clamps at zero once MTTR exceeds MTBF.
  EXPECT_DOUBLE_EQ(availability_linear(1.0, 2.0), 0.0);
}

TEST(Availability, LinearApproximatesExactToSecondOrder) {
  // |exact - linear| = (MTTR/MTBF)^2 / (1 + MTTR/MTBF) <= rho^2.
  for (const double rho : {1e-2, 1e-3, 1e-4, 1e-5}) {
    const double mtbf = 1.0;
    const double mttr = rho;
    const double gap =
        availability_exact(mtbf, mttr) - availability_linear(mtbf, mttr);
    EXPECT_GE(gap, 0.0) << rho;  // linear always pessimistic
    EXPECT_LE(gap, rho * rho + 1e-15) << rho;
  }
}

TEST(Availability, CaseStudyComponentValues) {
  // Values a downstream analysis would compute from Fig. 8.
  EXPECT_NEAR(availability_exact(3000.0, 24.0), 0.992063, 1e-6);   // Comp
  EXPECT_NEAR(availability_exact(2880.0, 1.0), 0.999653, 1e-6);    // Printer
  EXPECT_NEAR(availability_exact(183498.0, 0.5), 0.9999973, 1e-7); // C6500
  EXPECT_NEAR(availability_exact(60000.0, 0.1), 0.9999983, 1e-7);  // Server
}

TEST(Availability, InvalidInputsRejected) {
  EXPECT_THROW((void)availability_exact(0.0, 1.0), ModelError);
  EXPECT_THROW((void)availability_exact(-5.0, 1.0), ModelError);
  EXPECT_THROW((void)availability_exact(5.0, -1.0), ModelError);
  EXPECT_THROW((void)availability_linear(0.0, 0.0), ModelError);
}

TEST(Availability, RedundantComponents) {
  // One spare squares the unavailability.
  EXPECT_DOUBLE_EQ(availability_redundant(0.9, 0), 0.9);
  EXPECT_DOUBLE_EQ(availability_redundant(0.9, 1), 1.0 - 0.01);
  EXPECT_DOUBLE_EQ(availability_redundant(0.9, 2), 1.0 - 0.001);
  EXPECT_DOUBLE_EQ(availability_redundant(1.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(availability_redundant(0.0, 2), 0.0);
  EXPECT_THROW((void)availability_redundant(1.5, 0), ModelError);
  EXPECT_THROW((void)availability_redundant(0.9, -1), ModelError);
}

class RhoSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(RhoSweepTest, ExactAlwaysAboveLinear) {
  const double mttr = GetParam();
  const double mtbf = 100.0;
  EXPECT_GE(availability_exact(mtbf, mttr), availability_linear(mtbf, mttr));
  EXPECT_LE(availability_exact(mtbf, mttr), 1.0);
  EXPECT_GE(availability_exact(mtbf, mttr), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MttrSweep, RhoSweepTest,
    ::testing::Values(0.0, 0.01, 0.1, 1.0, 10.0, 50.0, 100.0, 500.0),
    [](const ::testing::TestParamInfo<double>& info) {
      std::string name = ::testing::PrintToString(info.param);
      std::replace(name.begin(), name.end(), '.', '_');  // 0.01 -> 0_01
      return name;
    });

}  // namespace
}  // namespace upsim::depend
