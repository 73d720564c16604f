/**
 * @file
 * Smoke tests for the experiment pipeline the sweep builds on:
 * full-size configurations with shortened windows, checking that the
 * calibration anchors hold end-to-end.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

using namespace smartref;

namespace {

ExperimentOptions
quickOpts()
{
    ExperimentOptions opts;
    // One retention interval of warmup is required for the stagger
    // transient; measure half an interval beyond to keep this fast.
    opts.warmup = 64 * kMillisecond;
    opts.measure = 64 * kMillisecond;
    return opts;
}

} // namespace

TEST(ExperimentRunner, ConventionalBaselineAnchor)
{
    const RunResult r = runConventional(findProfile("fasta"), ddr2_2GB(),
                                        PolicyKind::Cbr, quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 2048000.0, 2048000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(r.totalEnergyJ, 0.0);
    EXPECT_EQ(r.policy, "cbr");
}

TEST(ExperimentRunner, ConventionalComparisonHitsCalibration)
{
    const ComparisonResult c =
        comparePolicy(findProfile("fasta"), ddr2_2GB(), PolicyKind::Smart,
                      /*threeD=*/false, quickOpts());
    // fasta's calibration target is a 26 % reduction.
    EXPECT_NEAR(c.refreshReduction(), 0.26, 0.05);
    EXPECT_GT(c.refreshEnergySaving(), 0.10);
    EXPECT_GT(c.totalEnergySaving(), 0.0);
    EXPECT_EQ(c.baseline.violations, 0u);
    EXPECT_EQ(c.smart.violations, 0u);
}

TEST(ExperimentRunner, ThreeDBaselineAnchor)
{
    const RunResult r = runThreeD(findProfile("fasta"), dram3d_64MB(),
                                  PolicyKind::Cbr, quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 1024000.0, 1024000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
}

TEST(ExperimentRunner, ThreeDComparisonHitsCalibration)
{
    const ComparisonResult c =
        comparePolicy(findProfile("mummer"), dram3d_64MB(),
                      PolicyKind::Smart, /*threeD=*/true, quickOpts());
    // mummer's 3D calibration target is a 42 % reduction.
    EXPECT_NEAR(c.refreshReduction(), 0.42, 0.06);
    EXPECT_EQ(c.smart.violations, 0u);
}

TEST(ExperimentRunner, ThirtyTwoMsDoublesThreeDBaseline)
{
    const RunResult r = runThreeD(findProfile("fasta"),
                                  dram3d_64MB_32ms(), PolicyKind::Cbr,
                                  quickOpts());
    EXPECT_NEAR(r.refreshesPerSec, 2048000.0, 2048000.0 * 0.002);
}

TEST(ExperimentRunner, FourGBBaselineAnchor)
{
    const RunResult r = runConventional(findProfile("fasta"), ddr2_4GB(),
                                        PolicyKind::Cbr, quickOpts(),
                                        kFourGBRowScale);
    EXPECT_NEAR(r.refreshesPerSec, 4096000.0, 4096000.0 * 0.002);
    EXPECT_EQ(r.violations, 0u);
}
