#include <gtest/gtest.h>

#include "dram/retention_tracker.hh"

using namespace smartref;

namespace {
constexpr Tick kLimit = 1 * kMillisecond;
constexpr Tick kSlack = 10 * kMicrosecond;
} // namespace

class RetentionTest : public ::testing::Test
{
  protected:
    RetentionTracker tracker{1, 2, 8, kLimit, kSlack, nullptr};
};

TEST_F(RetentionTest, FreshRowsHaveNoViolations)
{
    tracker.onActivate(0, 0, 0, kLimit / 2);
    EXPECT_EQ(tracker.violations(), 0u);
}

TEST_F(RetentionTest, LateActivateIsViolation)
{
    tracker.onActivate(0, 1, 3, kLimit + kSlack + 1);
    EXPECT_EQ(tracker.violations(), 1u);
}

TEST_F(RetentionTest, ActivateExactlyAtLimitPlusSlackIsOk)
{
    tracker.onActivate(0, 0, 0, kLimit + kSlack);
    EXPECT_EQ(tracker.violations(), 0u);
}

TEST_F(RetentionTest, RestoreResetsTheClock)
{
    tracker.onRestore(0, 0, 5, kLimit);
    tracker.onActivate(0, 0, 5, 2 * kLimit - 1);
    EXPECT_EQ(tracker.violations(), 0u);
    tracker.onActivate(0, 0, 5, kLimit + kLimit + kSlack + 1);
    EXPECT_EQ(tracker.violations(), 1u);
}

TEST_F(RetentionTest, RefreshChecksAndRestores)
{
    tracker.onRefresh(0, 0, 2, kLimit / 2);
    // Deadline pushed out by the refresh.
    tracker.onActivate(0, 0, 2, kLimit / 2 + kLimit);
    EXPECT_EQ(tracker.violations(), 0u);
    EXPECT_EQ(tracker.minRefreshAge(), kLimit / 2);
}

TEST_F(RetentionTest, RefreshAgeStatistics)
{
    tracker.onRefresh(0, 0, 0, 100);
    tracker.onRefresh(0, 0, 1, 300);
    EXPECT_EQ(tracker.minRefreshAge(), 100u);
    EXPECT_DOUBLE_EQ(tracker.meanRefreshAge(), 200.0);
    EXPECT_DOUBLE_EQ(tracker.measuredOptimality(),
                     200.0 / static_cast<double>(kLimit));
}

TEST_F(RetentionTest, MaxObservedAgeTracks)
{
    tracker.onActivate(0, 1, 7, 12345);
    EXPECT_EQ(tracker.maxObservedAge(), 12345u);
}

TEST_F(RetentionTest, FinalCheckFindsStaleRows)
{
    // Refresh half the rows late in the run; the rest are stale.
    for (std::uint32_t r = 0; r < 4; ++r)
        tracker.onRestore(0, 0, r, kLimit);
    const std::uint64_t stale = tracker.finalCheck(kLimit + kLimit);
    // Bank 0 rows 4..7 and all of bank 1 were never restored.
    EXPECT_EQ(stale, 12u);
    EXPECT_EQ(tracker.violations(), 12u);
}

TEST_F(RetentionTest, FinalCheckClampsFutureRestores)
{
    // Regression: a restore recorded at a completion tick past the
    // horizon must not underflow the age computation.
    tracker.onRestore(0, 0, 0, kLimit + 5);
    for (std::uint32_t b = 0; b < 2; ++b)
        for (std::uint32_t r = 0; r < 8; ++r)
            if (!(b == 0 && r == 0))
                tracker.onRestore(0, b, r, kLimit);
    EXPECT_EQ(tracker.finalCheck(kLimit), 0u);
    EXPECT_EQ(tracker.violations(), 0u);
    EXPECT_LT(tracker.maxObservedAge(), kLimit);
}

TEST_F(RetentionTest, ChecksAreCounted)
{
    tracker.onActivate(0, 0, 0, 10);
    tracker.onRefresh(0, 0, 1, 20);
    const StatBase *s = tracker.findStat("checks");
    ASSERT_NE(s, nullptr);
}

TEST(RetentionTrackerLayout, ClassMultipliersFollowEveryRow)
{
    // The shadow stores rows bank-interleaved; multipliers arrive in
    // flat (rank, bank, row) order and must land on the same rows.
    RetentionTracker tracker{2, 4, 8, kLimit, kSlack, nullptr};
    std::vector<std::uint8_t> m(2 * 4 * 8);
    for (std::size_t i = 0; i < m.size(); ++i)
        m[i] = static_cast<std::uint8_t>(1 + i % 7);
    tracker.applyClassMultipliers(m);
    std::size_t flat = 0;
    for (std::uint32_t rank = 0; rank < 2; ++rank)
        for (std::uint32_t bank = 0; bank < 4; ++bank)
            for (std::uint32_t row = 0; row < 8; ++row)
                EXPECT_EQ(tracker.rowLimit(rank, bank, row),
                          kLimit * m[flat++])
                    << rank << "/" << bank << "/" << row;
}

TEST(RetentionTrackerLayout, RowsStayDistinct)
{
    // Every (rank, bank, row) owns its own entry: restoring all rows
    // but one leaves exactly that one stale.
    RetentionTracker tracker{2, 4, 8, kLimit, kSlack, nullptr};
    for (std::uint32_t rank = 0; rank < 2; ++rank)
        for (std::uint32_t bank = 0; bank < 4; ++bank)
            for (std::uint32_t row = 0; row < 8; ++row)
                if (!(rank == 1 && bank == 2 && row == 5))
                    tracker.onRestore(rank, bank, row, kLimit);
    EXPECT_EQ(tracker.finalCheck(2 * kLimit), 1u);
}
