#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dram/retention_tracker.hh"
#include "sim/random.hh"

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

namespace {

/** The exact 64-bit shadow that the tracker's stamps must agree with. */
class ExactShadow
{
  public:
    ExactShadow(std::size_t rows, Tick limitPlusSlack)
        : last_(rows, 0), limit_(limitPlusSlack)
    {
    }

    void activate(std::size_t i, Tick now) { check(i, now); }
    void restore(std::size_t i, Tick now) { last_[i] = now; }

    void
    refresh(std::size_t i, Tick now)
    {
        check(i, now);
        last_[i] = now;
    }

    std::uint64_t
    finalCheck(Tick now)
    {
        std::uint64_t stale = 0;
        for (Tick t : last_)
            stale += (t >= now ? 0 : now - t) > limit_;
        violations_ += stale;
        return stale;
    }

    Tick lastRestore(std::size_t i) const { return last_[i]; }
    std::uint64_t violations() const { return violations_; }

  private:
    void check(std::size_t i, Tick now) { violations_ += now - last_[i] > limit_; }

    std::vector<Tick> last_;
    Tick limit_;
    std::uint64_t violations_ = 0;
};

/** One stamp unit, and the rebase step (2^31 units), in ticks. */
constexpr Tick kUnit = 1024;
constexpr Tick kRebaseStep = Tick(1) << 41;

} // namespace

TEST(RetentionStamps, MatchExactShadowAcrossRebases)
{
    // 10 s on the 1.024 ns grid, where rounding down is exact, crosses
    // several rebases. Rows 28-31 are restored only every few seconds,
    // so rebases saturate their stamps. Every call must leave the same
    // violation count as the exact shadow.
    constexpr Tick kLimit64 = 64 * kMillisecond;
    constexpr Tick kSlack20 = 20 * kMicrosecond;
    RetentionTracker tracker{1, 2, 16, kLimit64, kSlack20, nullptr};
    ExactShadow exact(32, kLimit64 + kSlack20);
    Rng rng(2007);
    Tick now = 0;
    Tick longestUnrestored = 0;
    std::uint64_t finalChecks = 0;
    std::uint64_t outcomes[2] = {0, 0}; ///< row checks: in time, late
    while (now < 10 * kSecond) {
        const std::uint64_t before = exact.violations();
        bool checked = true;
        now += rng.nextBelow(4 * kMillisecond / kUnit) * kUnit;
        const auto i = static_cast<std::uint32_t>(rng.nextBelow(32));
        const std::uint32_t bank = i / 16, row = i % 16;
        const bool restores = i < 28 || rng.nextBool(0.02);
        longestUnrestored =
            std::max(longestUnrestored, now - exact.lastRestore(i));
        switch (rng.nextBelow(4)) {
          case 0:
            tracker.onActivate(0, bank, row, now);
            exact.activate(i, now);
            break;
          case 1:
            checked = false;
            if (restores) {
                tracker.onRestore(0, bank, row, now);
                exact.restore(i, now);
            }
            break;
          case 2:
            if (restores) {
                tracker.onRefresh(0, bank, row, now);
                exact.refresh(i, now);
            } else {
                tracker.onActivate(0, bank, row, now);
                exact.activate(i, now);
            }
            break;
          default:
            checked = false;
            if (rng.nextBool(0.05)) {
                ASSERT_EQ(tracker.finalCheck(now), exact.finalCheck(now))
                    << "at " << now;
                ++finalChecks;
            }
        }
        ASSERT_EQ(tracker.violations(), exact.violations()) << "at " << now;
        if (checked)
            ++outcomes[exact.violations() > before];
    }
    // The walk saw both outcomes, final checks, and stamps that a
    // rebase must have saturated.
    EXPECT_GT(outcomes[0], 500u);
    EXPECT_GT(outcomes[1], 500u);
    EXPECT_GT(finalChecks, 0u);
    EXPECT_GT(longestUnrestored, kRebaseStep);
}

TEST(RetentionStamps, OffGridRestoreRoundsAgeUp)
{
    // A stamp rounds its restore down to the 1.024 ns grid, so an age
    // reads at least the exact age and less than one unit more, before
    // and after the first rebase (a restore at 5 s forces one).
    for (Tick start : {Tick(0), 5 * kSecond}) {
        for (Tick off : {Tick(0), Tick(1), Tick(511), Tick(1023)}) {
            RetentionTracker tracker{1, 1, 2, kLimit, kSlack, nullptr};
            tracker.onRestore(0, 0, 1, start);
            const Tick restored = start + 3 * kMicrosecond + off;
            const Tick refreshed = restored + kLimit / 2 + 17;
            tracker.onRestore(0, 0, 0, restored);
            tracker.onRefresh(0, 0, 0, refreshed);
            const Tick exact = refreshed - restored;
            EXPECT_GE(tracker.minRefreshAge(), exact) << start << "+" << off;
            EXPECT_LT(tracker.minRefreshAge(), exact + kUnit)
                << start << "+" << off;
            EXPECT_EQ(tracker.violations(), 0u);
        }
    }
}

TEST(RetentionStamps, LimitsMustStayBelowTheRebaseStep)
{
    // A saturated stamp reads at least one rebase step old, so a limit
    // plus slack that reaches the step could hide a violation.
    EXPECT_THROW((RetentionTracker{1, 1, 4, kRebaseStep - kSlack, kSlack,
                                   nullptr}),
                 std::runtime_error);
    EXPECT_NO_THROW((RetentionTracker{1, 1, 4, kRebaseStep - kSlack - 1,
                                      kSlack, nullptr}));

    // 600 ms x 3 fits; x 4 does not, and leaves the old classes.
    constexpr Tick kLimit600 = 600 * kMillisecond;
    RetentionTracker tracker{1, 1, 4, kLimit600, kSlack, nullptr};
    tracker.applyClassMultipliers({1, 3, 3, 1});
    EXPECT_THROW(tracker.applyClassMultipliers({1, 1, 4, 1}),
                 std::runtime_error);
    EXPECT_EQ(tracker.rowLimit(0, 0, 2), 3 * kLimit600);
}
