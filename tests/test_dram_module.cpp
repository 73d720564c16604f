#include <gtest/gtest.h>

#include <stdexcept>

#include "dram/dram_module.hh"
#include "test_config.hh"

using namespace smartref;

class DramModuleTest : public ::testing::Test
{
  protected:
    DramModuleTest() : dram(smartref::tcfg::tinyConfig(), eq) {}

    /** Advance to the command's earliest tick and issue it. */
    Tick
    issueAt(const DramCommand &cmd)
    {
        eq.runUntil(std::max(eq.now(), dram.earliestIssue(cmd)));
        return dram.issue(cmd);
    }

    EventQueue eq;
    DramModule dram;
    const DramTiming &t = dram.config().timing;
};

TEST_F(DramModuleTest, ActivateOpensBank)
{
    const Tick done =
        issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    EXPECT_TRUE(dram.isBankOpen(0, 0));
    EXPECT_EQ(dram.openRow(0, 0), 10u);
    EXPECT_EQ(done, eq.now() + t.tRCD);
    EXPECT_EQ(dram.activates(), 1u);
}

TEST_F(DramModuleTest, ActivateIntoOpenBankPanics)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    eq.runUntil(eq.now() + t.tRC);
    EXPECT_THROW(dram.issue({DramCommandType::Activate, 0, 0, 11, 0}),
                 std::logic_error);
}

TEST_F(DramModuleTest, PrematureIssuePanics)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    // READ before tRCD has elapsed must be rejected.
    EXPECT_THROW(dram.issue({DramCommandType::Read, 0, 0, 10, 0}),
                 std::logic_error);
}

TEST_F(DramModuleTest, ReadWriteRequireMatchingRow)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    eq.runUntil(eq.now() + t.tRCD);
    EXPECT_THROW(dram.issue({DramCommandType::Read, 0, 0, 11, 0}),
                 std::logic_error);
    EXPECT_NO_THROW(dram.issue({DramCommandType::Read, 0, 0, 10, 3}));
    EXPECT_EQ(dram.reads(), 1u);
}

TEST_F(DramModuleTest, ReadCompletionIncludesCasAndBurst)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    const Tick done = issueAt({DramCommandType::Read, 0, 0, 10, 0});
    EXPECT_EQ(done, eq.now() + t.tCL + t.tBurst);
    EXPECT_EQ(dram.dataBusFreeAt(), done);
}

TEST_F(DramModuleTest, DataBusSerialisesBursts)
{
    issueAt({DramCommandType::Activate, 0, 0, 1, 0});
    issueAt({DramCommandType::Activate, 0, 1, 2, 0});
    const Tick firstDone = issueAt({DramCommandType::Read, 0, 0, 1, 0});
    // The second burst may not start before the bus frees.
    const Tick earliest =
        dram.earliestIssue({DramCommandType::Read, 0, 1, 2, 0});
    EXPECT_GE(earliest + t.tCL, firstDone);
}

TEST_F(DramModuleTest, PrechargeClosesAndRestores)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    const Tick done = issueAt({DramCommandType::Precharge, 0, 0, 0, 0});
    EXPECT_FALSE(dram.isBankOpen(0, 0));
    EXPECT_EQ(done, eq.now() + t.tRP);
    EXPECT_EQ(dram.precharges(), 1u);
}

TEST_F(DramModuleTest, PrechargeClosedBankPanics)
{
    EXPECT_THROW(dram.issue({DramCommandType::Precharge, 0, 0, 0, 0}),
                 std::logic_error);
}

TEST_F(DramModuleTest, CbrRefreshUsesInternalCounter)
{
    const auto target = dram.peekCbrTarget(0);
    issueAt({DramCommandType::RefreshCbr, 0, 0, 0, 0});
    EXPECT_EQ(dram.cbrRefreshes(), 1u);
    // Counter advanced.
    EXPECT_NE(dram.peekCbrTarget(0), target);
}

TEST_F(DramModuleTest, RasOnlyRefreshTargetsExplicitRow)
{
    issueAt({DramCommandType::RefreshRasOnly, 0, 1, 42, 0});
    EXPECT_EQ(dram.rasOnlyRefreshes(), 1u);
    EXPECT_GT(dram.power().refreshEnergy(), 0.0);
}

TEST_F(DramModuleTest, RefreshIntoOpenBankClosesPage)
{
    issueAt({DramCommandType::Activate, 0, 0, 7, 0});
    eq.runUntil(eq.now() + t.tRAS);
    const Tick done = issueAt({DramCommandType::RefreshRasOnly, 0, 0, 3, 0});
    EXPECT_FALSE(dram.isBankOpen(0, 0));
    EXPECT_EQ(done, eq.now() + t.tRP + t.tRFCrow);
    // The open-page penalty was charged.
    const StatBase *s = dram.power().findStat("refreshOpsOpen");
    ASSERT_NE(s, nullptr);
}

TEST_F(DramModuleTest, RefreshBlocksSubsequentActivate)
{
    issueAt({DramCommandType::RefreshRasOnly, 0, 0, 3, 0});
    const Tick earliest =
        dram.earliestIssue({DramCommandType::Activate, 0, 0, 5, 0});
    EXPECT_GE(earliest, eq.now() + t.tRFCrow);
}

TEST_F(DramModuleTest, OutOfRangeAddressPanics)
{
    eq.runUntil(1000);
    EXPECT_THROW(dram.issue({DramCommandType::Activate, 0, 0, 1 << 20, 0}),
                 std::logic_error);
    EXPECT_THROW(dram.issue({DramCommandType::Activate, 9, 0, 0, 0}),
                 std::logic_error);
    // Rank and bank are checked before anything is indexed by them, for
    // every command type and for the timing query.
    EXPECT_THROW(dram.issue({DramCommandType::Precharge, 9, 0, 0, 0}),
                 std::logic_error);
    EXPECT_THROW(dram.issue({DramCommandType::Precharge, 0, 9, 0, 0}),
                 std::logic_error);
    EXPECT_THROW(dram.earliestIssue({DramCommandType::Read, 9, 0, 0, 0}),
                 std::logic_error);
}

TEST_F(DramModuleTest, TooEarlyTryIssueChangesNothing)
{
    issueAt({DramCommandType::Activate, 0, 0, 10, 0});
    // A refresh into the open bank must wait for tRAS.
    const DramCommand ref{DramCommandType::RefreshRasOnly, 0, 0, 3, 0};
    const Tick earliest = dram.earliestIssue(ref);
    ASSERT_GT(earliest, eq.now());
    const auto checks = [this] {
        return dynamic_cast<const Scalar &>(
                   *dram.retention().findStat("checks"))
            .value();
    };
    const double energy = dram.power().totalEnergy();
    const double checksBefore = checks();

    const DramModule::IssueAttempt attempt = dram.tryIssue(ref);
    EXPECT_FALSE(attempt.issued);
    EXPECT_EQ(attempt.tick, earliest);
    EXPECT_EQ(dram.openRow(0, 0), 10u);
    EXPECT_EQ(dram.activates(), 1u);
    EXPECT_EQ(dram.totalRefreshes(), 0u);
    EXPECT_EQ(dram.refreshesToBank(0, 0), 0u);
    EXPECT_EQ(dram.power().totalEnergy(), energy);
    EXPECT_EQ(checks(), checksBefore);

    // Row 3 keeps its initial stamp: activated past its deadline, it
    // is a violation, which a refresh stamped above would have hidden.
    issueAt({DramCommandType::Precharge, 0, 0, 0, 0});
    eq.runUntil(dram.retention().rowLimit(0, 0, 3) + kMillisecond);
    issueAt({DramCommandType::Activate, 0, 0, 3, 0});
    EXPECT_EQ(dram.retention().violations(), 1u);
}

TEST_F(DramModuleTest, RetentionTracksRefreshes)
{
    issueAt({DramCommandType::RefreshRasOnly, 0, 0, 3, 0});
    EXPECT_EQ(dram.retention().violations(), 0u);
}

TEST_F(DramModuleTest, TrrdSpacesActivatesWithinRank)
{
    issueAt({DramCommandType::Activate, 0, 0, 1, 0});
    const Tick earliest =
        dram.earliestIssue({DramCommandType::Activate, 0, 1, 1, 0});
    EXPECT_GE(earliest, eq.now() + t.tRRD);
}

TEST_F(DramModuleTest, FinalizeAccumulatesBackground)
{
    eq.runUntil(kMillisecond);
    dram.finalize();
    EXPECT_GT(dram.power().backgroundEnergy(), 0.0);
}

TEST_F(DramModuleTest, PowerDownReducesBackgroundEnergy)
{
    // Same idle duration, with and without power-down permission.
    EventQueue eq2;
    DramConfig noPd = smartref::tcfg::tinyConfig();
    noPd.allowPowerDown = false;
    DramModule dram2(noPd, eq2);

    eq.runUntil(kMillisecond);
    dram.finalize();
    eq2.runUntil(kMillisecond);
    dram2.finalize();
    EXPECT_LT(dram.power().backgroundEnergy(),
              dram2.power().backgroundEnergy());
}
