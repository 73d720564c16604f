#include <gtest/gtest.h>

#include "ctrl/memory_controller.hh"
#include "test_config.hh"

using namespace smartref;

namespace {

/** Captures policy notifications for inspection. */
class RecordingPolicy : public RefreshPolicy
{
  public:
    explicit RecordingPolicy(StatGroup *parent)
        : RefreshPolicy("refresh.recording", parent)
    {
    }

    void start() override {}

    void
    onRowActivated(std::uint32_t rank, std::uint32_t bank,
                   std::uint32_t row) override
    {
        activated.push_back({rank, bank, row});
    }

    void
    onRowClosed(std::uint32_t rank, std::uint32_t bank,
                std::uint32_t row) override
    {
        closed.push_back({rank, bank, row});
        closedAt.push_back(clock ? clock->now() : 0);
    }

    void
    onRefreshIssued(const RefreshRequest &req) override
    {
        issued.push_back(req);
    }

    std::string policyName() const override { return "recording"; }

    struct Coord
    {
        std::uint32_t rank, bank, row;
    };
    std::vector<Coord> activated;
    std::vector<Coord> closed;
    std::vector<Tick> closedAt; ///< tick of each close (needs `clock`)
    std::vector<RefreshRequest> issued;
    const EventQueue *clock = nullptr;
};

} // namespace

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : root("root"),
          dram(tcfg::tinyConfig(), eq, &root),
          ctrl(dram, eq, ControllerConfig{}, &root),
          policy(&root)
    {
        policy.clock = &eq;
        ctrl.setRefreshPolicy(&policy);
    }

    Addr
    addrOf(std::uint64_t blockRow, std::uint64_t offset = 0) const
    {
        return blockRow * dram.config().org.rowBytes() + offset;
    }

    EventQueue eq;
    StatGroup root;
    DramModule dram;
    MemoryController ctrl;
    RecordingPolicy policy;
};

TEST_F(ControllerTest, FirstAccessIsRowMiss)
{
    ctrl.access(addrOf(0), false);
    eq.runUntil(kMicrosecond);
    EXPECT_EQ(ctrl.rowMisses(), 1u);
    EXPECT_EQ(ctrl.demandReads(), 1u);
    EXPECT_EQ(policy.activated.size(), 1u);
}

TEST_F(ControllerTest, SameRowBackToBackIsHit)
{
    ctrl.access(addrOf(0, 0), false);
    ctrl.access(addrOf(0, 64), false);
    eq.runUntil(kMicrosecond / 10); // before the idle-precharge timer
    EXPECT_EQ(ctrl.rowMisses(), 1u);
    EXPECT_EQ(ctrl.rowHits(), 1u);
}

TEST_F(ControllerTest, DifferentRowSameBankConflicts)
{
    const auto banks = dram.config().org.banks;
    ctrl.access(addrOf(0), false);
    ctrl.access(addrOf(banks), false); // next row in bank 0
    eq.runUntil(kMicrosecond / 10);
    EXPECT_EQ(ctrl.rowConflicts(), 1u);
    // The conflict closed the first row: the policy must see it.
    ASSERT_EQ(policy.closed.size(), 1u);
    EXPECT_EQ(policy.closed[0].row, 0u);
}

TEST_F(ControllerTest, CompletionCallbackDeliversLatency)
{
    Tick completion = 0;
    ctrl.access(addrOf(3), false,
                [&](const MemRequest &, Tick done) { completion = done; });
    eq.runUntil(kMicrosecond);
    const auto &t = dram.config().timing;
    EXPECT_EQ(completion, t.tRCD + t.tCL + t.tBurst);
    EXPECT_GT(ctrl.avgLatency(), 0.0);
}

TEST_F(ControllerTest, WritesAreCounted)
{
    ctrl.access(addrOf(1), true);
    eq.runUntil(kMicrosecond);
    EXPECT_EQ(ctrl.demandWrites(), 1u);
    EXPECT_EQ(dram.writes(), 1u);
}

TEST_F(ControllerTest, IdlePrechargeClosesPageAndNotifies)
{
    ctrl.access(addrOf(0), false);
    eq.runUntil(10 * kMicrosecond); // past the idle timeout
    EXPECT_FALSE(dram.isBankOpen(0, 0));
    ASSERT_EQ(policy.closed.size(), 1u);
    EXPECT_EQ(policy.closed[0].row, 0u);
    EXPECT_TRUE(ctrl.idle());
}

TEST_F(ControllerTest, RowHitTrainGetsOneIdlePrechargeAfterLastDrain)
{
    // 45 ns-spaced hits on one open row re-arm the idle timer at every
    // drain; the page closes once, exactly idlePrechargeAfter after the
    // last column command issued.
    const auto &t = dram.config().timing;
    const Tick idleAfter = ControllerConfig{}.idlePrechargeAfter;
    const int n = 12;
    Tick lastDone = 0;
    for (int i = 0; i < n; ++i) {
        eq.schedule(Tick(i) * 45 * kNanosecond, [this, &lastDone] {
            ctrl.access(addrOf(0), false,
                        [&lastDone](const MemRequest &, Tick done) {
                lastDone = done;
            });
        });
    }
    eq.runUntil(10 * kMicrosecond);
    EXPECT_EQ(ctrl.rowMisses(), 1u);
    EXPECT_EQ(ctrl.rowHits(), std::uint64_t(n - 1));
    ASSERT_EQ(policy.closed.size(), 1u);
    const Tick lastDrain = lastDone - (t.tCL + t.tBurst);
    EXPECT_EQ(policy.closedAt[0], lastDrain + idleAfter);
    EXPECT_FALSE(dram.isBankOpen(0, 0));
    EXPECT_TRUE(ctrl.idle());
}

TEST_F(ControllerTest, DemandOnSupersededDeadlineTickHitsOpenRow)
{
    // The first drain arms a deadline that the second access supersedes.
    // A third access arriving exactly on that stale deadline tick finds
    // the page open, whether its arrival event runs before the stale
    // timer at that tick (scheduled up front) or after it (scheduled
    // once both arms exist); the page then closes once, after the third
    // access drains.
    const auto &t = dram.config().timing;
    const Tick idleAfter = ControllerConfig{}.idlePrechargeAfter;
    const Tick firstDrain = t.tRCD; // row miss at tick 0
    for (bool arrivalFirst : {true, false}) {
        EventQueue q;
        StatGroup r("r");
        DramModule d(tcfg::tinyConfig(), q, &r);
        MemoryController c(d, q, ControllerConfig{}, &r);
        RecordingPolicy p(&r);
        p.clock = &q;
        c.setRefreshPolicy(&p);
        Tick lastDone = 0;
        auto access = [&] {
            c.access(addrOf(0), false,
                     [&lastDone](const MemRequest &, Tick done) {
                lastDone = done;
            });
        };
        q.schedule(0, access);
        q.schedule(45 * kNanosecond, access);
        if (arrivalFirst) {
            q.schedule(firstDrain + idleAfter, access);
        } else {
            q.schedule(100 * kNanosecond, [&] {
                q.schedule(firstDrain + idleAfter, access);
            });
        }
        q.runUntil(10 * kMicrosecond);
        EXPECT_EQ(c.rowMisses(), 1u) << arrivalFirst;
        EXPECT_EQ(c.rowHits(), 2u) << arrivalFirst;
        EXPECT_EQ(c.rowConflicts(), 0u) << arrivalFirst;
        EXPECT_EQ(lastDone, firstDrain + idleAfter + t.tCL + t.tBurst)
            << arrivalFirst;
        ASSERT_EQ(p.closed.size(), 1u) << arrivalFirst;
        EXPECT_EQ(p.closedAt[0], firstDrain + 2 * idleAfter) << arrivalFirst;
    }
}

TEST_F(ControllerTest, IdlePrechargeCanBeDisabled)
{
    ControllerConfig cfg;
    cfg.idlePrechargeAfter = 0;
    MemoryController ctrl2(dram, eq, cfg, &root);
    ctrl2.access(addrOf(0), false);
    eq.runUntil(10 * kMicrosecond);
    EXPECT_TRUE(dram.isBankOpen(0, 0));
}

TEST_F(ControllerTest, RefreshRequestIssuesAndNotifies)
{
    RefreshRequest req;
    req.rank = 0;
    req.bank = 1;
    req.row = 5;
    req.created = eq.now();
    ctrl.pushRefresh(req);
    eq.runUntil(kMicrosecond);
    ASSERT_EQ(policy.issued.size(), 1u);
    EXPECT_EQ(policy.issued[0].row, 5u);
    EXPECT_EQ(dram.rasOnlyRefreshes(), 1u);
    EXPECT_EQ(ctrl.refreshBacklog(), 0u);
}

TEST_F(ControllerTest, CbrRefreshResolvedViaMirror)
{
    for (int i = 0; i < 3; ++i) {
        RefreshRequest req;
        req.rank = 0;
        req.cbr = true;
        req.created = eq.now();
        ctrl.pushRefresh(req);
    }
    eq.runUntil(kMicrosecond);
    ASSERT_EQ(policy.issued.size(), 3u);
    // Mirror walks the same (bank, row) order as a device CBR counter.
    EXPECT_EQ(policy.issued[0].bank, 0u);
    EXPECT_EQ(policy.issued[1].bank, 1u);
    EXPECT_EQ(policy.issued[2].bank, 0u);
    EXPECT_EQ(policy.issued[2].row, 1u);
}

TEST_F(ControllerTest, RefreshToOpenBankClosesItAndNotifies)
{
    ctrl.access(addrOf(0), false); // opens bank 0 row 0
    eq.runUntil(200); // demand issued, row open, before idle precharge
    RefreshRequest req;
    req.rank = 0;
    req.bank = 0;
    req.row = 9;
    req.created = eq.now();
    ctrl.pushRefresh(req);
    eq.runUntil(eq.now() + 10 * kMicrosecond);
    // The refresh implicitly closed row 0.
    bool sawClose = false;
    for (const auto &c : policy.closed)
        sawClose |= (c.row == 0);
    EXPECT_TRUE(sawClose);
}

TEST_F(ControllerTest, BacklogTracksOutstandingRefreshes)
{
    for (std::uint32_t i = 0; i < 5; ++i) {
        RefreshRequest req;
        req.rank = 0;
        req.bank = 0;
        req.row = i;
        req.created = eq.now();
        ctrl.pushRefresh(req);
    }
    EXPECT_GE(ctrl.maxRefreshBacklog(), 4u);
    eq.runUntil(kMicrosecond * 10);
    EXPECT_EQ(ctrl.refreshBacklog(), 0u);
}

TEST_F(ControllerTest, LatencySumMatchesHistogram)
{
    for (int i = 0; i < 4; ++i)
        ctrl.access(addrOf(i), false);
    eq.runUntil(kMicrosecond * 10);
    const auto &h = ctrl.latencyHistogram();
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_NEAR(ctrl.latencySumTicks(), h.mean() * 4.0, 1.0);
}

TEST_F(ControllerTest, MapperMatchesConfigScheme)
{
    EXPECT_EQ(ctrl.mapper().scheme(), AddressScheme::RowRankBankColumn);
    EXPECT_EQ(ctrl.mapper().capacityBytes(),
              dram.config().org.capacityBytes());
}
