#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "sim/stats_json.hh"
#include "test_config.hh"

using namespace smartref;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); }, EventPriority::ClockTick);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleAfter(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutedCountTracks)
{
    EventQueue eq;
    for (int i = 1; i <= 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SelfReschedulingStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        eq.scheduleAfter(10, tick);
    };
    eq.schedule(0, tick);
    eq.runUntil(100);
    EXPECT_EQ(count, 11); // ticks at 0,10,...,100
    EXPECT_EQ(eq.pending(), 1u);
}

namespace {

/** Deterministic 64-bit LCG so stress tests need no <random> state. */
struct Lcg
{
    std::uint64_t s;
    std::uint64_t
    operator()()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

constexpr EventPriority kPrios[] = {EventPriority::ClockTick,
                                    EventPriority::Default,
                                    EventPriority::Stats};

struct Scheduled
{
    Tick when;
    int prio;
    int idx;
};

/** Expected firing order: stable sort by (when, prio) of creation order. */
std::vector<int>
expectedOrder(std::vector<Scheduled> recs)
{
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.prio < b.prio;
                     });
    std::vector<int> order;
    for (const Scheduled &r : recs)
        order.push_back(r.idx);
    return order;
}

} // namespace

TEST(EventQueue, HeapStressMatchesStableSortOrder)
{
    EventQueue eq;
    Lcg rnd{12345};
    std::vector<Scheduled> recs;
    std::vector<int> fired;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const Tick when = rnd() % 500;
        const EventPriority prio = kPrios[rnd() % 3];
        recs.push_back({when, static_cast<int>(prio), i});
        eq.schedule(when, [&fired, i] { fired.push_back(i); }, prio);
    }
    eq.run();
    EXPECT_EQ(fired, expectedOrder(recs));
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, InterleavedScheduleAndRunUntilKeepsOrder)
{
    // Alternate runUntil slices with fresh batches of future events; the
    // global order must still be the stable (when, prio) sort of
    // creation order, which exercises the min-buffer displacement logic
    // as later batches undercut the buffered minimum.
    EventQueue eq;
    Lcg rnd{99};
    std::vector<Scheduled> recs;
    std::vector<int> fired;
    int idx = 0;
    for (int slice = 0; slice < 20; ++slice) {
        const Tick base = eq.now();
        for (int i = 0; i < 50; ++i) {
            const Tick when = base + rnd() % 300;
            const EventPriority prio = kPrios[rnd() % 3];
            recs.push_back({when, static_cast<int>(prio), idx});
            const int id = idx++;
            eq.schedule(when, [&fired, id] { fired.push_back(id); }, prio);
        }
        eq.runUntil(base + 100);
    }
    eq.run();
    EXPECT_EQ(fired, expectedOrder(recs));
}

TEST(EventQueue, MinBufferDisplacement)
{
    // Each schedule below undercuts the currently buffered minimum, or
    // lands behind it; firing order must be unaffected either way.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(4); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.schedule(7, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, BurstFiresAtEveryInterval)
{
    EventQueue eq;
    std::vector<Tick> fires;
    eq.scheduleBurst(10, 5, 4, [&] { fires.push_back(eq.now()); });
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 15, 20, 25}));
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CountsExecutionsPerKind)
{
    // Each occurrence counts once under its slot's kind, bursts and
    // reserved events included; executed() is the sum over kinds.
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.scheduleAfter(2, [] {}, EventPriority::ClockTick, EventKind::Walk);
    eq.scheduleBurst(3, 1, 5, [] {}, EventPriority::Default,
                     EventKind::Emit);
    const std::uint64_t seq = eq.reserveSeq();
    eq.scheduleReserved(4, seq, [] {}, EventPriority::Default,
                        EventKind::IdleTimer);
    eq.runUntil(4);
    EXPECT_EQ(eq.executed(EventKind::Emit), 2u); // ticks 3 and 4
    eq.run();
    EXPECT_EQ(eq.executed(EventKind::Other), 1u);
    EXPECT_EQ(eq.executed(EventKind::Walk), 1u);
    EXPECT_EQ(eq.executed(EventKind::Emit), 5u);
    EXPECT_EQ(eq.executed(EventKind::IdleTimer), 1u);
    EXPECT_EQ(eq.executed(), 8u);
    std::uint64_t sum = 0;
    for (std::uint64_t n : eq.executedByKind())
        sum += n;
    EXPECT_EQ(sum, eq.executed());
}

TEST(EventQueue, KindNamesAreDistinct)
{
    std::vector<std::string> names;
    for (std::size_t k = 0; k < kEventKinds; ++k)
        names.push_back(toString(static_cast<EventKind>(k)));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
    EXPECT_STREQ(toString(EventKind::PolicyClock), "policy_clock");
}

TEST(EventQueue, SlotsSurviveSlabGrowth)
{
    // Hundreds of simultaneously pending events span many slab blocks;
    // each callback must still find its own capture, and recycled
    // slots take the kind of their newest event.
    EventQueue eq;
    std::vector<int> seen;
    for (int i = 0; i < 300; ++i)
        eq.schedule(1 + i % 7, [&seen, i] { seen.push_back(i); });
    eq.run();
    ASSERT_EQ(seen.size(), 300u);
    std::sort(seen.begin(), seen.end());
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(seen[i], i);
    for (int i = 0; i < 300; ++i)
        eq.scheduleAfter(1, [] {}, EventPriority::Default, EventKind::Cache);
    eq.run();
    EXPECT_EQ(eq.executed(EventKind::Cache), 300u);
    EXPECT_EQ(eq.executed(EventKind::Other), 300u);
}

TEST(EventQueue, ReservedSeqRunsBeforeLaterSameTickEvents)
{
    // The reservation predates two same-tick events, so the reserved
    // event must run first even though it is queued last. The first
    // schedule sits in the one-entry fast-path buffer; the reserved node
    // has to displace it.
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(3); });
    EXPECT_EQ(eq.pending(), 2u);
    eq.scheduleReserved(10, seq, [&] { order.push_back(1); });
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ReservedSeqOrdersInsideHeapBehindBufferedMinimum)
{
    // An earlier event holds the fast-path buffer, so the reserved node
    // goes into the heap and must still precede the same-tick events
    // scheduled after its reservation, and follow the one before it.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(0); });
    eq.schedule(10, [&] { order.push_back(1); });
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(10, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(4); });
    eq.scheduleReserved(10, seq, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, RequeuedTimerKeepsNewestArmPlace)
{
    // The controller's idle-timer pattern: one queued timer, re-armed
    // twice before it fires. When it fires it moves to the newest arm's
    // reserved (deadline, seq), landing exactly where a timer scheduled
    // at that arm would have run: after the event scheduled before the
    // arm, before the one scheduled after it.
    EventQueue eq;
    std::vector<int> order;
    struct Arm
    {
        Tick deadline;
        std::uint64_t seq;
    };
    Arm newest{20, eq.reserveSeq()};
    const std::uint64_t queuedSeq = newest.seq;
    eq.schedule(40, [&] { order.push_back(1); });
    newest = Arm{30, eq.reserveSeq()};
    newest = Arm{40, eq.reserveSeq()};
    eq.schedule(40, [&] { order.push_back(3); });
    std::uint64_t firings = 0;
    std::function<void(std::uint64_t)> timer = [&](std::uint64_t mySeq) {
        ++firings;
        if (mySeq != newest.seq) {
            eq.scheduleReserved(newest.deadline, newest.seq,
                                [&, s = newest.seq] { timer(s); });
            return;
        }
        order.push_back(2);
    };
    eq.scheduleReserved(20, queuedSeq, [&] { timer(queuedSeq); });
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    // Two firings instead of three per-arm events: the 30-tick arm
    // never entered the queue.
    EXPECT_EQ(firings, 2u);
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, UnusedReservationChangesNoCounts)
{
    EventQueue eq;
    (void)eq.reserveSeq();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.schedule(3, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, SingleOccurrenceBurstAllowsZeroInterval)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleBurst(7, 0, 1, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, BurstReservesContiguousSequenceNumbers)
{
    // A burst reserves one sequence number per occurrence up front, so
    // every occurrence beats a same-tick event scheduled after the
    // scheduleBurst call -- exactly as if each occurrence had been
    // scheduled individually at creation time.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleBurst(10, 10, 3, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.schedule(30, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 1, 3}));
}

TEST(EventQueue, BurstMatchesIndividualSchedules)
{
    auto runPattern = [](bool useBurst) {
        EventQueue eq;
        std::vector<int> order;
        eq.schedule(5, [&] { order.push_back(0); });
        if (useBurst) {
            eq.scheduleBurst(5, 5, 3, [&] { order.push_back(1); });
        } else {
            for (Tick t = 5; t <= 15; t += 5)
                eq.schedule(t, [&] { order.push_back(1); });
        }
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(15, [&] { order.push_back(3); });
        eq.run();
        return order;
    };
    EXPECT_EQ(runPattern(true), runPattern(false));
}

TEST(EventQueue, RunUntilStopsMidBurst)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleBurst(10, 10, 5, [&] { ++fired; });
    eq.runUntil(25);
    EXPECT_EQ(fired, 2); // occurrences at 10 and 20
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, BurstCallbackCanScheduleReentrantly)
{
    // Callbacks run from slab storage that must stay valid while they
    // schedule further work (which can grow the slab).
    EventQueue eq;
    int burstFires = 0;
    int extraFires = 0;
    eq.scheduleBurst(1, 1, 200, [&] {
        ++burstFires;
        if (burstFires % 3 == 0) {
            eq.scheduleAfter(1, [&] { ++extraFires; });
            eq.scheduleBurst(eq.now() + 1, 1, 2, [&] { ++extraFires; });
        }
    });
    eq.run();
    EXPECT_EQ(burstFires, 200);
    EXPECT_EQ(extraFires, 66 * 3);
}

namespace {

/** One fixed-seed Smart-Refresh run, stats dumped as JSON. */
std::string
runFixedSeedStats(int slices)
{
    SystemConfig cfg;
    cfg.dram = tcfg::tinyConfig();
    cfg.policy = PolicyKind::Smart;
    cfg.smart.autoReconfigure = false;

    System sys(cfg);
    WorkloadParams wp;
    wp.name = "det";
    wp.footprintRows = cfg.dram.org.totalRows() / 2;
    wp.rowVisitsPerSecond = 2e6;
    wp.accessesPerVisit = 4;
    wp.randomJumpProb = 0.2;
    wp.readFraction = 0.7;
    wp.interArrivalJitter = 0.5;
    wp.seed = 17;
    sys.addWorkload(wp);

    const Tick total = 3 * cfg.dram.timing.retention;
    for (int s = 0; s < slices; ++s)
        sys.run(total / slices);

    std::ostringstream os;
    writeStatsJson(sys, os);
    return os.str();
}

} // namespace

TEST(EventQueueDeterminism, FixedSeedRunsAreByteIdentical)
{
    const std::string once = runFixedSeedStats(1);
    EXPECT_EQ(once, runFixedSeedStats(1));
}

TEST(EventQueueDeterminism, SlicedRunUntilMatchesSingleRun)
{
    // Driving the same simulation through many runUntil() slices must
    // not perturb event order or any statistic: the min-buffer fast
    // path and the heap see very different traffic in the two shapes.
    // Two stats are energy integrals accumulated at run() boundaries
    // (background standby, counter SRAM); slicing regroups their float
    // sums, so those scalars may differ by rounding only -- every
    // event-order-derived stat must be byte-exact.
    const std::string once = runFixedSeedStats(1);
    const std::string sliced = runFixedSeedStats(16);
    std::istringstream ia(once);
    std::istringstream ib(sliced);
    std::string la;
    std::string lb;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool gb = static_cast<bool>(std::getline(ib, lb));
        ASSERT_EQ(ga, gb) << "stats dumps differ in length";
        if (!ga)
            break;
        if (la == lb)
            continue;
        ASSERT_NE(la.find("\"kind\": \"scalar\""), std::string::npos) << la;
        const auto va = la.find("\"value\": ");
        ASSERT_NE(va, std::string::npos) << la;
        ASSERT_EQ(la.substr(0, va), lb.substr(0, va));
        const auto da = la.find("\"desc\"");
        const auto db = lb.find("\"desc\"");
        ASSERT_NE(da, std::string::npos) << la;
        ASSERT_EQ(la.substr(da), lb.substr(db));
        const double xa = std::stod(la.substr(va + 9));
        const double xb = std::stod(lb.substr(va + 9));
        const double tol =
            1e-12 * std::max(std::abs(xa), std::abs(xb));
        EXPECT_NEAR(xa, xb, tol) << la;
    }
}
