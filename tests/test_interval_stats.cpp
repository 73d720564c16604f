#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/interval_stats.hh"
#include "sim/tracer.hh"

using namespace smartref;

TEST(IntervalStats, DeltaColumnsSnapshotAndReset)
{
    EventQueue eq;
    double counter = 0.0;
    IntervalStats sampler(eq, 10 * kMillisecond);
    sampler.addDelta("count", [&counter] { return counter; });

    counter = 5.0; // accumulated before start(); must not be reported
    sampler.start();
    eq.scheduleAfter(4 * kMillisecond, [&counter] { counter = 12.0; });
    eq.scheduleAfter(14 * kMillisecond, [&counter] { counter = 13.0; });
    eq.runUntil(30 * kMillisecond);
    sampler.stop();

    ASSERT_EQ(sampler.samples().size(), 3u);
    // Interval 1: 12 - 5; interval 2: 13 - 12; interval 3: nothing new.
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 7.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[1].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[2].values[0], 0.0);
    // The source itself was never reset.
    EXPECT_DOUBLE_EQ(counter, 13.0);
}

TEST(IntervalStats, GaugeColumnsReportInstantaneousValues)
{
    EventQueue eq;
    double depth = 3.0;
    IntervalStats sampler(eq, 1 * kMillisecond);
    sampler.addGauge("depth", [&depth] { return depth; });
    sampler.start();
    eq.scheduleAfter(kMillisecond + kMillisecond / 2,
                     [&depth] { depth = 9.0; });
    eq.runUntil(3 * kMillisecond);
    sampler.stop();

    ASSERT_EQ(sampler.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[1].values[0], 9.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[2].values[0], 9.0);
}

TEST(IntervalStats, IntervalsTileTheTimeline)
{
    EventQueue eq;
    IntervalStats sampler(eq, 2 * kMillisecond);
    sampler.addGauge("x", [] { return 0.0; });
    sampler.start();
    eq.runUntil(6 * kMillisecond);
    sampler.stop();

    ASSERT_EQ(sampler.samples().size(), 3u);
    for (std::size_t i = 0; i < sampler.samples().size(); ++i) {
        const auto &s = sampler.samples()[i];
        EXPECT_EQ(s.end - s.begin, 2 * kMillisecond);
        if (i > 0) {
            EXPECT_EQ(s.begin, sampler.samples()[i - 1].end);
        }
    }
}

TEST(IntervalStats, FinishClosesPartialInterval)
{
    EventQueue eq;
    double counter = 0.0;
    IntervalStats sampler(eq, 10 * kMillisecond);
    sampler.addDelta("count", [&counter] { return counter; });
    sampler.start();
    eq.scheduleAfter(12 * kMillisecond, [&counter] { counter = 4.0; });
    eq.runUntil(15 * kMillisecond); // one full interval + half of another
    sampler.finish();

    ASSERT_EQ(sampler.samples().size(), 2u);
    const auto &partial = sampler.samples()[1];
    EXPECT_EQ(partial.begin, 10 * kMillisecond);
    EXPECT_EQ(partial.end, 15 * kMillisecond);
    EXPECT_DOUBLE_EQ(partial.values[0], 4.0);
    // finish() is a no-op once stopped.
    sampler.finish();
    EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(IntervalStats, FinishAtExactBoundaryEmitsNoEmptyInterval)
{
    EventQueue eq;
    IntervalStats sampler(eq, 5 * kMillisecond);
    sampler.addGauge("x", [] { return 1.0; });
    sampler.start();
    eq.runUntil(10 * kMillisecond); // two whole intervals, no remainder
    sampler.finish();

    // The boundary sample at t=10 already closed the second interval;
    // finish() must not append a zero-length [10, 10] row after it.
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_EQ(sampler.samples()[1].end, 10 * kMillisecond);
}

TEST(IntervalStats, FinishBeforeAnyTimeElapsesEmitsNothing)
{
    EventQueue eq;
    IntervalStats sampler(eq, kMillisecond);
    sampler.addGauge("x", [] { return 1.0; });
    sampler.start();
    sampler.finish(); // now() == start tick: no interval to close
    EXPECT_TRUE(sampler.samples().empty());
    // finish() also stopped the sampler: future ticks stay silent.
    eq.runUntil(5 * kMillisecond);
    EXPECT_TRUE(sampler.samples().empty());
}

TEST(IntervalStats, PartialTailDeltaSurvivesIntoCsv)
{
    EventQueue eq;
    double counter = 0.0;
    IntervalStats sampler(eq, 4 * kMillisecond);
    sampler.addDelta("count", [&counter] { return counter; });
    sampler.start();
    eq.scheduleAfter(1 * kMillisecond, [&counter] { counter = 3.0; });
    eq.scheduleAfter(5 * kMillisecond, [&counter] { counter = 10.0; });
    eq.runUntil(6 * kMillisecond);
    sampler.finish();

    // Full interval [0,4) saw 3; the flushed tail [4,6] saw the rest.
    // Dropping the tail would silently lose 7 units of activity.
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[1].values[0], 7.0);

    std::ostringstream oss;
    sampler.writeCsv(oss);
    EXPECT_NE(oss.str().find("4,6,7"), std::string::npos);
}

TEST(IntervalStats, StopCancelsFutureSamples)
{
    EventQueue eq;
    IntervalStats sampler(eq, kMillisecond);
    sampler.addGauge("x", [] { return 1.0; });
    sampler.start();
    eq.runUntil(2 * kMillisecond);
    sampler.stop();
    eq.runUntil(10 * kMillisecond); // stale scheduled event must no-op
    EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(IntervalStats, WriteCsvEmitsHeaderAndMillisecondTimes)
{
    EventQueue eq;
    double counter = 0.0;
    IntervalStats sampler(eq, 2 * kMillisecond);
    sampler.addDelta("refreshes", [&counter] { return counter; });
    sampler.addGauge("backlog", [] { return 5.0; });
    sampler.start();
    eq.scheduleAfter(kMillisecond, [&counter] { counter = 8.0; });
    eq.runUntil(4 * kMillisecond);
    sampler.stop();

    std::ostringstream oss;
    sampler.writeCsv(oss);
    std::istringstream lines(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "begin_ms,end_ms,refreshes,backlog");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "0,2,8,5");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "2,4,0,5");
}

TEST(IntervalStats, SamplesFeedTracerAsCounterEvents)
{
    struct RecordingSink : TraceSink
    {
        explicit RecordingSink(std::vector<TraceEvent> &sink) : out(sink) {}
        void write(const TraceEvent &ev) override { out.push_back(ev); }
        std::vector<TraceEvent> &out;
    };
    std::vector<TraceEvent> events;
    globalTracer().addSink(std::make_unique<RecordingSink>(events));
    globalTracer().setCategories(TraceCategory::Interval);

    EventQueue eq;
    IntervalStats sampler(eq, kMillisecond);
    sampler.addGauge("depth", [] { return 7.0; });
    sampler.start();
    eq.runUntil(2 * kMillisecond);
    sampler.stop();
    globalTracer().reset();

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, TracePhase::Counter);
    EXPECT_EQ(events[0].cat, TraceCategory::Interval);
    EXPECT_DOUBLE_EQ(events[0].value, 7.0);
    EXPECT_EQ(events[1].tick, 2 * kMillisecond);
}

TEST(IntervalStats, MisuseIsRejected)
{
    EventQueue eq;
    EXPECT_THROW(IntervalStats(eq, 0), std::logic_error);
    IntervalStats sampler(eq, kMillisecond);
    sampler.addGauge("x", [] { return 0.0; });
    sampler.start();
    EXPECT_THROW(sampler.addGauge("y", [] { return 0.0; }),
                 std::logic_error);
    EXPECT_THROW(sampler.start(), std::logic_error);
    sampler.stop();
}
