#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/mini_json.hh"
#include "sim/tracer.hh"

using namespace smartref;

namespace {

/** Records every event it receives, for ordering/filtering checks. */
struct RecordingSink : TraceSink
{
    explicit RecordingSink(std::vector<TraceEvent> &sink) : out(sink) {}
    void write(const TraceEvent &ev) override { out.push_back(ev); }
    std::vector<TraceEvent> &out;
};

/** RAII guard: leaves the global tracer pristine for other tests. */
struct GlobalTracerGuard
{
    ~GlobalTracerGuard() { globalTracer().reset(); }
};

} // namespace

TEST(TraceCategories, NamesRoundTrip)
{
    for (TraceCategory c :
         {TraceCategory::Dram, TraceCategory::Refresh,
          TraceCategory::Counter, TraceCategory::Monitor,
          TraceCategory::RowBuffer, TraceCategory::Queue,
          TraceCategory::Interval}) {
        EXPECT_EQ(parseTraceCategories(toString(c)), c);
    }
    EXPECT_EQ(parseTraceCategories("all"), TraceCategory::All);
}

TEST(TraceCategories, ListCombinesIntoMask)
{
    const auto mask = parseTraceCategories("refresh,counter");
    const auto bits = static_cast<std::uint32_t>(mask);
    EXPECT_EQ(bits, static_cast<std::uint32_t>(TraceCategory::Refresh) |
                        static_cast<std::uint32_t>(TraceCategory::Counter));
}

TEST(TraceCategories, UnknownNameIsFatal)
{
    EXPECT_THROW(parseTraceCategories("bogus"), std::runtime_error);
    EXPECT_THROW(parseTraceCategories("refresh,bogus"),
                 std::runtime_error);
}

TEST(Tracer, EnabledNeedsBothSinkAndCategory)
{
    Tracer tracer;
    // Default mask is All, but no sink is attached yet.
    EXPECT_FALSE(tracer.enabled(TraceCategory::Refresh));

    std::vector<TraceEvent> events;
    tracer.addSink(std::make_unique<RecordingSink>(events));
    EXPECT_TRUE(tracer.enabled(TraceCategory::Refresh));

    tracer.setCategories(TraceCategory::Counter);
    EXPECT_FALSE(tracer.enabled(TraceCategory::Refresh));
    EXPECT_TRUE(tracer.enabled(TraceCategory::Counter));

    tracer.setCategories(TraceCategory::None);
    EXPECT_FALSE(tracer.enabled(TraceCategory::Counter));
}

TEST(Tracer, MacroFiltersByCategory)
{
    GlobalTracerGuard guard;
    std::vector<TraceEvent> events;
    globalTracer().addSink(std::make_unique<RecordingSink>(events));
    globalTracer().setCategories(TraceCategory::Refresh);

    SMARTREF_TRACE(TraceCategory::Refresh, 100, "wanted");
    SMARTREF_TRACE(TraceCategory::Counter, 200, "filtered");
    SMARTREF_TRACE_COUNTER(TraceCategory::Queue, 300, "alsoFiltered", 1.0);

    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "wanted");
    EXPECT_EQ(events[0].tick, 100u);
    EXPECT_EQ(globalTracer().emitted(), 1u);
}

TEST(Tracer, EventsReachSinksInEmissionOrder)
{
    Tracer tracer;
    std::vector<TraceEvent> events;
    tracer.addSink(std::make_unique<RecordingSink>(events));

    tracer.emit(TraceCategory::Dram, 10, "first", 0, 1, 2);
    tracer.emit(TraceCategory::Dram, 20, "second", 0, 1, 3, 7.5, 100);
    tracer.emitCounter(TraceCategory::Queue, 30, "depth", 4.0);

    ASSERT_EQ(events.size(), 3u);
    EXPECT_STREQ(events[0].name, "first");
    EXPECT_STREQ(events[1].name, "second");
    EXPECT_STREQ(events[2].name, "depth");
    EXPECT_LT(events[0].tick, events[1].tick);
    EXPECT_LT(events[1].tick, events[2].tick);
    // Zero duration renders as an instant, non-zero as a span.
    EXPECT_EQ(events[0].phase, TracePhase::Instant);
    EXPECT_EQ(events[1].phase, TracePhase::Span);
    EXPECT_EQ(events[1].duration, 100u);
    EXPECT_EQ(events[2].phase, TracePhase::Counter);
    EXPECT_DOUBLE_EQ(events[2].value, 4.0);
}

TEST(ChromeTraceSink, ProducesValidChromeTraceJson)
{
    std::ostringstream oss;
    {
        Tracer tracer;
        tracer.addSink(std::make_unique<ChromeTraceSink>(oss));
        tracer.emit(TraceCategory::Refresh, 2'000'000, "refreshIssuedCbr",
                    1, 3, 42, 5.0);
        tracer.emit(TraceCategory::Dram, 3'000'000, "ACT", 0, 2, 7, 0.0,
                    15'000);
        tracer.emitCounter(TraceCategory::Queue, 4'000'000,
                           "refreshBacklog", 2.0);
        tracer.emit(TraceCategory::Monitor, 5'000'000, "modeCbr", -1, -1,
                    -1, 0.0, 0, "counters \"off\"\n");
        tracer.flush();
    }

    const minijson::Value doc = minijson::parse(oss.str());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ns");
    const minijson::Value &evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.isArray());
    ASSERT_EQ(evs.array.size(), 4u);

    const minijson::Value &inst = evs.at(0);
    EXPECT_EQ(inst.at("name").str, "refreshIssuedCbr");
    EXPECT_EQ(inst.at("cat").str, "refresh");
    EXPECT_EQ(inst.at("ph").str, "i");
    EXPECT_DOUBLE_EQ(inst.at("ts").number, 2.0); // 2e6 ps = 2 us
    EXPECT_EQ(inst.at("tid").number, 2.0);       // rank 1 -> track 2
    EXPECT_EQ(inst.at("args").at("rank").number, 1.0);
    EXPECT_EQ(inst.at("args").at("bank").number, 3.0);
    EXPECT_EQ(inst.at("args").at("row").number, 42.0);
    EXPECT_EQ(inst.at("args").at("value").number, 5.0);

    const minijson::Value &span = evs.at(1);
    EXPECT_EQ(span.at("ph").str, "X");
    EXPECT_DOUBLE_EQ(span.at("dur").number, 0.015); // 15 ns

    const minijson::Value &ctr = evs.at(2);
    EXPECT_EQ(ctr.at("ph").str, "C");
    EXPECT_EQ(ctr.at("args").at("value").number, 2.0);

    // Escaped detail string survives the round trip.
    EXPECT_EQ(evs.at(3).at("args").at("detail").str, "counters \"off\"\n");
    EXPECT_EQ(evs.at(3).at("tid").number, 0.0); // rank-less track
}

TEST(ChromeTraceSink, EmptyTraceAndRepeatedFinishStayValid)
{
    std::ostringstream oss;
    ChromeTraceSink sink(oss);
    sink.finish();
    sink.finish(); // idempotent
    const minijson::Value doc = minijson::parse(oss.str());
    EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(CsvTraceSink, WritesHeaderAndOneLinePerEvent)
{
    std::ostringstream oss;
    {
        Tracer tracer;
        tracer.addSink(std::make_unique<CsvTraceSink>(oss));
        tracer.emit(TraceCategory::Counter, 1000, "counterExpiry", 0, 1,
                    99);
        tracer.emit(TraceCategory::Dram, 2000, "RD", 1, 2, 3, 640.0, 500,
                    "burst");
        tracer.flush();
    }

    std::istringstream lines(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "tick_ps,category,name,rank,bank,row,value,duration_ps,"
              "detail");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "1000,counter,counterExpiry,0,1,99,0,0,");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "2000,dram,RD,1,2,3,640,500,burst");
    EXPECT_FALSE(std::getline(lines, line));
}

TEST(Tracer, ResetDropsSinksAndRestoresDefaults)
{
    GlobalTracerGuard guard;
    std::vector<TraceEvent> events;
    globalTracer().addSink(std::make_unique<RecordingSink>(events));
    globalTracer().setCategories(TraceCategory::Dram);
    globalTracer().emit(TraceCategory::Dram, 1, "beforeReset");
    EXPECT_EQ(events.size(), 1u);

    globalTracer().reset();
    EXPECT_FALSE(globalTracer().enabled(TraceCategory::Dram));
    EXPECT_EQ(globalTracer().categories(), TraceCategory::All);
    EXPECT_EQ(globalTracer().emitted(), 0u);
    SMARTREF_TRACE(TraceCategory::Dram, 2, "afterReset");
    EXPECT_EQ(events.size(), 1u); // sink was dropped, nothing recorded
}
