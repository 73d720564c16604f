#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/trace.hh"

using namespace smartref;

namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest runs each case as its own process,
        // possibly concurrently.
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "smartref_trace_" + info->name() +
                ".trc";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<TraceRecord>
    sampleTrace() const
    {
        return {
            {0, 0x1000, false},
            {1500, 0xdeadbeef, true},
            {64 * kMillisecond, 0xffffffffffull, false},
        };
    }

    std::string path_;
};

} // namespace

TEST_F(TraceIoTest, TextRoundTrip)
{
    {
        TraceWriter writer(path_, TraceFormat::Text);
        for (const auto &rec : sampleTrace())
            writer.append(rec);
        EXPECT_EQ(writer.recordsWritten(), 3u);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.format(), TraceFormat::Text);
    const auto records = TraceReader::readAll(path_);
    EXPECT_EQ(records, sampleTrace());
}

TEST_F(TraceIoTest, BinaryRoundTrip)
{
    {
        TraceWriter writer(path_, TraceFormat::Binary);
        for (const auto &rec : sampleTrace())
            writer.append(rec);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.format(), TraceFormat::Binary);
    EXPECT_EQ(TraceReader::readAll(path_), sampleTrace());
}

TEST_F(TraceIoTest, FormatAutodetection)
{
    {
        TraceWriter writer(path_, TraceFormat::Binary);
        writer.append({1, 2, true});
    }
    EXPECT_EQ(TraceReader(path_).format(), TraceFormat::Binary);
    {
        TraceWriter writer(path_, TraceFormat::Text);
        writer.append({1, 2, true});
    }
    EXPECT_EQ(TraceReader(path_).format(), TraceFormat::Text);
}

TEST_F(TraceIoTest, TextFormatSkipsCommentsAndBlanks)
{
    {
        std::ofstream out(path_);
        out << "# a comment line\n"
            << "\n"
            << "100 0xff R\n"
            << "# another\n"
            << "200 0x10 W\n";
    }
    const auto records = TraceReader::readAll(path_);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], (TraceRecord{100, 0xff, false}));
    EXPECT_EQ(records[1], (TraceRecord{200, 0x10, true}));
}

TEST_F(TraceIoTest, MalformedTextLineFatals)
{
    {
        std::ofstream out(path_);
        out << "not a trace line\n";
    }
    TraceReader reader(path_);
    TraceRecord rec;
    EXPECT_THROW(reader.next(rec), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileFatals)
{
    EXPECT_THROW(TraceReader("/nonexistent/path/to/trace"),
                 std::runtime_error);
}

TEST_F(TraceIoTest, EmptyTraceReadsEmpty)
{
    {
        TraceWriter writer(path_, TraceFormat::Binary);
    }
    EXPECT_TRUE(TraceReader::readAll(path_).empty());
}

TEST_F(TraceIoTest, StreamingReadMatchesReadAll)
{
    {
        TraceWriter writer(path_, TraceFormat::Binary);
        for (Tick t = 0; t < 100; ++t)
            writer.append({t, t * 64, t % 3 == 0});
    }
    TraceReader reader(path_);
    TraceRecord rec;
    std::vector<TraceRecord> streamed;
    while (reader.next(rec))
        streamed.push_back(rec);
    EXPECT_EQ(streamed, TraceReader::readAll(path_));
    EXPECT_EQ(streamed.size(), 100u);
}

#include "harness/experiment.hh"
#include "test_config.hh"
#include "trace/workload_model.hh"

TEST_F(TraceIoTest, RecordedWorkloadReplaysDeterministically)
{
    using namespace smartref;
    // Record a workload's stream, replay it twice: identical outcomes.
    const DramConfig dram = tcfg::tinyConfig();
    {
        EventQueue eq;
        StatGroup root("rec");
        TraceWriter writer(path_, TraceFormat::Binary);
        WorkloadParams wp;
        wp.footprintRows = dram.org.totalRows() / 2;
        wp.rowVisitsPerSecond = 1e6;
        wp.seed = 77;
        WorkloadModel model(
            wp, dram.org.rowBytes(),
            [&](Addr a, bool w) { writer.append({eq.now(), a, w}); }, eq,
            &root);
        model.start();
        eq.runUntil(2 * dram.timing.retention);
    }

    auto replay = [&] {
        SystemConfig cfg;
        cfg.dram = dram;
        cfg.policy = PolicyKind::Smart;
        cfg.smart.autoReconfigure = false;
        System sys(cfg);
        TraceReader reader(path_);
        TraceRecord rec;
        Tick last = 0;
        while (reader.next(rec)) {
            if (rec.tick > last) {
                sys.run(rec.tick - last);
                last = rec.tick;
            }
            sys.controller().access(rec.addr, rec.write);
        }
        sys.run(dram.timing.retention);
        EXPECT_EQ(sys.dram().retention().violations(), 0u);
        return sys.dram().totalRefreshes();
    };
    const auto a = replay();
    const auto b = replay();
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0u);
}
