/**
 * @file
 * Sweep-subsystem tests: canonical grid expansion, coordinate-derived
 * seeding (pinned literals — changing the derivation breaks published
 * seeds), grid JSON parsing, and the headline determinism contract:
 * -j1 and -j8 produce byte-identical aggregate JSON and CSV.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/sweep.hh"
#include "harness/sweep_telemetry.hh"
#include "sim/mini_json.hh"

using namespace smartref;

namespace {

/** A 2-config x 2-benchmark x 2-bit-width grid (8 jobs). */
SweepGrid
smallGridA()
{
    SweepGrid g;
    g.name = "detA";
    g.configs = {"2gb", "3d64"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {2, 3};
    g.retentionMs = {0};
    return g;
}

/** A different shape: one config, retention override axis (6 jobs). */
SweepGrid
smallGridB()
{
    SweepGrid g;
    g.name = "detB";
    g.configs = {"3d64"};
    g.benchmarks = {"radix", "fft", "vpr_twolf"};
    g.policies = {"smart"};
    g.counterBits = {3};
    g.retentionMs = {32, 64};
    return g;
}

/** Tiny windows: determinism, not statistics, is under test. */
SweepRunOptions
fastOptions(unsigned jobs)
{
    SweepRunOptions opts;
    opts.jobs = jobs;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    return opts;
}

std::string
aggregateJson(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepJson(grid, opts, runSweep(grid, opts), oss);
    return oss.str();
}

std::string
aggregateCsv(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepCsv(runSweep(grid, opts), oss);
    return oss.str();
}

} // namespace

TEST(SweepSeed, PointKeyIsCanonical)
{
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 3;
    p.retentionMs = 0;
    EXPECT_EQ(pointKey(p),
              "config=2gb;bench=mummer;policy=smart;bits=3;retentionMs=0");
}

TEST(SweepSeed, DerivedSeedsArePinned)
{
    // These literals are part of the reproducibility contract: published
    // sweep results name these seeds. Do not change the derivation
    // without regenerating EXPERIMENTS.md.
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 3;
    p.retentionMs = 0;
    EXPECT_EQ(deriveJobSeed(42, p), 17388960893229350514ULL);
    EXPECT_EQ(deriveJobSeed(7, p), 18177561402676755630ULL);

    p.config = "3d64";
    p.benchmark = "gcc";
    EXPECT_EQ(deriveJobSeed(42, p), 2363407939594536290ULL);

    p = SweepPoint{};
    p.config = "4gb";
    p.benchmark = "radix";
    p.policy = "cbr";
    p.counterBits = 2;
    p.retentionMs = 32;
    EXPECT_EQ(deriveJobSeed(42, p), 6012783005990786846ULL);
}

TEST(SweepSeed, SeedDependsOnEveryCoordinate)
{
    SweepPoint p;
    const std::uint64_t base = deriveJobSeed(42, p);
    auto differs = [base](SweepPoint q) {
        return deriveJobSeed(42, q) != base;
    };
    SweepPoint q = p;
    q.config = "4gb";
    EXPECT_TRUE(differs(q));
    q = p;
    q.benchmark = "gcc";
    EXPECT_TRUE(differs(q));
    q = p;
    q.policy = "cbr";
    EXPECT_TRUE(differs(q));
    q = p;
    q.counterBits = 4;
    EXPECT_TRUE(differs(q));
    q = p;
    q.retentionMs = 32;
    EXPECT_TRUE(differs(q));
}

TEST(SweepGridTest, ExpansionOrderIsCanonical)
{
    // config outermost, then retention, bits, policy, benchmark.
    SweepGrid g;
    g.configs = {"2gb", "3d64"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {2, 3};
    g.retentionMs = {0};
    const auto jobs = expandGrid(g, 42);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].point.config, "2gb");
    EXPECT_EQ(jobs[0].point.counterBits, 2u);
    EXPECT_EQ(jobs[0].point.benchmark, "mummer");
    EXPECT_EQ(jobs[1].point.benchmark, "gcc"); // benchmark innermost
    EXPECT_EQ(jobs[2].point.counterBits, 3u);  // bits next
    EXPECT_EQ(jobs[4].point.config, "3d64");   // config outermost
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepGridTest, SeedsAreOrderIndependent)
{
    // The same point gets the same seed in two differently-shaped grids.
    const auto a = expandGrid(smallGridA(), 42);
    SweepGrid single;
    single.configs = {"3d64"};
    single.benchmarks = {"gcc"};
    single.policies = {"smart"};
    single.counterBits = {3};
    single.retentionMs = {0};
    const auto b = expandGrid(single, 42);
    ASSERT_EQ(b.size(), 1u);
    bool found = false;
    for (const auto &job : a) {
        if (pointKey(job.point) == pointKey(b[0].point)) {
            EXPECT_EQ(job.seed, b[0].seed);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(SweepGridTest, FixedModeUsesBaseSeedEverywhere)
{
    const auto jobs = expandGrid(smallGridA(), 42, SeedMode::Fixed);
    for (const auto &job : jobs)
        EXPECT_EQ(job.seed, 42u);
}

TEST(SweepGridTest, AllExpandsToEveryProfile)
{
    SweepGrid g;
    const auto jobs = expandGrid(g, 42);
    EXPECT_EQ(jobs.size(), allProfiles().size());
}

TEST(SweepGridTest, UnknownNamesAreFatal)
{
    // SMARTREF_FATAL throws std::runtime_error with the message.
    SweepGrid g;
    g.configs = {"5gb"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.benchmarks = {"nosuch"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.policies = {"nosuch"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
    g = SweepGrid{};
    g.counterBits = {0};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
}

TEST(SweepGridTest, ParsesJsonDescription)
{
    const SweepGrid g = parseSweepGrid(
        R"({"name":"x","configs":["2gb","4gb"],"benchmarks":["gcc"],
            "policies":["smart","cbr"],"counterBits":[2,4],
            "retentionMs":[0,32]})");
    EXPECT_EQ(g.name, "x");
    EXPECT_EQ(g.configs, (std::vector<std::string>{"2gb", "4gb"}));
    EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"gcc"}));
    EXPECT_EQ(g.policies, (std::vector<std::string>{"smart", "cbr"}));
    EXPECT_EQ(g.counterBits, (std::vector<std::uint32_t>{2, 4}));
    EXPECT_EQ(g.retentionMs, (std::vector<std::uint64_t>{0, 32}));
}

TEST(SweepGridTest, JsonDefaultsAndErrors)
{
    const SweepGrid g = parseSweepGrid(R"({"name":"minimal"})");
    EXPECT_EQ(g.name, "minimal");
    EXPECT_EQ(g.configs, (std::vector<std::string>{"2gb"}));
    EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"all"}));

    EXPECT_THROW(parseSweepGrid("{nope"), std::runtime_error);
    EXPECT_THROW(parseSweepGrid(R"({"benchmark":["gcc"]})"),
                 std::runtime_error);
    // Nesting past the parser's limit is an error, not a stack
    // overflow (50,000 deep used to segfault).
    EXPECT_THROW(parseSweepGrid(std::string(50000, '[')),
                 std::runtime_error);

    // Every member has its JSON type, and an error names the member.
    const std::string strings = "needs an array of strings";
    const std::string wholes = "needs an array of whole numbers";
    const std::vector<std::pair<std::string, std::string>> typed = {
        // Used to expand to 0 jobs and exit 0.
        {R"({"configs":"2gb"})", "'configs' " + strings},
        {R"({"benchmarks":["gcc",3]})", "'benchmarks' " + strings},
        {R"({"name":["x"]})", "'name' needs a string"},
        {R"({"policies":{}})", "'policies' " + strings},
        {R"({"parallelism":[null]})", "'parallelism' " + strings},
        // Used to run 2 bits.
        {R"({"counterBits":[2.5]})", "'counterBits' " + wholes},
        // Used to cast -1 to uint32_t (undefined behaviour).
        {R"({"counterBits":[-1]})", "'counterBits' " + wholes},
        {R"({"counterBits":[1e10]})", "'counterBits' " + wholes},
        {R"({"counterBits":["3"]})", "'counterBits' " + wholes},
        {R"({"retentionMs":[1e300]})", "'retentionMs' " + wholes},
    };
    for (const auto &[json, message] : typed) {
        try {
            parseSweepGrid(json);
            ADD_FAILURE() << json << " parsed";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
                << json << ": " << e.what();
        }
    }
}

namespace {

/** The message a callable's std::runtime_error carries ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(SweepGridTest, UnknownJsonMemberSuggestsNearMiss)
{
    const std::string msg = fatalMessage(
        [] { parseSweepGrid(R"({"benchmark":["gcc"]})"); });
    EXPECT_NE(msg.find("unknown sweep grid member 'benchmark'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'benchmarks'?"), std::string::npos)
        << msg;
    // A name nothing like any axis gets no suggestion.
    const std::string far = fatalMessage(
        [] { parseSweepGrid(R"({"zzzz":["gcc"]})"); });
    EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(SweepGridTest, UnknownPredefinedGridSuggestsNearMiss)
{
    const std::string msg =
        fatalMessage([] { predefinedGridByName("smok"); });
    EXPECT_NE(msg.find("unknown grid 'smok'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'smoke'?"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("--list-grids"), std::string::npos) << msg;
}

TEST(SweepDeterminism, ParallelAggregatesAreByteIdenticalGridA)
{
    const SweepGrid grid = smallGridA();
    const std::string serialJson = aggregateJson(grid, fastOptions(1));
    const std::string parallelJson = aggregateJson(grid, fastOptions(8));
    EXPECT_EQ(serialJson, parallelJson);
    EXPECT_EQ(aggregateCsv(grid, fastOptions(1)),
              aggregateCsv(grid, fastOptions(8)));
}

TEST(SweepDeterminism, ParallelAggregatesAreByteIdenticalGridB)
{
    const SweepGrid grid = smallGridB();
    EXPECT_EQ(aggregateJson(grid, fastOptions(1)),
              aggregateJson(grid, fastOptions(8)));
}

TEST(SweepDeterminism, RepeatedRunsAreByteIdentical)
{
    const SweepGrid grid = smallGridB();
    EXPECT_EQ(aggregateJson(grid, fastOptions(3)),
              aggregateJson(grid, fastOptions(3)));
}

TEST(SweepJson, AggregateParsesAndCarriesAnchors)
{
    const SweepGrid grid = smallGridA();
    const SweepRunOptions opts = fastOptions(2);
    const minijson::Value root =
        minijson::parse(aggregateJson(grid, opts));
    EXPECT_EQ(root.at("schema").str, "smartref-sweep-v1");
    EXPECT_EQ(root.at("grid").at("name").str, "detA");
    EXPECT_EQ(root.at("options").at("seedMode").str, "derived");

    // Golden geometry/energy anchors (Table 1 and Table 3).
    const minijson::Value &anchors = root.at("anchors");
    EXPECT_DOUBLE_EQ(anchors.at("2gb").at("baselineRefreshesPerSec").number,
                     2048000.0);
    EXPECT_NEAR(anchors.at("2gb").at("busNanojoulesPerAddress").number,
                1.601, 0.001);
    EXPECT_DOUBLE_EQ(
        anchors.at("3d64").at("baselineRefreshesPerSec").number,
        1024000.0);

    const minijson::Value &jobs = root.at("jobs");
    ASSERT_EQ(jobs.array.size(), 8u);
    // Job order is grid order; the seed round-trips through the string.
    EXPECT_EQ(jobs.at(0).at("benchmark").str, "mummer");
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 2;
    p.retentionMs = 0;
    EXPECT_EQ(jobs.at(0).at("seed").str,
              std::to_string(deriveJobSeed(42, p)));

    const minijson::Value &summary = root.at("summary");
    ASSERT_EQ(summary.array.size(), 4u); // 2 configs x 2 bit widths
    EXPECT_EQ(summary.at(0).at("jobs").number, 2.0);
    EXPECT_EQ(root.at("totalViolations").number, 0.0);
}

TEST(SweepJson, ControlBytesInGridNameStayValidJson)
{
    // A grid file is outside input, so its name may carry any byte.
    // Every artifact that echoes it must escape control bytes (a raw
    // 0x01 is invalid JSON) and parse back to the same name.
    const SweepGrid grid = parseSweepGrid(
        R"({"name": "a\u0001q\"b\\c\td", "configs": ["2gb"],
            "benchmarks": ["mummer"]})");
    ASSERT_EQ(grid.name, std::string("a\x01q\"b\\c\td"));
    const SweepRunOptions opts = fastOptions(1);
    const std::vector<SweepJobResult> none;

    std::ostringstream sweepJson, timingJson, telemetryLines;
    writeSweepJson(grid, opts, none, sweepJson);
    writeSweepTimingJson(grid, opts, none, 1.5, timingJson);
    {
        SweepTelemetry telemetry(telemetryLines);
        telemetry.sweepStart(grid.name, 0, 1, "{}");
        telemetry.sweepFinish(1.5, nullptr);
    }

    // Each artifact is newline-terminated JSON lines: parse every line.
    const auto lines = [](const std::string &text) {
        std::vector<minijson::Value> out;
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            for (char c : line)
                EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
            out.push_back(minijson::parse(line));
        }
        return out;
    };
    const auto sweep = lines(sweepJson.str());
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep[0].at("grid").at("name").str, grid.name);
    const auto timing = lines(timingJson.str());
    ASSERT_EQ(timing.size(), 1u);
    EXPECT_EQ(timing[0].at("grid").str, grid.name);
    const auto telemetry = lines(telemetryLines.str());
    ASSERT_EQ(telemetry.size(), 2u);
    EXPECT_EQ(telemetry[0].at("grid").str, grid.name);
}

TEST(SweepJob, RetentionOverrideScalesBaselineRate)
{
    SweepJob job;
    job.point.config = "3d64";
    job.point.benchmark = "gcc";
    job.point.retentionMs = 32;
    job.seed = 42;
    const SweepRunOptions opts = fastOptions(1);
    const SweepJobResult r = runSweepJob(job, opts);
    // Halving retention doubles the baseline CBR refresh rate: the
    // 3d64 preset is 1,024,000/s at 64 ms, so 2,048,000/s at 32 ms.
    EXPECT_NEAR(r.comparison.baseline.refreshesPerSec, 2048000.0,
                2048000.0 * 0.01);
}

TEST(SweepFigures, SpecsCoverThePaperConfigs)
{
    EXPECT_EQ(figuresForConfig("2gb").size(), 3u);
    EXPECT_EQ(figuresForConfig("4gb").size(), 3u);
    EXPECT_EQ(figuresForConfig("3d64").size(), 3u);
    EXPECT_EQ(figuresForConfig("3d64-32ms").size(), 4u);
    EXPECT_TRUE(figuresForConfig("edram").empty());
    EXPECT_EQ(figuresForConfig("2gb")[0].id, "fig06");
    EXPECT_EQ(figuresForConfig("3d64-32ms")[3].id, "fig18");
}
