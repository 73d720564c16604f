#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hh"

using namespace smartref;

namespace {

CliArgs
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string progname = "prog";
    argv.push_back(progname.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Cli, KeyValuePairs)
{
    auto args = parse({"--measure-ms", "32", "--csv", "/tmp/x.csv"});
    EXPECT_EQ(args.getU64("measure-ms", 0), 32u);
    EXPECT_EQ(args.getString("csv"), "/tmp/x.csv");
}

TEST(Cli, BareFlags)
{
    auto args = parse({"--verbose", "--no-auto"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_TRUE(args.has("no-auto"));
    EXPECT_FALSE(args.has("csv"));
}

TEST(Cli, BareFlagDoesNotSwallowJobs)
{
    auto spaced = parse({"--sparse-counters", "-j", "4", "--no-auto"});
    EXPECT_EQ(spaced.getString("sparse-counters", "unset"), "");
    EXPECT_EQ(spaced.jobs(), 4u);
    EXPECT_TRUE(spaced.has("no-auto"));

    auto joined = parse({"--no-auto", "-j2"});
    EXPECT_EQ(joined.getString("no-auto", "unset"), "");
    EXPECT_EQ(joined.jobs(), 2u);
}

TEST(Cli, Fallbacks)
{
    auto args = parse({});
    EXPECT_EQ(args.getU64("bits", 3), 3u);
    EXPECT_EQ(args.getString("csv", "none"), "none");
}

TEST(Cli, ExperimentOptionsDefaults)
{
    auto opts = parse({}).experimentOptions();
    EXPECT_EQ(opts.warmup, 64 * kMillisecond);
    EXPECT_EQ(opts.measure, 128 * kMillisecond);
    EXPECT_EQ(opts.counterBits, 3u);
    EXPECT_EQ(opts.segments, 8u);
    EXPECT_TRUE(opts.autoReconfigure);
    EXPECT_FALSE(opts.verbose);
}

TEST(Cli, ExperimentOptionsOverrides)
{
    auto opts = parse({"--warmup-ms", "8", "--measure-ms", "16", "--bits",
                       "2", "--segments", "4", "--seed", "7", "--no-auto",
                       "--verbose"})
                    .experimentOptions();
    EXPECT_EQ(opts.warmup, 8 * kMillisecond);
    EXPECT_EQ(opts.measure, 16 * kMillisecond);
    EXPECT_EQ(opts.counterBits, 2u);
    EXPECT_EQ(opts.segments, 4u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_FALSE(opts.autoReconfigure);
    EXPECT_TRUE(opts.verbose);
}

TEST(Cli, LogLevelDefaultsToWarn)
{
    auto opts = parse({}).experimentOptions();
    EXPECT_EQ(opts.logLevel, LogLevel::Warn);
}

TEST(Cli, LogLevelParsesEveryName)
{
    EXPECT_EQ(parse({"--log-level", "silent"}).experimentOptions().logLevel,
              LogLevel::Silent);
    EXPECT_EQ(parse({"--log-level", "warn"}).experimentOptions().logLevel,
              LogLevel::Warn);
    EXPECT_EQ(parse({"--log-level", "info"}).experimentOptions().logLevel,
              LogLevel::Info);
    EXPECT_EQ(parse({"--log-level", "debug"}).experimentOptions().logLevel,
              LogLevel::Debug);
}

TEST(Cli, VerboseIsAnAliasForDebug)
{
    auto opts = parse({"--verbose"}).experimentOptions();
    EXPECT_EQ(opts.logLevel, LogLevel::Debug);
    // An explicit --log-level wins over the alias.
    opts = parse({"--verbose", "--log-level", "info"}).experimentOptions();
    EXPECT_EQ(opts.logLevel, LogLevel::Info);
    EXPECT_TRUE(opts.verbose);
}

TEST(Cli, UnknownLogLevelIsFatal)
{
    EXPECT_THROW(parse({"--log-level", "chatty"}).experimentOptions(),
                 std::runtime_error);
}

TEST(Cli, ObservabilityFlagAccessors)
{
    auto args = parse({"--trace-out", "t.json", "--trace-csv", "t.csv",
                       "--trace-categories", "refresh,counter",
                       "--stats-json", "s.json", "--stats-interval-ms",
                       "5", "--stats-interval-out", "iv.csv"});
    EXPECT_EQ(args.traceOutPath(), "t.json");
    EXPECT_EQ(args.traceCsvPath(), "t.csv");
    EXPECT_EQ(args.traceCategories(), "refresh,counter");
    EXPECT_EQ(args.statsJsonPath(), "s.json");
    EXPECT_EQ(args.statsIntervalMs(), 5u);
    EXPECT_EQ(args.statsIntervalPath(), "iv.csv");

    auto none = parse({});
    EXPECT_EQ(none.traceOutPath(), "");
    EXPECT_EQ(none.traceCategories(), "all");
    EXPECT_EQ(none.statsIntervalMs(), 0u);
}

TEST(Cli, RejectsPositionalArguments)
{
    EXPECT_THROW(parse({"positional"}), std::runtime_error);
}

TEST(Cli, NumbersKeepStrtoullBaseForms)
{
    auto args = parse({"--a", "0x10", "--b", "010", "--c",
                       "18446744073709551615"});
    EXPECT_EQ(args.getU64("a", 0), 16u);
    EXPECT_EQ(args.getU64("b", 0), 8u);
    EXPECT_EQ(args.getU64("c", 0), UINT64_MAX);
}

TEST(Cli, NumbersMustParseWhole)
{
    // No digits: used to become 0 and panic later in CounterArray.
    EXPECT_THROW(parse({"--bits", "abc"}).experimentOptions(),
                 std::runtime_error);
    // Trailing characters: used to run 1 ms silently.
    EXPECT_THROW(parse({"--measure-ms", "1ms"}).experimentOptions(),
                 std::runtime_error);
    // Overflow, a sign, or no value at all.
    EXPECT_THROW(parse({"--seed", "18446744073709551616"}).getU64("seed", 0),
                 std::runtime_error);
    EXPECT_THROW(parse({"--seed", "-1"}).getU64("seed", 0),
                 std::runtime_error);
    EXPECT_THROW(parse({"--seed"}).getU64("seed", 0), std::runtime_error);
}

TEST(Cli, JobsMustParseWhole)
{
    // Used to run silently on one worker.
    EXPECT_THROW(parse({"-j", "x"}).jobs(), std::runtime_error);
    EXPECT_THROW(parse({"-j4x"}).jobs(), std::runtime_error);
    EXPECT_THROW(parse({"-j", "99999999999"}).jobs(), std::runtime_error);
    EXPECT_EQ(parse({"-j", "0"}).jobs(), 1u);
}

TEST(Cli, NumericErrorNamesFlagAndValue)
{
    try {
        parse({"--measure-ms", "1ms"}).experimentOptions();
        FAIL() << "no error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--measure-ms"), std::string::npos) << what;
        EXPECT_NE(what.find("'1ms'"), std::string::npos) << what;
    }
}
