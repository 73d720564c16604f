#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hh"

using namespace smartref;

namespace {

/** Every flag experimentOptions() reads, plus a few tool-style ones. */
const CliSpec kSpec = {
    "prog",
    {},
    {
        {"warmup-ms"},
        {"measure-ms"},
        {"bits"},
        {"segments"},
        {"seed"},
        {"no-auto"},
        {"sparse-counters"},
        {"j"},
        {"log-level"},
        {"verbose"},
        {"csv", "FILE", "a CSV path", "none"},
        {"idle", "", "a switch"},
        {"check-conservation", "", "a switch"},
        {"trace-out", "FILE", "a path"},
        {"trace-categories", "LIST", "a list", "all"},
        {"stats-interval-ms", "N", "a number", "0"},
        {"hex", "N", "a hex number"},
        {"octal", "N", "an octal number"},
        {"max", "N", "the largest number"},
    }};

CliArgs
parse(const std::vector<std::string> &args, const CliSpec &spec = kSpec)
{
    return CliArgs(spec, args);
}

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

TEST(Cli, KeyValuePairs)
{
    auto args = parse({"--measure-ms", "32", "--csv", "/tmp/x.csv"});
    EXPECT_EQ(args.getU64("measure-ms"), 32u);
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
    EXPECT_TRUE(spaced.has("sparse-counters"));
    EXPECT_EQ(spaced.jobs(), 4u);
    EXPECT_TRUE(spaced.has("no-auto"));

    auto joined = parse({"--no-auto", "-j2"});
    EXPECT_TRUE(joined.has("no-auto"));
    EXPECT_EQ(joined.jobs(), 2u);
}

TEST(Cli, Fallbacks)
{
    // An absent flag reads its table fallback; a standard row takes
    // ExperimentOptions' default.
    auto args = parse({});
    EXPECT_EQ(args.getU64("bits"), 3u);
    EXPECT_EQ(args.getString("csv"), "none");
    EXPECT_EQ(args.getString("trace-out"), "");
    EXPECT_EQ(args.jobs(), 1u);
}

TEST(Cli, ExperimentOptionsDefaults)
{
    for (const CliSpec &spec : {kSpec, CliSpec{"bare", {}, {}}}) {
        auto opts = parse({}, spec).experimentOptions();
        EXPECT_EQ(opts.warmup, 64 * kMillisecond);
        EXPECT_EQ(opts.measure, 128 * kMillisecond);
        EXPECT_EQ(opts.counterBits, 3u);
        EXPECT_EQ(opts.segments, 8u);
        EXPECT_EQ(opts.seed, 42u);
        EXPECT_TRUE(opts.autoReconfigure);
        EXPECT_FALSE(opts.verbose);
        EXPECT_EQ(opts.shardJobs, 1u);
    }
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

TEST(Cli, ObservabilityFlagsReadBackWithDefaults)
{
    auto args = parse({"--trace-out", "t.json", "--trace-categories",
                       "refresh,counter", "--stats-interval-ms", "5"});
    EXPECT_EQ(args.getString("trace-out"), "t.json");
    EXPECT_EQ(args.getString("trace-categories"), "refresh,counter");
    EXPECT_EQ(args.getU64("stats-interval-ms"), 5u);

    auto none = parse({});
    EXPECT_FALSE(none.has("trace-out"));
    EXPECT_EQ(none.getString("trace-categories"), "all");
    EXPECT_EQ(none.getU64("stats-interval-ms"), 0u);
}

TEST(Cli, RejectsPositionalArguments)
{
    EXPECT_THROW(parse({"positional"}), std::runtime_error);
}

TEST(Cli, NumbersKeepStrtoullBaseForms)
{
    auto args = parse({"--hex", "0x10", "--octal", "010", "--max",
                       "18446744073709551615"});
    EXPECT_EQ(args.getU64("hex"), 16u);
    EXPECT_EQ(args.getU64("octal"), 8u);
    EXPECT_EQ(args.getU64("max"), UINT64_MAX);
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
    EXPECT_THROW(parse({"--seed", "18446744073709551616"}).getU64("seed"),
                 std::runtime_error);
    EXPECT_THROW(parse({"--seed", "-1"}).getU64("seed"),
                 std::runtime_error);
    EXPECT_THROW(parse({"--seed"}), std::runtime_error);
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
    const std::string what = fatalMessage(
        [] { parse({"--measure-ms", "1ms"}).experimentOptions(); });
    EXPECT_NE(what.find("--measure-ms"), std::string::npos) << what;
    EXPECT_NE(what.find("'1ms'"), std::string::npos) << what;
}

TEST(Cli, UnknownFlagSuggestsNearestName)
{
    // A typo used to skip the ledger check silently and exit 0.
    const std::string near =
        fatalMessage([] { parse({"--check-conservaton"}); });
    EXPECT_NE(near.find("unknown flag '--check-conservaton' (did you mean "
                        "'--check-conservation'?)"),
              std::string::npos)
        << near;
    const std::string far =
        fatalMessage([] { parse({"--bogus-flag", "1"}); });
    EXPECT_NE(far.find("unknown flag '--bogus-flag'"), std::string::npos)
        << far;
    EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
    // A flag another binary reads is unknown here.
    EXPECT_THROW(parse({"--bits", "1"}, CliSpec{"sweep", {}, {}}),
                 std::runtime_error);
    // So are single-dash spellings and "--j".
    EXPECT_THROW(parse({"-x"}), std::runtime_error);
    EXPECT_THROW(parse({"--j", "4"}), std::runtime_error);
    EXPECT_THROW(parse({"-idle"}), std::runtime_error);
}

TEST(Cli, SwitchNeverTakesAValue)
{
    const std::string what = fatalMessage([] { parse({"--idle", "5"}); });
    EXPECT_NE(what.find("unexpected argument '5' (--idle takes no value)"),
              std::string::npos)
        << what;
    EXPECT_NE(fatalMessage([] { parse({"-j", "2", "--idle", "x"}); }), "");
}

TEST(Cli, ValuedFlagNeedsAValue)
{
    EXPECT_NE(fatalMessage([] { parse({"--csv"}); })
                  .find("--csv needs a value (FILE)"),
              std::string::npos);
    // The next flag is not a value.
    EXPECT_THROW(parse({"--csv", "--idle"}), std::runtime_error);
    // A number that looks negative is a value, and then not a count.
    EXPECT_THROW(parse({"--seed", "-1"}).getU64("seed"),
                 std::runtime_error);
}

TEST(Cli, OperandsOnlyWhereDeclared)
{
    const CliSpec inspect = {"inspect", {"FILE", "[FILE_B]"}, {{"top", "N"}}};
    EXPECT_EQ(parse({"a.json"}, inspect).operands(),
              (std::vector<std::string>{"a.json"}));
    EXPECT_EQ(parse({"a", "--top", "3", "b"}, inspect).operands(),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_NE(fatalMessage([&] { parse({}, inspect); })
                  .find("missing operand FILE"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { parse({"a", "b", "c"}, inspect); })
                  .find("unexpected argument 'c'"),
              std::string::npos);
    // --help and --version need no operands.
    EXPECT_TRUE(parse({"--help"}, inspect).has("help"));
    EXPECT_TRUE(parse({"--version"}, inspect).has("version"));
}

TEST(Cli, JobsKeepMakeForms)
{
    EXPECT_EQ(parse({}).jobs(), 1u);
    EXPECT_EQ(parse({"-j3"}).jobs(), 3u);
    EXPECT_EQ(parse({"-j", "3"}).jobs(), 3u);
    EXPECT_GE(parse({"-j"}).jobs(), 1u);
    // A bare -j before another flag takes no count.
    auto bare = parse({"-j", "--idle"});
    EXPECT_TRUE(bare.has("idle"));
    EXPECT_EQ(bare.getString("j"), "");
}

TEST(Cli, HelpIsGeneratedFromTheTable)
{
    const std::string help = parse({"-h"}).usage();
    EXPECT_EQ(help.rfind("usage: prog [flags]\n", 0), 0u) << help;
    for (const char *line :
         {"--warmup-ms N", "warm-up window, ms (default 64)",
          "-j [N]", "--csv FILE", "a CSV path (default none)",
          "(default all)", "--idle ", "--version", "--help, -h"})
        EXPECT_NE(help.find(line), std::string::npos) << line << "\n"
                                                       << help;
    const CliSpec inspect = {"inspect", {"FILE", "[FILE_B]"}, {}};
    EXPECT_EQ(parse({"--help"}, inspect)
                  .usage()
                  .rfind("usage: inspect FILE [FILE_B] [flags]\n", 0),
              0u);
}

TEST(Cli, UndeclaredFlagReadIsABug)
{
    auto args = parse({});
    EXPECT_THROW(args.has("nosuch"), std::logic_error);
    EXPECT_THROW(args.getString("nosuch"), std::logic_error);
    // A flag with no fallback must be checked with has() first.
    EXPECT_THROW(args.getU64("hex"), std::logic_error);
}

namespace {

int
echoBody(const CliArgs &args)
{
    if (args.has("idle"))
        throw std::runtime_error("fatal: body failed");
    return 7;
}

/** runCli() over `args`, capturing stdout and stderr. */
int
runCaptured(std::vector<std::string> args, std::string &out,
            std::string &err)
{
    std::vector<char *> argv;
    static std::string progname = "prog";
    argv.push_back(progname.data());
    for (auto &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = runCli(kSpec, static_cast<int>(argv.size()),
                          argv.data(), echoBody);
    out = testing::internal::GetCapturedStdout();
    err = testing::internal::GetCapturedStderr();
    return rc;
}

} // namespace

TEST(Cli, RunCliAnswersHelpVersionAndUserErrors)
{
    std::string out, err;
    EXPECT_EQ(runCaptured({}, out, err), 7);
    EXPECT_EQ(runCaptured({"--help"}, out, err), 0);
    EXPECT_EQ(out.rfind("usage: prog", 0), 0u) << out;
    EXPECT_EQ(runCaptured({"--version"}, out, err), 0);
    EXPECT_NE(out.find("prog"), std::string::npos) << out;
    // A parse error and a body error: exit 2, one "error: " line.
    for (const std::vector<std::string> &bad :
         {std::vector<std::string>{"--bogus"}, {"--idle"}, {"--csv"}}) {
        EXPECT_EQ(runCaptured(bad, out, err), 2);
        EXPECT_EQ(err.rfind("error: fatal: ", 0), 0u) << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
        EXPECT_EQ(out, "");
    }
}
