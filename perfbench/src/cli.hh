/**
 * @file
 * Strict command line of smartref_perfbench.
 *
 * Every flag is declared once in a table; anything else is fatal with a
 * did-you-mean suggestion (sim/suggest.hh), so a mistyped `--seed`
 * cannot silently rerun the default seed. Values are validated as
 * whole tokens: "--seconds 10s" or "--seed 4x2" are errors too.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** The seed every reference result was produced with. The held-out
 *  seed 20071201 is kept out of all tuning (see README.md). */
constexpr std::uint64_t kDefaultSeed = 42;

/** Reference results of the default seed, relative to the checkout. */
constexpr const char *kReferencePath = "perfbench/reference/seed-42.json";

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    int seconds = 30;
    bool trace = false;
    /** Directory for sweep outputs and cold result caches. */
    std::string scratchDir = ".bench_build/perfbench-run";
    /** Regenerate the reference through the library calls and exit. */
    std::string writeReference;
    /** Where the traced run writes its spans (Chrome trace JSON);
     *  empty: <scratchDir>/<workload>.trace.json. */
    std::string spanOut;
    bool help = false;
};

/** Bad command line; the message names the flag and a suggestion. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Parse argv[1..]; throws UsageError. */
Options parseArgs(const std::vector<std::string> &args);

/** One line per flag, generated from the flag table. */
std::string usageText();

} // namespace perfbench
