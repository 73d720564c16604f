#include "harness/cli.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace smartref {

namespace {

/** make(1)-style worker count: "-j8", or "-j" followed by "8". */
bool
isJobsFlag(const std::string &arg)
{
    return arg.rfind("-j", 0) == 0;
}

} // namespace

std::uint64_t
parseWhole(const std::string &flag, const std::string &value, int base,
           std::uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, base);
    if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE || v > max)
        SMARTREF_FATAL(flag, " needs a whole number, got '", value, "'");
    return v;
}

bool
helpRequested(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return true;
    }
    return false;
}

CliArgs::CliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (isJobsFlag(arg)) {
            std::string count = arg.substr(2);
            if (count.empty() && i + 1 < argc &&
                std::string(argv[i + 1]).rfind("-", 0) != 0)
                count = argv[++i];
            values_["jobs"] = count;
            continue;
        }
        if (arg.rfind("--", 0) != 0)
            SMARTREF_FATAL("unexpected argument '", arg,
                           "' (flags are --key [value])");
        arg = arg.substr(2);
        // The next token is this flag's value unless it is another flag;
        // a boolean flag must not swallow a following "-j N".
        const bool hasValue = i + 1 < argc &&
                              std::string(argv[i + 1]).rfind("--", 0) != 0 &&
                              !isJobsFlag(argv[i + 1]);
        values_[arg] = hasValue ? argv[++i] : "";
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
CliArgs::getString(const std::string &key,
                   const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
CliArgs::getU64(const std::string &key, std::uint64_t fallback) const
{
    auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : parseWhole("--" + key, it->second, 0, UINT64_MAX);
}

unsigned
CliArgs::jobs() const
{
    if (!has("jobs"))
        return 1;
    const std::string v = getString("jobs");
    if (v.empty())
        return ThreadPool::hardwareThreads();
    const auto n = static_cast<unsigned>(parseWhole("-j", v, 10, UINT_MAX));
    return n == 0 ? 1 : n;
}

ExperimentOptions
CliArgs::experimentOptions() const
{
    ExperimentOptions opts;
    opts.warmup = getU64("warmup-ms", 64) * kMillisecond;
    opts.measure = getU64("measure-ms", 128) * kMillisecond;
    opts.counterBits = static_cast<std::uint32_t>(getU64("bits", 3));
    opts.segments = static_cast<std::uint32_t>(getU64("segments", 8));
    opts.autoReconfigure = !has("no-auto");
    opts.seed = getU64("seed", 42);
    opts.shardJobs = jobs();
    opts.sparseCounters = has("sparse-counters");
    opts.verbose = has("verbose");
    opts.logLevel = parseLogLevel(getString("log-level", "warn"));
    // --verbose predates --log-level and stays as an alias for debug;
    // an explicit --log-level wins when both appear.
    if (opts.verbose && !has("log-level"))
        opts.logLevel = LogLevel::Debug;
    return opts;
}

} // namespace smartref
