#include "harness/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/logging.hh"
#include "sim/provenance.hh"
#include "sim/suggest.hh"
#include "sim/thread_pool.hh"

namespace smartref {

namespace {

/** The flags experimentOptions() reads, with ExperimentOptions' defaults. */
const std::vector<CliFlag> &
standardFlags()
{
    static const ExperimentOptions d;
    static const auto n = [](auto v) { return std::to_string(v); };
    static const std::vector<CliFlag> rows = {
        {"warmup-ms", "N", "warm-up window, ms", n(d.warmup / kMillisecond)},
        {"measure-ms", "N", "measure window, ms", n(d.measure / kMillisecond)},
        {"bits", "B", "Smart Refresh counter width", n(d.counterBits)},
        {"segments", "N", "counter segments", n(d.segments)},
        {"seed", "S", "workload seed", n(d.seed)},
        {"no-auto", "", "no fallback to CBR on an idle module"},
        {"sparse-counters", "", "lazily-chunked counter array"},
        {"j", "[N]", "workers; bare -j: one per hardware thread",
         n(d.shardJobs)},
        {"log-level", "LEVEL", "silent|warn|info|debug", toString(d.logLevel)},
        {"verbose", "", "alias for --log-level debug"},
    };
    return rows;
}

const CliFlag *
findIn(const std::vector<CliFlag> &rows, const std::string &name)
{
    for (const CliFlag &f : rows)
        if (f.name == name)
            return &f;
    return nullptr;
}

std::string
spelling(const std::string &name)
{
    return (name.size() == 1 ? "-" : "--") + name;
}

/** A flag, not a value or operand ("-1" is a value). */
bool
looksLikeFlag(const std::string &arg)
{
    return arg.size() > 1 && arg[0] == '-' &&
           !std::isdigit(static_cast<unsigned char>(arg[1]));
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

CliArgs::CliArgs(const CliSpec &spec, const std::vector<std::string> &args)
    : spec_(spec)
{
    for (CliFlag &f : spec_.flags) {
        const CliFlag *base = findIn(standardFlags(), f.name);
        if (base && f.meta.empty())
            f = {f.name, base->meta, f.help.empty() ? base->help : f.help,
                 base->fallback};
    }
    spec_.flags.push_back(
        {"version", "", "print the provenance build block and exit"});
    spec_.flags.push_back({"help", "", "print this help and exit"});
    std::vector<std::string> spellings;
    for (const CliFlag &f : spec_.flags)
        spellings.push_back(spelling(f.name));

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string arg = args[i] == "-h" ? "--help" : args[i];
        if (!looksLikeFlag(arg)) {
            // After a flag, this is a value that flag did not take.
            if (operands_.size() == spec_.operands.size())
                SMARTREF_FATAL("unexpected argument '", arg, "'",
                               i > 0 && looksLikeFlag(args[i - 1])
                                   ? " (" + args[i - 1] + " takes no value)"
                                   : "");
            operands_.push_back(arg);
            continue;
        }
        // "--name", or a short flag with its value maybe attached ("-j4").
        const bool isLong = arg[1] == '-';
        const std::string name = isLong ? arg.substr(2) : arg.substr(1, 1);
        std::string value = isLong ? "" : arg.substr(2);
        const CliFlag *flag = findIn(spec_.flags, name);
        const bool optional = flag && flag->meta.rfind('[', 0) == 0;
        if (!flag || isLong != (name.size() > 1) ||
            (!value.empty() && !optional))
            SMARTREF_FATAL("unknown flag '", arg, "'",
                           didYouMean(arg, spellings));
        const bool hasNext =
            i + 1 < args.size() && !looksLikeFlag(args[i + 1]);
        if (!flag->meta.empty() && value.empty() && hasNext)
            value = args[++i];
        else if (!flag->meta.empty() && !optional)
            SMARTREF_FATAL(arg, " needs a value (", flag->meta, ")");
        values_[name] = value;
    }

    const auto required = static_cast<std::size_t>(
        std::count_if(spec_.operands.begin(), spec_.operands.end(),
                      [](const std::string &o) { return o[0] != '['; }));
    if (operands_.size() < required && !has("help") && !has("version"))
        SMARTREF_FATAL("missing operand ", spec_.operands[operands_.size()]);
}

const CliFlag *
CliArgs::find(const std::string &name) const
{
    const CliFlag *f = findIn(spec_.flags, name);
    if (!f && !findIn(standardFlags(), name))
        SMARTREF_PANIC(spec_.program, " reads ", spelling(name),
                       ", which its flag table does not declare");
    return f;
}

bool
CliArgs::has(const std::string &name) const
{
    return find(name) && values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name) const
{
    const auto it = values_.find(name);
    if (it != values_.end())
        return it->second;
    const CliFlag *f = find(name);
    return (f ? f : findIn(standardFlags(), name))->fallback;
}

std::uint64_t
CliArgs::getU64(const std::string &name) const
{
    const std::string v = getString(name);
    SMARTREF_ASSERT(has(name) || !v.empty(), spelling(name),
                    " has no default");
    return parseWhole(spelling(name), v, 0, UINT64_MAX);
}

unsigned
CliArgs::jobs() const
{
    const std::string v = getString("j");
    if (v.empty())
        return ThreadPool::hardwareThreads();
    const auto n = static_cast<unsigned>(parseWhole("-j", v, 10, UINT_MAX));
    return n == 0 ? 1 : n;
}

ExperimentOptions
CliArgs::experimentOptions() const
{
    ExperimentOptions opts;
    opts.warmup = getU64("warmup-ms") * kMillisecond;
    opts.measure = getU64("measure-ms") * kMillisecond;
    opts.counterBits = static_cast<std::uint32_t>(getU64("bits"));
    opts.segments = static_cast<std::uint32_t>(getU64("segments"));
    opts.autoReconfigure = !has("no-auto");
    opts.seed = getU64("seed");
    opts.shardJobs = jobs();
    opts.sparseCounters = has("sparse-counters");
    opts.verbose = has("verbose");
    opts.logLevel = parseLogLevel(getString("log-level"));
    // --verbose predates --log-level and stays as an alias for debug;
    // an explicit --log-level wins when both appear.
    if (opts.verbose && !has("log-level"))
        opts.logLevel = LogLevel::Debug;
    return opts;
}

std::string
CliArgs::usage() const
{
    std::ostringstream os;
    os << "usage: " << spec_.program;
    for (const std::string &o : spec_.operands)
        os << " " << o;
    os << " [flags]\n\n";
    for (const CliFlag &f : spec_.flags) {
        std::string lhs = spelling(f.name) + (f.name == "help" ? ", -h" : "") +
                          (f.meta.empty() ? "" : " " + f.meta);
        lhs.resize(std::max<std::size_t>(lhs.size(), 26), ' ');
        os << "  " << lhs << " " << f.help
           << (f.fallback.empty() ? "" : " (default " + f.fallback + ")")
           << "\n";
    }
    return os.str();
}

OutputFile::OutputFile(std::string path, std::string what)
    : path_(std::move(path)), what_(std::move(what)),
      out_(path_, std::ios::binary)
{
    if (!out_)
        SMARTREF_FATAL("cannot write ", what_, " '", path_, "'");
}

void
OutputFile::close()
{
    out_.close();
    if (!out_)
        SMARTREF_FATAL("short write to ", what_, " '", path_, "'");
}

int
runCli(const CliSpec &spec, int argc, char **argv,
       int (*body)(const CliArgs &))
{
    try {
        const CliArgs args(spec, {argv + 1, argv + argc});
        if (args.has("help") || args.has("version")) {
            std::cout << (args.has("help") ? args.usage()
                                           : versionText(spec.program));
            return 0;
        }
        return body(args);
    } catch (const std::runtime_error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}

} // namespace smartref
