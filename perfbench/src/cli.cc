#include "cli.hh"

#include <charconv>
#include <functional>
#include <sstream>

#include "sim/suggest.hh"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "conv-2gb", "server-512gb", "figures-sweep"};
    return names;
}

namespace {

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &value)
{
    std::uint64_t v = 0;
    const char *end = value.data() + value.size();
    const auto res = std::from_chars(value.data(), end, v);
    if (value.empty() || res.ec != std::errc() || res.ptr != end)
        throw UsageError(flag + " takes a non-negative integer, got '" +
                         value + "'");
    return v;
}

struct Flag
{
    std::string name;
    std::string meta; ///< empty for a switch without a value
    std::string help;
    std::function<void(Options &, const std::string &)> apply;
};

const std::vector<Flag> &
flags()
{
    static const std::vector<Flag> table = {
        {"--workload", "NAME",
         "conv-2gb | server-512gb | figures-sweep (required)",
         [](Options &o, const std::string &v) {
             for (const auto &n : workloadNames()) {
                 if (n == v) {
                     o.workload = v;
                     return;
                 }
             }
             throw UsageError("unknown workload '" + v + "'" +
                              smartref::didYouMean(v, workloadNames()));
         }},
        {"--seed", "N", "workload seed (default 42; held-out: 20071201)",
         [](Options &o, const std::string &v) {
             o.seed = parseUnsigned("--seed", v);
         }},
        {"--seconds", "N", "measure for about N seconds, 1..600 (default 30)",
         [](Options &o, const std::string &v) {
             const std::uint64_t s = parseUnsigned("--seconds", v);
             if (s < 1 || s > 600)
                 throw UsageError("--seconds must be in 1..600, got " + v);
             o.seconds = static_cast<int>(s);
         }},
        {"--trace", "0|1",
         "0: end-to-end metrics; 1: per-layer metrics from a traced run",
         [](Options &o, const std::string &v) {
             if (v != "0" && v != "1")
                 throw UsageError("--trace takes 0 or 1, got '" + v + "'");
             o.trace = v == "1";
         }},
        {"--scratch-dir", "DIR",
         "sweep outputs and cold caches (default .bench_build/perfbench-run)",
         [](Options &o, const std::string &v) { o.scratchDir = v; }},
        {"--write-reference", "FILE",
         "run every workload through the library calls, write the "
         "reference and exit",
         [](Options &o, const std::string &v) { o.writeReference = v; }},
        {"--span-out", "FILE", "traced run: write spans as a Chrome trace",
         [](Options &o, const std::string &v) { o.spanOut = v; }},
        {"--help", "", "print this help",
         [](Options &o, const std::string &) { o.help = true; }},
    };
    return table;
}

} // namespace

Options
parseArgs(const std::vector<std::string> &args)
{
    Options o;
    std::vector<std::string> names;
    for (const auto &f : flags())
        names.push_back(f.name);
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string name = args[i];
        std::string value;
        bool inlineValue = false;
        const auto eq = name.find('=');
        if (name.rfind("--", 0) == 0 && eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            inlineValue = true;
        }
        const Flag *flag = nullptr;
        for (const auto &f : flags()) {
            if (f.name == name)
                flag = &f;
        }
        if (!flag)
            throw UsageError("unknown argument '" + name + "'" +
                             smartref::didYouMean(name, names));
        if (flag->meta.empty()) {
            if (inlineValue)
                throw UsageError(name + " takes no value");
        } else if (!inlineValue) {
            if (i + 1 >= args.size())
                throw UsageError(name + " needs a value (" + flag->meta +
                                 ")");
            value = args[++i];
        }
        flag->apply(o, value);
    }
    if (!o.help && o.workload.empty() && o.writeReference.empty())
        throw UsageError("--workload is required");
    return o;
}

std::string
usageText()
{
    std::ostringstream os;
    os << "usage: smartref_perfbench --workload NAME [--seed N] "
          "[--seconds N] [--trace 0|1]\n";
    for (const auto &f : flags()) {
        std::string lhs = "  " + f.name + (f.meta.empty() ? "" : " " + f.meta);
        if (lhs.size() < 26)
            lhs.resize(26, ' ');
        os << lhs << " " << f.help << "\n";
    }
    return os.str();
}

} // namespace perfbench
