/**
 * @file
 * smartref_statdiff — structural diff of two stats/sweep JSON files.
 *
 * Flattens both documents into dotted metric paths, compares every
 * numeric leaf under per-metric absolute/relative tolerances, and
 * reports a human table plus an optional machine JSON verdict. CI uses
 * it as the golden gate of the sweep-smoke job: the golden file pins a
 * stable subset of metrics, the tolerance file says how far each may
 * drift (ci/golden_tolerances.json).
 *
 * Usage: smartref_statdiff A B [flags]; see --help.
 *
 * Each operand is a JSON file path, or a reference into the
 * content-addressed sweep result cache: `cache:<key-prefix>` or a bare
 * unique hex key prefix (when no file of that name exists). Cache refs
 * resolve against --cache-dir (default: the same SMARTREF_CACHE_DIR /
 * XDG_CACHE_HOME / ~/.cache/smartref chain as smartref_sweep).
 *
 * Exit codes: 0 = within tolerance, 1 = differences found,
 *             2 = usage or I/O error.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/result_cache.hh"
#include "harness/statdiff.hh"
#include "sim/logging.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {
    "smartref_statdiff",
    {"A", "B"},
    {
        {"tolerances", "FILE", "per-metric tolerance table"},
        {"subset", "", "metrics only in B are OK"},
        {"json-out", "FILE", "machine verdict JSON"},
        {"cache-dir", "DIR", "result cache for cache references",
         ResultCache::defaultDir()},
        {"quiet", "", "suppress the human report"},
    }};

bool
isHexPrefix(const std::string &s)
{
    return !s.empty() && s.size() <= 16 &&
           s.find_first_not_of("0123456789abcdef") == std::string::npos;
}

/**
 * Turn an operand into a readable JSON path. `cache:<prefix>` always
 * resolves through the cache; a bare operand resolves through the
 * cache only when it is not an existing file but looks like a hex key
 * prefix. Throws std::runtime_error on no / ambiguous matches.
 */
std::string
resolveOperand(const std::string &operand, const std::string &cacheDir)
{
    const bool explicitRef = operand.rfind("cache:", 0) == 0;
    const std::string prefix =
        explicitRef ? operand.substr(6) : operand;
    if (!explicitRef &&
        (std::filesystem::exists(operand) || !isHexPrefix(prefix)))
        return operand;
    if (!isHexPrefix(prefix))
        throw std::runtime_error("bad cache key prefix '" + prefix +
                                 "' (lowercase hex, at most 16 digits)");
    ResultCache cache(cacheDir);
    const std::vector<std::string> matches = cache.matchPrefix(prefix);
    if (matches.empty())
        throw std::runtime_error("no cache entry matches '" + prefix +
                                 "' in '" + cacheDir + "'");
    if (matches.size() > 1) {
        std::string msg = "ambiguous cache prefix '" + prefix +
                          "' matches " +
                          std::to_string(matches.size()) + " keys:";
        for (const auto &m : matches)
            msg += "\n  " + m;
        throw std::runtime_error(msg);
    }
    return cache.entryPath(matches[0]);
}

int
run(const CliArgs &args)
{
    DiffTolerances tolerances;
    if (args.has("tolerances"))
        tolerances = loadTolerances(args.getString("tolerances"));
    const std::string cacheDir = args.getString("cache-dir");
    const auto a = loadMetrics(resolveOperand(args.operands()[0], cacheDir));
    const auto b = loadMetrics(resolveOperand(args.operands()[1], cacheDir));
    const DiffResult result =
        diffMetrics(a, b, tolerances, args.has("subset"));
    if (!args.has("quiet"))
        writeDiffReport(std::cout, result);
    if (args.has("json-out")) {
        const std::string path = args.getString("json-out");
        std::ofstream out(path);
        if (!out)
            SMARTREF_FATAL("cannot write '", path, "'");
        writeDiffJson(out, result);
    }
    return result.pass() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
