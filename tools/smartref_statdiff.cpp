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
 * Usage:
 *   smartref_statdiff A B
 *                     [--tolerances FILE]  per-metric tolerance table
 *                     [--subset]           metrics only in B are OK
 *                     [--json-out FILE]    machine verdict JSON
 *                     [--cache-dir DIR]    result cache for cache refs
 *                     [--quiet]            suppress the human report
 *                     [--version]          print the provenance block
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

#include "harness/result_cache.hh"
#include "harness/statdiff.hh"
#include "sim/provenance.hh"

using namespace smartref;

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " A B [--tolerances FILE] [--subset]"
                 " [--json-out FILE] [--cache-dir DIR] [--quiet]\n"
                 "  A/B: stats/sweep JSON path, cache:<key-prefix>, or "
                 "a bare unique hex key prefix\n";
    return 2;
}

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

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    std::string tolerancesPath;
    std::string jsonOutPath;
    std::string cacheDir = ResultCache::defaultDir();
    bool subset = false;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerances" || arg == "--json-out" ||
            arg == "--cache-dir") {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                return usage(argv[0]);
            }
            const std::string value = argv[++i];
            if (arg == "--tolerances")
                tolerancesPath = value;
            else if (arg == "--json-out")
                jsonOutPath = value;
            else
                cacheDir = value;
        } else if (arg == "--subset") {
            subset = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--version") {
            std::cout << versionText("smartref_statdiff");
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown flag '" << arg << "'\n";
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2)
        return usage(argv[0]);

    try {
        DiffTolerances tolerances;
        if (!tolerancesPath.empty())
            tolerances = loadTolerances(tolerancesPath);
        const auto a = loadMetrics(resolveOperand(files[0], cacheDir));
        const auto b = loadMetrics(resolveOperand(files[1], cacheDir));
        const DiffResult result = diffMetrics(a, b, tolerances, subset);
        if (!quiet)
            writeDiffReport(std::cout, result);
        if (!jsonOutPath.empty()) {
            std::ofstream out(jsonOutPath);
            if (!out) {
                std::cerr << "cannot write '" << jsonOutPath << "'\n";
                return 2;
            }
            writeDiffJson(out, result);
        }
        return result.pass() ? 0 : 1;
    } catch (const std::exception &e) {
        // SMARTREF_FATAL and the JSON parser both throw runtime_error.
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
