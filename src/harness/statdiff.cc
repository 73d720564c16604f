#include "harness/statdiff.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "harness/report.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/mini_json.hh"

namespace smartref {

namespace {

std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        SMARTREF_FATAL("cannot read ", what, " '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

MetricTolerance
parseOneTolerance(const minijson::Value &v, const std::string &where)
{
    if (!v.isObject())
        SMARTREF_FATAL("tolerance '", where, "' must be an object");
    MetricTolerance tol;
    for (const auto &[key, field] : v.object) {
        if (key == "abs" || key == "rel") {
            if (!field.isNumber() || field.number < 0.0)
                SMARTREF_FATAL("tolerance '", where, "': '", key,
                               "' must be a non-negative number");
            (key == "abs" ? tol.abs : tol.rel) = field.number;
        } else if (key == "ignore") {
            if (field.kind != minijson::Value::Kind::Bool)
                SMARTREF_FATAL("tolerance '", where,
                               "': 'ignore' must be a boolean");
            tol.ignore = field.boolean;
        } else {
            SMARTREF_FATAL("tolerance '", where, "': unknown field '",
                           key, "'");
        }
    }
    return tol;
}

void
flattenInto(const minijson::Value &v, const std::string &path,
            std::map<std::string, double> &out)
{
    switch (v.kind) {
      case minijson::Value::Kind::Number:
        out[path] = v.number;
        break;
      case minijson::Value::Kind::Bool:
        out[path] = v.boolean ? 1.0 : 0.0;
        break;
      case minijson::Value::Kind::Object:
        for (const auto &[key, member] : v.object)
            flattenInto(member, path.empty() ? key : path + "." + key,
                        out);
        break;
      case minijson::Value::Kind::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i)
            flattenInto(v.array[i],
                        path + "[" + std::to_string(i) + "]", out);
        break;
      case minijson::Value::Kind::String:
      case minijson::Value::Kind::Null:
        // Identity lives in the paths; free-text carries no metric.
        break;
    }
}

} // namespace

const MetricTolerance &
DiffTolerances::lookup(const std::string &path) const
{
    auto exact = metrics.find(path);
    if (exact != metrics.end())
        return exact->second;
    // std::map iterates in sorted key order, making "first matching
    // glob" deterministic however the file listed them.
    for (const auto &[pattern, tol] : metrics)
        if (pattern.find('*') != std::string::npos &&
            globMatch(pattern, path))
            return tol;
    return fallback;
}

bool
globMatch(const std::string &pattern, const std::string &path)
{
    // Classic two-pointer wildcard match; '*' matches any run of
    // characters (including '.', '[' and ']' — patterns span levels).
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() &&
            (pattern[p] == path[s] || pattern[p] == '?')) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

DiffTolerances
parseTolerances(const std::string &jsonText)
{
    const minijson::Value root = minijson::parse(jsonText);
    if (!root.isObject())
        SMARTREF_FATAL("tolerances JSON must be an object");
    DiffTolerances tol;
    for (const auto &[key, value] : root.object) {
        if (key == "default") {
            tol.fallback = parseOneTolerance(value, "default");
        } else if (key == "metrics") {
            if (!value.isObject())
                SMARTREF_FATAL("'metrics' must be an object");
            for (const auto &[metric, entry] : value.object)
                tol.metrics[metric] = parseOneTolerance(entry, metric);
        } else {
            SMARTREF_FATAL("unknown tolerances member '", key, "'");
        }
    }
    return tol;
}

DiffTolerances
loadTolerances(const std::string &path)
{
    return parseTolerances(readFile(path, "tolerances JSON"));
}

std::map<std::string, double>
flattenMetrics(const minijson::Value &root)
{
    std::map<std::string, double> out;
    if (root.isObject()) {
        for (const auto &[key, member] : root.object) {
            if (key == "meta")
                continue; // provenance, not a metric
            flattenInto(member, key, out);
        }
    } else {
        flattenInto(root, "", out);
    }
    return out;
}

std::map<std::string, double>
loadMetrics(const std::string &path)
{
    return flattenMetrics(minijson::parse(readFile(path, "stats JSON")));
}

DiffResult
diffMetrics(const std::map<std::string, double> &a,
            const std::map<std::string, double> &b,
            const DiffTolerances &tolerances, bool subset)
{
    DiffResult result;
    for (const auto &[metric, va] : a) {
        const MetricTolerance &tol = tolerances.lookup(metric);
        if (tol.ignore) {
            ++result.ignored;
            continue;
        }
        auto it = b.find(metric);
        if (it == b.end()) {
            result.missingInB.push_back(metric);
            continue;
        }
        const double vb = it->second;
        const double absDiff = std::fabs(va - vb);
        const double mag = std::max(std::fabs(va), std::fabs(vb));
        const double relDiff = mag > 0.0 ? absDiff / mag : 0.0;
        if (absDiff <= tol.abs || relDiff <= tol.rel) {
            ++result.passed;
        } else {
            result.failures.push_back(
                {metric, va, vb, absDiff, relDiff, tol});
        }
    }
    if (!subset) {
        for (const auto &[metric, vb] : b) {
            (void)vb;
            if (a.count(metric))
                continue;
            if (tolerances.lookup(metric).ignore) {
                ++result.ignored;
                continue;
            }
            result.missingInA.push_back(metric);
        }
    }
    return result;
}

void
writeDiffReport(std::ostream &os, const DiffResult &result)
{
    if (!result.failures.empty()) {
        ReportTable table(
            {"metric", "a", "b", "absDiff", "relDiff", "tol"});
        for (const auto &f : result.failures) {
            std::string tolDesc = "abs<=" + jsonNumber(f.tolerance.abs) +
                                  " rel<=" + jsonNumber(f.tolerance.rel);
            table.addRow({f.metric, jsonNumber(f.a), jsonNumber(f.b),
                          jsonNumber(f.absDiff), jsonNumber(f.relDiff),
                          tolDesc});
        }
        table.print(os);
    }
    for (const auto &m : result.missingInB)
        os << "only in A: " << m << "\n";
    for (const auto &m : result.missingInA)
        os << "only in B: " << m << "\n";
    os << (result.pass() ? "PASS" : "FAIL") << ": " << result.passed
       << " within tolerance, " << result.failures.size() << " outside, "
       << result.missingInA.size() + result.missingInB.size()
       << " missing, " << result.ignored << " ignored\n";
}

void
writeDiffJson(std::ostream &os, const DiffResult &result)
{
    os << "{\"pass\":" << (result.pass() ? "true" : "false")
       << ",\"passed\":" << result.passed
       << ",\"ignored\":" << result.ignored << ",\"failures\":[";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const auto &f = result.failures[i];
        os << (i ? "," : "") << "{\"metric\":" << jsonQuoted(f.metric)
           << ",\"a\":" << jsonNumber(f.a) << ",\"b\":" << jsonNumber(f.b)
           << ",\"absDiff\":" << jsonNumber(f.absDiff)
           << ",\"relDiff\":" << jsonNumber(f.relDiff)
           << ",\"tolAbs\":" << jsonNumber(f.tolerance.abs)
           << ",\"tolRel\":" << jsonNumber(f.tolerance.rel) << "}";
    }
    os << "],\"missingInA\":[";
    for (std::size_t i = 0; i < result.missingInA.size(); ++i)
        os << (i ? "," : "") << jsonQuoted(result.missingInA[i]);
    os << "],\"missingInB\":[";
    for (std::size_t i = 0; i < result.missingInB.size(); ++i)
        os << (i ? "," : "") << jsonQuoted(result.missingInB[i]);
    os << "]}\n";
}

} // namespace smartref
