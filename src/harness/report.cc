#include "harness/report.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "sim/logging.hh"

namespace smartref {

ReportTable::ReportTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    SMARTREF_ASSERT(cells.size() == header_.size(),
                    "row width ", cells.size(), " != header width ",
                    header_.size());
    rows_.push_back(std::move(cells));
}

void
ReportTable::addSeparator()
{
    rows_.emplace_back();
}

void
ReportTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto printRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            if (c == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[c])) << row[c];
        }
        os << '\n';
    };

    printRow(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_) {
        if (row.empty())
            os << '\n';
        else
            printRow(row);
    }
}

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (char ch : field) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

void
ReportTable::writeCsv(std::ostream &os) const
{
    auto writeRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            os << (c ? "," : "") << csvEscape(row[c]);
        os << '\n';
    };
    writeRow(header_);
    for (const auto &row : rows_)
        if (!row.empty())
            writeRow(row);
}

void
ReportTable::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        SMARTREF_FATAL("cannot write CSV '", path, "'");
    writeCsv(out);
}

std::string
fmtPercent(double fraction, int decimals)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(decimals) << fraction * 100.0
        << "%";
    return oss.str();
}

std::string
fmtMillions(double value, int decimals)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(decimals) << value / 1e6;
    return oss.str();
}

std::string
fmtDouble(double value, int decimals)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(decimals) << value;
    return oss.str();
}

namespace {

/** Iterate results grouped by suite, inserting separators. */
template <typename RowFn>
void
groupBySuite(ReportTable &table,
             const std::vector<ComparisonResult> &results, RowFn addRow)
{
    std::string lastSuite;
    for (const auto &r : results) {
        if (!lastSuite.empty() && r.suite != lastSuite)
            table.addSeparator();
        lastSuite = r.suite;
        addRow(r);
    }
}

} // namespace

double
printFigure(std::ostream &os, const std::string &title,
            const std::string &paperNote,
            const std::vector<ComparisonResult> &results,
            const std::string &metricName, const MetricFn &metric,
            bool metricIsPercent, const std::string &csvPath,
            int decimals)
{
    os << "\n=== " << title << " ===\n";
    if (!paperNote.empty())
        os << "paper: " << paperNote << "\n\n";

    ReportTable table({"benchmark", "suite", metricName});
    groupBySuite(table, results, [&](const ComparisonResult &r) {
        const double v = metric(r);
        table.addRow({r.benchmark, r.suite,
                      metricIsPercent ? fmtPercent(v, decimals)
                                      : fmtDouble(v, decimals)});
    });

    std::vector<double> values;
    values.reserve(results.size());
    for (const auto &r : results)
        values.push_back(metric(r));
    const double gmean = geometricMean(values);

    table.addSeparator();
    table.addRow({"GMEAN", "",
                  metricIsPercent ? fmtPercent(gmean, decimals)
                                  : fmtDouble(gmean, decimals)});
    table.print(os);
    if (!csvPath.empty())
        table.writeCsv(csvPath);
    return gmean;
}

double
printRefreshRateFigure(std::ostream &os, const std::string &title,
                       const std::string &paperNote, double baselinePerSec,
                       const std::vector<ComparisonResult> &results,
                       const std::string &csvPath)
{
    os << "\n=== " << title << " ===\n";
    if (!paperNote.empty())
        os << "paper: " << paperNote << "\n";
    os << "baseline (all policies): " << fmtMillions(baselinePerSec)
       << " M refreshes/s\n\n";

    ReportTable table({"benchmark", "suite", "baseline (M/s)",
                       "smart (M/s)", "reduction"});
    groupBySuite(table, results, [&](const ComparisonResult &r) {
        table.addRow({r.benchmark, r.suite,
                      fmtMillions(r.baseline.refreshesPerSec),
                      fmtMillions(r.smart.refreshesPerSec),
                      fmtPercent(r.refreshReduction())});
    });

    std::vector<double> smartRates;
    smartRates.reserve(results.size());
    for (const auto &r : results)
        smartRates.push_back(r.smart.refreshesPerSec);
    const double gmean = geometricMean(smartRates);

    table.addSeparator();
    table.addRow({"GMEAN", "", fmtMillions(baselinePerSec),
                  fmtMillions(gmean),
                  fmtPercent(1.0 - gmean / baselinePerSec)});
    table.print(os);
    if (!csvPath.empty())
        table.writeCsv(csvPath);
    return gmean;
}

} // namespace smartref
