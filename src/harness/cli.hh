/**
 * @file
 * Minimal command-line flag parsing shared by the tools and example
 * binaries: "--key value" and "--flag" forms.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/experiment.hh"

namespace smartref {

/**
 * True when argv holds --help or -h. Tools check this before building
 * CliArgs (which rejects the single-dash -h) and print their usage.
 */
bool helpRequested(int argc, char **argv);

/**
 * `value` as a whole unsigned number in strtoull's `base` forms (base 0:
 * decimal, 0x hex, leading-0 octal). No digits, a sign, trailing
 * characters or a value above `max` is fatal and names `flag`.
 */
std::uint64_t parseWhole(const std::string &flag, const std::string &value,
                         int base, std::uint64_t max);

/** Parsed "--key value" / "--flag" arguments. */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &key) const;
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    /**
     * Value of --key as a whole number (decimal, 0x hex or leading-0
     * octal); `fallback` when absent. Anything that does not parse
     * whole, or overflows, is fatal.
     */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;

    /**
     * Build ExperimentOptions from the standard flags:
     * --warmup-ms N, --measure-ms N, --bits B, --segments N, --seed S,
     * --no-auto (disable reconfiguration), --sparse-counters,
     * -j N (shard workers for multi-channel configs),
     * --log-level {silent,warn,info,debug}, --verbose (alias for
     * --log-level debug).
     */
    ExperimentOptions experimentOptions() const;

    /**
     * Worker-thread count from "-j N" / "-jN" / "--jobs N". A bare
     * "-j" (no count) means one worker per hardware thread; absent
     * flags mean serial execution. A count that is not a whole decimal
     * number is fatal.
     */
    unsigned jobs() const;

    /** Value of --trace-out: Chrome trace_event JSON path. */
    std::string traceOutPath() const { return getString("trace-out"); }

    /** Value of --trace-csv: compact CSV timeline path. */
    std::string traceCsvPath() const { return getString("trace-csv"); }

    /** Value of --trace-categories (comma-separated; default "all"). */
    std::string
    traceCategories() const
    {
        return getString("trace-categories", "all");
    }

    /** Value of --stats-json: machine-readable statistics dump path. */
    std::string statsJsonPath() const { return getString("stats-json"); }

    /** Value of --stats-interval-ms (0 disables interval sampling). */
    std::uint64_t
    statsIntervalMs() const
    {
        return getU64("stats-interval-ms", 0);
    }

    /** Value of --stats-interval-out (per-interval CSV path). */
    std::string
    statsIntervalPath() const
    {
        return getString("stats-interval-out");
    }

    /** Value of --heatmap-out: spatial refresh heatmap JSON path. */
    std::string heatmapOutPath() const { return getString("heatmap-out"); }

    /** Value of --telemetry-out: live NDJSON telemetry stream path. */
    std::string
    telemetryOutPath() const
    {
        return getString("telemetry-out");
    }

    /** @name Audit / ledger output flags. */
    ///@{
    /** Value of --audit-out: binary refresh-audit trail path. */
    std::string auditOutPath() const { return getString("audit-out"); }

    /** Value of --audit-json: NDJSON refresh-audit trail path. */
    std::string auditJsonPath() const { return getString("audit-json"); }

    /** Value of --ledger-out: energy attribution ledger JSON path. */
    std::string ledgerOutPath() const { return getString("ledger-out"); }

    /** Value of --ledger-csv: per-interval ledger grid CSV path. */
    std::string ledgerCsvPath() const { return getString("ledger-csv"); }

    /**
     * Value of --ledger-check: conservation-check JSON path (shadow
     * totals in the stats-JSON shape, for smartref_statdiff --subset).
     */
    std::string
    ledgerCheckPath() const
    {
        return getString("ledger-check");
    }
    ///@}

  private:
    std::map<std::string, std::string> values_;
};

} // namespace smartref
