/**
 * @file
 * The one argv parser of the tools and examples: each binary declares a
 * flag table (CliSpec), and runCli() is the whole of its main().
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace smartref {

/**
 * `value` as a whole unsigned number in strtoull's `base` forms (base 0:
 * decimal, 0x hex, leading-0 octal). No digits, a sign, trailing
 * characters or a value above `max` is fatal and names `flag`.
 */
std::uint64_t parseWhole(const std::string &flag, const std::string &value,
                         int base, std::uint64_t max);

/**
 * One row of a flag table. A one-letter name is a short flag ("j" is
 * -j); any other is a long one ("config" is --config). A row naming a
 * flag experimentOptions() reads may leave meta empty: meta, fallback
 * and (when empty) help then come from ExperimentOptions' defaults.
 */
struct CliFlag
{
    std::string name{};
    /** Value placeholder ("N"); empty for a switch, which takes no
     *  value; bracketed ("[N]") when optional: "-j", "-j4", "-j 4". */
    std::string meta{};
    std::string help{};
    /** The value when the flag is absent, shown as "(default X)". */
    std::string fallback{};
};

/** A binary's whole command line. */
struct CliSpec
{
    std::string program{};
    /** Operand placeholders; a bracketed one ("[FILE_B]") is optional. */
    std::vector<std::string> operands{};
    std::vector<CliFlag> flags{};
};

/**
 * Arguments parsed strictly against a CliSpec plus --help (-h) and
 * --version. Fatal (std::runtime_error): an unknown flag (with a
 * did-you-mean), a switch given a value, a valued flag without one, and
 * operands the spec does not declare.
 */
class CliArgs
{
  public:
    CliArgs(const CliSpec &spec, const std::vector<std::string> &args);

    /**
     * Whether the flag was given. Reading an undeclared flag is a bug
     * (panic); experimentOptions()'s flags read as absent instead.
     */
    bool has(const std::string &name) const;
    /** The flag's value, or its table fallback when absent. */
    std::string getString(const std::string &name) const;
    /** getString() through parseWhole() (base 0, up to UINT64_MAX). */
    std::uint64_t getU64(const std::string &name) const;

    const std::vector<std::string> &operands() const { return operands_; }

    /** -j N or -jN (0 means 1), one per hardware thread for a bare -j,
     *  1 when absent. A count that is not a whole decimal is fatal. */
    unsigned jobs() const;

    /** ExperimentOptions from those of --warmup-ms, --measure-ms, --bits,
     *  --segments, --seed, --no-auto, --sparse-counters, -j, --log-level
     *  and --verbose (alias for --log-level debug) the table declares. */
    ExperimentOptions experimentOptions() const;

    /** The --help text, generated from the table. */
    std::string usage() const;

  private:
    /** The declared row of `name`; null for an undeclared standard one. */
    const CliFlag *find(const std::string &name) const;

    CliSpec spec_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> operands_;
};

/**
 * A file an output flag names, opened (and truncated) before the tool
 * simulates anything, so that an unwritable path fails at once instead
 * of after the run. Bytes are written as given (binary mode).
 */
class OutputFile
{
  public:
    /** Fatal "cannot write WHAT 'PATH'" unless the file opens. */
    OutputFile(std::string path, std::string what);

    std::ostream &stream() { return out_; }
    const std::string &path() const { return path_; }

    /** Flush and close; fatal "short write to WHAT 'PATH'" if a write
     *  failed. */
    void close();

  private:
    std::string path_;
    std::string what_;
    std::ofstream out_;
};

/**
 * A binary's whole main(): parse argv against `spec`, answer --help and
 * --version, else return `body(args)`. A std::runtime_error (user
 * error) prints one "error: " line and exits 2; a panic still aborts.
 */
int runCli(const CliSpec &spec, int argc, char **argv,
           int (*body)(const CliArgs &));

} // namespace smartref
