/**
 * @file
 * Run provenance: every JSON artifact the simulator emits (stats dumps,
 * sweep aggregates, heatmaps, timing and metrics sidecars) carries a
 * `meta` block that identifies the build (git SHA, compiler, flags,
 * build type) and the run configuration (schema version, config hash,
 * seed mode), so a number in a dashboard can always be traced back to
 * the code and configuration that produced it.
 *
 * The block deliberately contains only values that are identical for
 * every `-j N` execution of the same build and configuration — no
 * timestamps, host names, thread counts or wall times — so embedding it
 * preserves the byte-identical deterministic-aggregate contract
 * (docs/sweep.md).
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace smartref {

/** Build-time identity captured by CMake at configure time. */
struct BuildInfo
{
    std::string gitSha;        ///< "unknown" outside a git checkout
    std::string compiler;      ///< e.g. "GNU 13.2.0"
    std::string compilerFlags; ///< CMAKE_CXX_FLAGS as configured
    std::string buildType;     ///< e.g. "Release"
};

/**
 * The identity of this binary. The git SHA is sampled when CMake
 * configures, so it can lag the checkout until the next reconfigure;
 * CI always configures fresh, which is where provenance matters.
 */
const BuildInfo &buildInfo();

/**
 * FNV-1a 64-bit hash over bytes. Uses the exact constants the sweep
 * seed derivation has always used (harness/sweep.cc now delegates
 * here), so the pinned job seeds in tests/test_sweep.cpp are part of
 * this function's contract.
 */
std::uint64_t fnv1a64(std::string_view s);

/** Fixed-width (16 digit) lowercase hex of a 64-bit value. */
std::string hex64(std::uint64_t v);

/**
 * Canonical build-identity string for content-addressed result keys:
 * "git=<sha>;compiler=<id>;flags=<flags>;buildType=<type>". All four
 * BuildInfo fields join deliberately — a cached result may only be
 * served to the exact build that could have produced it, so a new
 * commit or a sanitizer flag flip cold-starts the cache rather than
 * risking a stale hit (harness/result_cache.hh).
 */
const std::string &buildFingerprint();

/** Run-scoped provenance fields; empty/zero members are omitted. */
struct RunMeta
{
    std::string schema;     ///< e.g. "smartref-sweep-v1"
    std::string configHash; ///< hex64(fnv1a64(canonical config string))
    std::string seedMode;   ///< "derived" / "fixed"; empty = not a sweep

    /**
     * Peak resident set of the producing process. Host-dependent, so it
     * may only be set on artifacts that are already outside the
     * byte-identity contract (the timing sidecar, metrics snapshots) —
     * never on deterministic stats/aggregate dumps.
     */
    std::uint64_t peakRssBytes = 0;
};

/**
 * The `meta` object as a compact JSON value (no whitespace, fixed
 * member order): schemaVersion, gitSha, compiler, compilerFlags,
 * buildType, then the non-empty RunMeta fields.
 */
std::string metaJson(const RunMeta &run);

/** Stream form of metaJson(). */
void writeMetaJson(std::ostream &os, const RunMeta &run);

/**
 * Peak resident set size of this process in bytes (getrusage). Host-
 * and allocator-dependent: use it to fill RunMeta::peakRssBytes for
 * non-deterministic artifacts only. Returns 0 where unsupported.
 */
std::uint64_t currentPeakRssBytes();

/**
 * The human-readable provenance build block every tool's `--version`
 * flag prints: the tool name followed by one indented line per
 * BuildInfo field. One shared implementation keeps the four CLIs'
 * output formats identical.
 */
std::string versionText(const std::string &toolName);

} // namespace smartref
