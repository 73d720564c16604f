/**
 * @file
 * Machine-readable export of a StatGroup tree.
 *
 * Serialises every registered statistic below a group — Scalar, Vector,
 * Histogram and Formula, each with its full dotted name — as one flat
 * JSON object, so benches and CI can diff two runs structurally instead
 * of scraping the console dump. The flat keying mirrors the text dump:
 * what dumpStats() prints as "system.ctrl.demandReads" is the JSON key
 * "system.ctrl.demandReads".
 */

#pragma once

#include <iosfwd>
#include <string>

#include "sim/stats.hh"

namespace smartref {

/**
 * Generic numeric readout of any statistic: Scalar/Formula value,
 * VectorStat total, Histogram sample count. Useful for probing stats
 * found via StatGroup::resolveStat without knowing their kind.
 */
double statValue(const StatBase &stat);

/**
 * Serialise `root`'s subtree as JSON to a stream. When `metaJson` is
 * non-empty it must be a complete JSON value (normally produced by
 * smartref::metaJson()) and is embedded verbatim as a top-level "meta"
 * member, giving the dump run provenance.
 */
void writeStatsJson(const StatGroup &root, std::ostream &os,
                    const std::string &metaJson = "");

} // namespace smartref
