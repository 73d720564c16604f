/**
 * @file
 * Shared plumbing for the bench binaries: standard flags, report
 * formatting and the provenance block of their BENCH_*.json files.
 */

#pragma once

#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "sim/provenance.hh"

namespace smartref::bench {

/**
 * Provenance "meta" block for a BENCH_*.json artifact: build identity
 * (git SHA, compiler, flags) plus the bench's own schema tag, so CI can
 * attribute an archived number to the exact build that produced it.
 */
inline std::string
benchMetaJson(const std::string &benchName)
{
    RunMeta meta;
    meta.schema = "smartref-bench-" + benchName + "-v1";
    return metaJson(meta);
}

} // namespace smartref::bench
