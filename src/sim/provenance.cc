#include "sim/provenance.hh"

#include <ostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "sim/json_writer.hh"
#include "sim/provenance_info.hh"

namespace smartref {

const BuildInfo &
buildInfo()
{
    static const BuildInfo info = [] {
        BuildInfo b;
        b.gitSha = SMARTREF_GIT_SHA;
        if (b.gitSha.empty())
            b.gitSha = "unknown";
        b.compiler = SMARTREF_COMPILER_ID;
        const std::string version = SMARTREF_COMPILER_VERSION;
        if (!version.empty())
            b.compiler += " " + version;
        b.compilerFlags = SMARTREF_CXX_FLAGS;
        b.buildType = SMARTREF_BUILD_TYPE;
        if (b.buildType.empty())
            b.buildType = "unspecified";
        return b;
    }();
    return info;
}

std::uint64_t
fnv1a64(std::string_view s)
{
    // These constants predate this module (harness/sweep.cc seed
    // derivation); the pinned seeds in tests/test_sweep.cpp depend on
    // them, so they must never change.
    std::uint64_t hash = 1469598103934665603ULL;
    for (char ch : s) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

const std::string &
buildFingerprint()
{
    static const std::string fingerprint = [] {
        const BuildInfo &b = buildInfo();
        return "git=" + b.gitSha + ";compiler=" + b.compiler +
               ";flags=" + b.compilerFlags + ";buildType=" + b.buildType;
    }();
    return fingerprint;
}

void
writeMetaJson(std::ostream &os, const RunMeta &run)
{
    const BuildInfo &b = buildInfo();
    os << "{\"schemaVersion\":" << jsonQuoted(run.schema)
       << ",\"gitSha\":" << jsonQuoted(b.gitSha)
       << ",\"compiler\":" << jsonQuoted(b.compiler)
       << ",\"compilerFlags\":" << jsonQuoted(b.compilerFlags)
       << ",\"buildType\":" << jsonQuoted(b.buildType);
    if (!run.configHash.empty())
        os << ",\"configHash\":" << jsonQuoted(run.configHash);
    if (!run.seedMode.empty())
        os << ",\"seedMode\":" << jsonQuoted(run.seedMode);
    if (run.peakRssBytes)
        os << ",\"peakRssBytes\":" << run.peakRssBytes;
    os << "}";
}

std::string
metaJson(const RunMeta &run)
{
    std::ostringstream os;
    writeMetaJson(os, run);
    return os.str();
}

std::uint64_t
currentPeakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // ru_maxrss is bytes on Darwin...
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    // ...and kilobytes on Linux.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ULL;
#endif
#else
    return 0;
#endif
}

std::string
versionText(const std::string &toolName)
{
    const BuildInfo &b = buildInfo();
    std::ostringstream os;
    os << toolName << " (smartref)\n"
       << "  gitSha:        " << b.gitSha << "\n"
       << "  compiler:      " << b.compiler << "\n"
       << "  compilerFlags: " << b.compilerFlags << "\n"
       << "  buildType:     " << b.buildType << "\n";
    return os.str();
}

} // namespace smartref
