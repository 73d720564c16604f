#include "sim/logging.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace smartref {

namespace {
LogLevel g_level = LogLevel::Warn;
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "silent")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    SMARTREF_FATAL("unknown log level '", name,
                   "' (silent, warn, info, debug)");
}

const char *
toString(LogLevel level)
{
    switch (level) {
      case LogLevel::Silent: return "silent";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    // Throwing (rather than abort()) lets unit tests assert that invariant
    // violations are detected; main() never catches it, so outside tests
    // the effect is still termination.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Info)
        std::cout << "info: " << msg << std::endl;
}

void
debugImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Debug)
        std::cout << "debug: " << msg << std::endl;
}

} // namespace detail
} // namespace smartref
