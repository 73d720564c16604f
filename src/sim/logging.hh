/**
 * @file
 * Logging and error-termination helpers, in the spirit of gem5's
 * logging.hh.
 *
 *  - panic():  an internal simulator invariant was violated (a bug in this
 *              library). Aborts.
 *  - fatal():  the user configured something impossible (bad config, bad
 *              arguments). Exits with an error code.
 *  - warn():   something is modelled approximately; simulation continues.
 *  - inform(): neutral status output.
 *
 * All of them accept printf-free, iostream-style formatting via
 * std::format-like concatenation helpers to keep call sites terse.
 */

#pragma once

#include <sstream>
#include <string>

namespace smartref {

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Set the global log verbosity (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/** Parse "silent", "warn", "info" or "debug"; fatal on anything else. */
LogLevel parseLogLevel(const std::string &name);

/** Lower-case name of a level, inverse of parseLogLevel(). */
const char *toString(LogLevel level);

namespace detail {

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

} // namespace detail

/** Abort due to an internal simulator bug. */
#define SMARTREF_PANIC(...)                                                  \
    ::smartref::detail::panicImpl(__FILE__, __LINE__,                        \
                                  ::smartref::detail::concat(__VA_ARGS__))

/**
 * Exit due to an impossible user configuration: throws
 * std::runtime_error("fatal: <msg>") and prints nothing, so the tool's
 * main() reports it once.
 */
#define SMARTREF_FATAL(...)                                                  \
    ::smartref::detail::fatalImpl(::smartref::detail::concat(__VA_ARGS__))

/** Warn about approximate or suspicious behaviour. */
#define SMARTREF_WARN(...)                                                   \
    ::smartref::detail::warnImpl(::smartref::detail::concat(__VA_ARGS__))

/** Neutral status output. */
#define SMARTREF_INFORM(...)                                                 \
    ::smartref::detail::informImpl(::smartref::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; panics with a message on failure. */
#define SMARTREF_ASSERT(cond, ...)                                           \
    do {                                                                     \
        if (!(cond)) {                                                       \
            SMARTREF_PANIC("assertion failed: " #cond " ", __VA_ARGS__);     \
        }                                                                    \
    } while (0)

} // namespace smartref
