/**
 * @file
 * The one JSON string/number writer behind every artifact the
 * simulator emits (sweep aggregates, result-cache entries, telemetry,
 * provenance blocks, stats and trace dumps).
 *
 * Strings can carry outside input (grid files, benchmark and config
 * names, stat descriptions), so jsonQuoted() escapes every byte below
 * 0x20: `\n`, `\r` and `\t` in their short forms, the rest as `\u00XX`.
 * jsonNumber() is std::to_chars' shortest round-trip form: exact and
 * locale-independent, which the byte-identical aggregate contract
 * depends on.
 */

#pragma once

#include <string>
#include <string_view>

namespace smartref {

/** `s` as a quoted JSON string literal. */
std::string jsonQuoted(std::string_view s);

/** Shortest round-trip decimal form of `v`. */
std::string jsonNumber(double v);

} // namespace smartref
