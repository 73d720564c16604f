#include "sim/json_writer.hh"

#include <charconv>

#include "sim/logging.hh"

namespace smartref {

std::string
jsonQuoted(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                out += "\\u00";
                out += kHex[(ch >> 4) & 0xf];
                out += kHex[ch & 0xf];
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    SMARTREF_ASSERT(res.ec == std::errc(), "to_chars failed");
    return std::string(buf, res.ptr);
}

} // namespace smartref
