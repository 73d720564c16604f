/**
 * @file
 * A tiny recursive-descent JSON parser. Parses the full JSON grammar
 * into a variant-like Value tree; throws std::runtime_error with a
 * byte offset on malformed input, and on arrays and objects nested
 * deeper than Parser::kMaxDepth (instead of overflowing the stack).
 *
 * Its consumers: test assertions over the simulator's JSON outputs
 * ("is this valid JSON, and does it contain what we wrote?"), and every
 * JSON input of the tools (sweep grids, result-cache entries, statdiff
 * and inspect operands), which read a file whole with readFile() first.
 */

#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace minijson {

class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    bool
    has(const std::string &key) const
    {
        return kind == Kind::Object && object.count(key) > 0;
    }

    /** Object member access; throws when absent or not an object. */
    const Value &
    at(const std::string &key) const
    {
        if (kind != Kind::Object)
            throw std::runtime_error("not an object");
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("no member '" + key + "'");
        return it->second;
    }

    /** Member @p key as a string; throws unless it is a JSON string. */
    const std::string &
    stringAt(const std::string &key) const
    {
        const Value &m = at(key);
        if (!m.isString())
            throw std::runtime_error("member '" + key + "' is not a string");
        return m.str;
    }

    /** Member @p key as a number; throws unless it is a JSON number. */
    double
    numberAt(const std::string &key) const
    {
        const Value &m = at(key);
        if (!m.isNumber())
            throw std::runtime_error("member '" + key + "' is not a number");
        return m.number;
    }

    /**
     * Member @p key as a count: a whole number in [0, 2^53], where every
     * integer is a double; throws otherwise.
     */
    std::uint64_t
    countAt(const std::string &key) const
    {
        const double x = numberAt(key);
        if (!(x >= 0.0 && x <= 0x1p53 && x == std::floor(x)))
            throw std::runtime_error("member '" + key + "' is not a count");
        return static_cast<std::uint64_t>(x);
    }

    /** Array element access; throws when out of range. */
    const Value &
    at(std::size_t idx) const
    {
        if (kind != Kind::Array)
            throw std::runtime_error("not an array");
        if (idx >= array.size())
            throw std::runtime_error("index out of range");
        return array[idx];
    }
};

namespace detail {

class Parser
{
  public:
    /** Far above anything the simulator writes or reads. */
    static constexpr int kMaxDepth = 256;

    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            ++depth_;
            Value v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        switch (c) {
          case '"': return parseString();
          case 't': case 'f': return parseBool();
          case 'n': return parseNull();
          default: return parseNumber();
        }
    }

    Value
    parseObject()
    {
        Value v;
        v.kind = Value::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            Value key = parseString();
            skipWs();
            expect(':');
            v.object[key.str] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        Value v;
        v.kind = Value::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Value
    parseString()
    {
        Value v;
        v.kind = Value::Kind::String;
        expect('"');
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.str += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': v.str += '"'; break;
              case '\\': v.str += '\\'; break;
              case '/': v.str += '/'; break;
              case 'b': v.str += '\b'; break;
              case 'f': v.str += '\f'; break;
              case 'n': v.str += '\n'; break;
              case 'r': v.str += '\r'; break;
              case 't': v.str += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = static_cast<unsigned>(std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                // Tests only emit ASCII control escapes; anything wider
                // is preserved as a replacement byte.
                v.str += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    Value
    parseBool()
    {
        Value v;
        v.kind = Value::Kind::Bool;
        if (consumeLiteral("true")) {
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.boolean = false;
            return v;
        }
        fail("bad literal");
    }

    Value
    parseNull()
    {
        if (!consumeLiteral("null"))
            fail("bad literal");
        return Value{};
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        Value v;
        v.kind = Value::Kind::Number;
        v.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                               nullptr);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< arrays and objects open at pos_
};

} // namespace detail

/** Parse `text` as one JSON document; throws std::runtime_error. */
inline Value
parse(const std::string &text)
{
    return detail::Parser(text).parse();
}

/** The whole of the file at `path`; nullopt when it cannot be opened. */
inline std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace minijson
