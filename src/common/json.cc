#include "common/json.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"

namespace msp {
namespace json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

namespace {

/** Append @p cp (a Unicode scalar value) to @p out as UTF-8. */
void
appendUtf8(std::string &out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

int
hexVal(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Recursion bound: hostile input must not overflow the stack. */
constexpr unsigned maxDepth = 256;

/** Recursive-descent parser over one document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Value
    document()
    {
        Value v = value(0);
        ws();
        if (p < s.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    const std::string &s;
    std::size_t p = 0;

    [[noreturn]] void
    failAt(std::size_t at, const std::string &what) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < at && i < s.size(); ++i) {
            if (s[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw JsonError(csprintf("%zu:%zu: %s", line, col, what.c_str()));
    }

    [[noreturn]] void fail(const std::string &what) const
    {
        failAt(p, what);
    }

    void
    ws()
    {
        while (p < s.size() && (s[p] == ' ' || s[p] == '\t' ||
                                s[p] == '\n' || s[p] == '\r')) {
            ++p;
        }
    }

    /** Fail at the cursor: it holds something other than @p want. */
    [[noreturn]] void
    unexpected(const char *want) const
    {
        if (p >= s.size())
            fail(csprintf("unexpected end of input (expected %s)", want));
        if (static_cast<unsigned char>(s[p]) < 0x20)
            fail(csprintf("expected %s, got byte 0x%02x", want, s[p]));
        fail(csprintf("expected %s, got '%c'", want, s[p]));
    }

    /** Consume @p c after optional whitespace, else fail naming @p want. */
    void
    expect(char c, const char *want)
    {
        ws();
        if (p >= s.size() || s[p] != c)
            unexpected(want);
        ++p;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (s.compare(p, len, word) != 0)
            return false;
        p += len;
        return true;
    }

    Value
    value(unsigned depth)
    {
        ws();
        if (p >= s.size())
            unexpected("a value");
        Value v;
        v.begin = p;
        const char c = s[p];
        if (c == '{') {
            object(v, depth);
        } else if (c == '[') {
            array(v, depth);
        } else if (c == '"') {
            v.type = Value::Type::String;
            v.text = string();
        } else if (c == '-' || isDigit(c)) {
            v.type = Value::Type::Number;
            v.text = number();
        } else if (literal("true", 4) || literal("false", 5)) {
            v.type = Value::Type::Bool;
            v.text = s.substr(v.begin, p - v.begin);
        } else if (literal("null", 4)) {
            v.text = "null";
        } else {
            unexpected("a value");
        }
        v.end = p;
        return v;
    }

    void
    object(Value &v, unsigned depth)
    {
        if (depth >= maxDepth)
            fail(csprintf("nesting deeper than %u levels", maxDepth));
        v.type = Value::Type::Object;
        ++p;   // '{'
        ws();
        if (p < s.size() && s[p] == '}') {
            ++p;
            return;
        }
        for (;;) {
            ws();
            if (p >= s.size() || s[p] != '"')
                unexpected("a member name string");
            const std::size_t keyAt = p;
            std::string key = string();
            for (const std::string &k : v.keys) {
                if (k == key) {
                    failAt(keyAt, csprintf("duplicate %skey '%s'",
                                           depth == 0 ? "top-level " : "",
                                           key.c_str()));
                }
            }
            expect(':', "':'");
            v.items.push_back(value(depth + 1));
            v.keys.push_back(std::move(key));
            ws();
            if (p < s.size() && s[p] == ',') {
                ++p;
                continue;
            }
            expect('}', "',' or '}'");
            return;
        }
    }

    void
    array(Value &v, unsigned depth)
    {
        if (depth >= maxDepth)
            fail(csprintf("nesting deeper than %u levels", maxDepth));
        v.type = Value::Type::Array;
        ++p;   // '['
        ws();
        if (p < s.size() && s[p] == ']') {
            ++p;
            return;
        }
        for (;;) {
            try {
                v.items.push_back(value(depth + 1));
            } catch (JsonError &e) {
                if (e.element == std::string::npos)
                    e.element = v.items.size();
                throw;
            }
            ws();
            if (p < s.size() && s[p] == ',') {
                ++p;
                continue;
            }
            expect(']', "',' or ']'");
            return;
        }
    }

    /** Four hex digits of a \u escape starting at @p at. */
    unsigned
    hex4(std::size_t at)
    {
        if (p + 4 > s.size())
            failAt(at, "truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const int h = hexVal(s[p++]);
            if (h < 0)
                failAt(at, "bad \\u escape (want four hex digits)");
            cp = (cp << 4) | static_cast<unsigned>(h);
        }
        return cp;
    }

    /** A quoted string at the cursor, decoded. */
    std::string
    string()
    {
        const std::size_t open = p++;
        std::string out;
        for (;;) {
            if (p >= s.size())
                failAt(open, "unterminated string");
            const char c = s[p];
            if (c == '"') {
                ++p;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string (escape it)");
            if (c != '\\') {
                out += c;
                ++p;
                continue;
            }
            const std::size_t at = p++;
            if (p >= s.size())
                failAt(open, "unterminated string");
            const char e = s[p++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned cp = hex4(at);
                if (cp >= 0xd800 && cp < 0xdc00) {
                    // A high surrogate must pair with a low one.
                    if (s.compare(p, 2, "\\u") != 0)
                        failAt(at, "unpaired surrogate in \\u escape");
                    p += 2;
                    const unsigned lo = hex4(at);
                    if (lo < 0xdc00 || lo >= 0xe000)
                        failAt(at, "unpaired surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp < 0xe000) {
                    failAt(at, "unpaired surrogate in \\u escape");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                failAt(at, csprintf("bad escape '\\%c'", e));
            }
        }
    }

    /** The RFC 8259 number token at the cursor, verbatim. */
    std::string
    number()
    {
        const std::size_t start = p;
        if (s[p] == '-')
            ++p;
        if (p < s.size() && s[p] == '0') {
            ++p;
        } else if (p < s.size() && isDigit(s[p])) {
            while (p < s.size() && isDigit(s[p]))
                ++p;
        } else {
            fail("malformed number (expected a digit)");
        }
        if (p < s.size() && s[p] == '.') {
            ++p;
            if (p >= s.size() || !isDigit(s[p]))
                fail("malformed number (expected a digit after '.')");
            while (p < s.size() && isDigit(s[p]))
                ++p;
        }
        if (p < s.size() && (s[p] == 'e' || s[p] == 'E')) {
            ++p;
            if (p < s.size() && (s[p] == '+' || s[p] == '-'))
                ++p;
            if (p >= s.size() || !isDigit(s[p]))
                fail("malformed number (expected an exponent digit)");
            while (p < s.size() && isDigit(s[p]))
                ++p;
        }
        return s.substr(start, p - start);
    }
};

const char *
typeName(Value::Type t)
{
    switch (t) {
      case Value::Type::Null:   return "null";
      case Value::Type::Bool:   return "a boolean";
      case Value::Type::Number: return "a number";
      case Value::Type::String: return "a string";
      case Value::Type::Array:  return "an array";
      case Value::Type::Object: return "an object";
    }
    return "?";
}

[[noreturn]] void
wrongType(const Value &v, const std::string &what, const char *want)
{
    throw JsonError(csprintf("%s: expected %s, got %s", what.c_str(), want,
                             typeName(v.type)));
}

std::string
quoted(const std::string &key)
{
    return "\"" + key + "\"";
}

} // anonymous namespace

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

const Value *
Value::find(const std::string &key) const
{
    if (type != Type::Object)
        wrongType(*this, "lookup of " + quoted(key), "an object");
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (keys[i] == key)
            return &items[i];
    return nullptr;
}

double
asNum(const Value &v, const std::string &what)
{
    if (v.type != Value::Type::Number)
        wrongType(v, what, "a number");
    // The parser admits only RFC 8259 number tokens, all of which
    // strtod decodes whole (no hex floats, inf or nan can reach here).
    return std::strtod(v.text.c_str(), nullptr);
}

std::uint64_t
asU64(const Value &v, const std::string &what)
{
    if (v.type != Value::Type::Number)
        wrongType(v, what, "an unsigned integer");
    std::uint64_t out = 0;
    const parse::Status st = parse::decimalU64(v.text, out);
    if (st != parse::Status::Ok) {
        throw JsonError(csprintf("%s: malformed unsigned '%s' (%s)",
                                 what.c_str(), v.text.c_str(),
                                 parse::statusReason(st)));
    }
    return out;
}

const std::string &
asStr(const Value &v, const std::string &what)
{
    if (v.type != Value::Type::String)
        wrongType(v, what, "a string");
    return v.text;
}

double
getNum(const Value &obj, const std::string &key, double def)
{
    const Value *v = obj.find(key);
    return v ? asNum(*v, quoted(key)) : def;
}

std::uint64_t
getU64(const Value &obj, const std::string &key, std::uint64_t def)
{
    const Value *v = obj.find(key);
    return v ? asU64(*v, quoted(key)) : def;
}

bool
getBool(const Value &obj, const std::string &key, bool def)
{
    const Value *v = obj.find(key);
    if (!v)
        return def;
    if (v->type != Value::Type::Bool)
        wrongType(*v, quoted(key), "a boolean");
    return v->text == "true";
}

std::string
getStr(const Value &obj, const std::string &key, const std::string &def)
{
    const Value *v = obj.find(key);
    return v ? asStr(*v, quoted(key)) : def;
}

const Value *
getArray(const Value &obj, const std::string &key)
{
    const Value *v = obj.find(key);
    if (v && v->type != Value::Type::Array)
        wrongType(*v, quoted(key), "an array");
    return v;
}

const Value *
getObject(const Value &obj, const std::string &key)
{
    const Value *v = obj.find(key);
    if (v && v->type != Value::Type::Object)
        wrongType(*v, quoted(key), "an object");
    return v;
}

std::string
slice(const std::string &text, const Value &v)
{
    return text.substr(v.begin, v.end - v.begin);
}

} // namespace json
} // namespace msp
