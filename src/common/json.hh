/**
 * @file
 * The tree's one JSON reader, plus the escape() every writer uses.
 *
 * The repo's reports, machine specs, grid documents, checkpoints,
 * corpora, repro documents and traces are all emitted by hand (stable
 * field order, no external JSON dependency) and all read back through
 * parse(): a strict RFC 8259 parser producing a Value tree. Readers
 * look keys up among an object's own members only, so a document may
 * be re-indented or have its keys reordered without changing what it
 * means, and a key nested in a sub-object can never be mistaken for a
 * top-level one.
 *
 * Three properties serve the readers that predate the parser:
 *  - objects keep member order (grid "keys" use it as expansion order);
 *  - every value keeps its source byte span, so report merging and
 *    checkpoint resume copy rows and payloads verbatim;
 *  - numbers, booleans and null keep their raw token, so each reader
 *    applies its own number grammar to exactly what the file says.
 */

#ifndef MSPLIB_COMMON_JSON_HH
#define MSPLIB_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace msp {
namespace json {

/**
 * A malformed document. parse() reports syntax errors with a
 * "line:column:" prefix; the accessors below report a present key
 * whose value has the wrong type or a malformed number. (Absent keys
 * yield the caller's default: documents legitimately omit optional
 * fields. A garbled value must fail loudly instead, or a corrupt
 * checkpoint row or repro would "replay clean".)
 */
struct JsonError : std::runtime_error
{
    explicit JsonError(const std::string &what,
                       std::size_t element = std::string::npos)
        : std::runtime_error(what), element(element) {}

    /**
     * For a syntax error inside an array element: that element's index
     * in the innermost enclosing array. npos otherwise. Lets a reader
     * of a fixed-shape tuple name the field that failed.
     */
    std::size_t element;
};

/** One parsed JSON value. */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    /** String: the decoded bytes. Number, Bool, Null: the raw token. */
    std::string text;
    /** Array elements, or object member values parallel to keys. */
    std::vector<Value> items;
    /** Object member names, in source order (unique). */
    std::vector<std::string> keys;
    /** Source byte span [begin, end) in the parsed text. */
    std::size_t begin = 0;
    std::size_t end = 0;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    /**
     * This object's own member @p key, or nullptr when absent.
     * @throws JsonError when this value is not an object.
     */
    const Value *find(const std::string &key) const;
};

/**
 * Parse @p text as exactly one JSON value, surrounded by optional
 * whitespace. Rejects everything RFC 8259 does (bad escapes, raw
 * control bytes in strings, leading zeros, trailing commas, ...) plus
 * duplicate keys within one object and any trailing content.
 * @throws JsonError "line:column: what" on the first defect.
 */
Value parse(const std::string &text);

/**
 * @p v as a double. @p what names the value in errors. Throws
 * JsonError unless @p v is a number.
 */
double asNum(const Value &v, const std::string &what);

/**
 * @p v as a plain non-negative decimal integer that fits in 64 bits
 * (parse::decimalU64 over the raw token); throws JsonError otherwise.
 */
std::uint64_t asU64(const Value &v, const std::string &what);

/** @p v's decoded string; throws JsonError unless it is a string. */
const std::string &asStr(const Value &v, const std::string &what);

/**
 * Member accessors: @p def when @p obj has no member @p key, the
 * member's value when it has the right type, JsonError otherwise.
 */
double getNum(const Value &obj, const std::string &key, double def);
std::uint64_t getU64(const Value &obj, const std::string &key,
                     std::uint64_t def);
bool getBool(const Value &obj, const std::string &key, bool def);
std::string getStr(const Value &obj, const std::string &key,
                   const std::string &def = "");

/**
 * Member @p key of @p obj when it is an array (getArray) or an object
 * (getObject); nullptr when absent; JsonError for any other type.
 */
const Value *getArray(const Value &obj, const std::string &key);
const Value *getObject(const Value &obj, const std::string &key);

/** The source bytes of @p v, which was parsed from @p text. */
std::string slice(const std::string &text, const Value &v);

/**
 * Escape @p s for embedding in a JSON string literal. Covers the full
 * control set: quote, backslash, \b \f \n \r \t as their two-char
 * shorthands and every other byte < 0x20 as \u00XX. Bytes >= 0x80 pass
 * through untouched (UTF-8 payloads stay UTF-8), so parse() decodes
 * the literal back to exactly @p s.
 */
std::string escape(const std::string &s);

} // namespace json
} // namespace msp

#endif // MSPLIB_COMMON_JSON_HH
