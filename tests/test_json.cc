/**
 * @file
 * Tests for the one JSON reader (common/json.hh): the parser's
 * grammar (line:column errors, duplicate keys, trailing content,
 * source spans, member order, raw number tokens), and a table of
 * reader defects the substring helpers it replaced had — keys found at
 * the wrong depth, whitespace before a colon, mistyped or malformed
 * values decoding silently, and pretty-printed documents failing.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "driver/campaign.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/report.hh"

namespace msp {
namespace {

using json::JsonError;
using json::Value;

/** parse(@p doc) must throw a JsonError whose message holds @p want. */
void
expectParseError(const std::string &doc, const std::string &want)
{
    try {
        json::parse(doc);
        FAIL() << "expected JsonError containing '" << want << "' for "
               << doc;
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "message was: " << e.what();
    }
}

/** @p v re-emitted with every object's members in reverse order. */
std::string
reversedKeys(const std::string &text, const Value &v)
{
    if (v.isArray()) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.items.size(); ++i)
            out += (i ? ", " : "") + reversedKeys(text, v.items[i]);
        return out + "]";
    }
    if (!v.isObject())
        return json::slice(text, v);
    std::string out = "{";
    for (std::size_t i = v.keys.size(); i-- > 0;) {
        out += "\"" + json::escape(v.keys[i]) + "\": " +
               reversedKeys(text, v.items[i]);
        out += i ? ",\n" : "";
    }
    return out + "}";
}

std::string
reversedKeys(const std::string &text)
{
    return reversedKeys(text, json::parse(text));
}

// ---- the parser's grammar --------------------------------------------------

TEST(JsonParse, ErrorsCarryLineAndColumn)
{
    expectParseError("{\n  \"a\": tru\n}", "2:8: expected a value");
    expectParseError("[1,\n 2,\n ]", "3:2: expected a value");
    expectParseError("{\"a\": \"x\\q\"}", "1:9: bad escape '\\q'");
    expectParseError("", "1:1: unexpected end of input");
}

TEST(JsonParse, RejectsWhatRfc8259Rejects)
{
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"{\"a\": 1, \"a\": 2}", "duplicate top-level key 'a'"},
        {"{\"o\": {\"a\": 1, \"a\": 2}}", "duplicate key 'a'"},
        {"{\"a\": 1} {\"b\": 2}", "trailing content"},
        {"{\"a\": 1} x", "trailing content"},
        {"01", "trailing content"},
        {"[1, 2,]", "expected a value"},
        {"{\"a\": 1,}", "expected a member name string"},
        {"{'a': 1}", "expected a member name string"},
        {"[1 2]", "expected ',' or ']'"},
        {"{\"a\" 1}", "expected ':'"},
        {"[-]", "malformed number"},
        {"[1.]", "malformed number"},
        {"[1e]", "malformed number"},
        {"[.5]", "expected a value"},
        {"[+1]", "expected a value"},
        {"[NaN]", "expected a value"},
        {"[nul]", "expected a value"},
        {"\"tab\there\"", "raw control character"},
        {"\"open", "unterminated string"},
        {"\"\\u00g0\"", "bad \\u escape"},
        {"\"\\ud800\"", "unpaired surrogate"},
        {"\"\\udc00\"", "unpaired surrogate"},
        {std::string(300, '['), "nesting deeper than"},
    };
    for (const auto &[doc, want] : bad)
        expectParseError(doc, want);
}

TEST(JsonParse, KeepsMemberOrderSpansAndRawTokens)
{
    const std::string text =
        "{\"z\": 1.50, \"a\": [true, null, -0, 1e+20],\n"
        " \"m\": {\"k\": \"v\\n\"}}";
    const Value v = json::parse(text);
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.keys, (std::vector<std::string>{"z", "a", "m"}));
    EXPECT_EQ(v.find("z")->text, "1.50");
    EXPECT_DOUBLE_EQ(json::getNum(v, "z", 0), 1.5);
    const Value &arr = *json::getArray(v, "a");
    ASSERT_EQ(arr.items.size(), 4u);
    EXPECT_EQ(arr.items[0].type, Value::Type::Bool);
    EXPECT_EQ(arr.items[1].type, Value::Type::Null);
    EXPECT_EQ(arr.items[2].text, "-0");
    EXPECT_EQ(arr.items[3].text, "1e+20");
    EXPECT_EQ(json::slice(text, arr), "[true, null, -0, 1e+20]");
    EXPECT_EQ(json::slice(text, *json::getObject(v, "m")),
              "{\"k\": \"v\\n\"}");
    EXPECT_EQ(json::slice(text, v), text);
    EXPECT_EQ(json::getStr(*v.find("m"), "k"), "v\n");
    // A surrogate pair decodes to one four-byte UTF-8 sequence.
    EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").text, "\xf0\x9f\x98\x80");
}

TEST(JsonParse, ArrayErrorsNameTheElement)
{
    try {
        json::parse("[\"addi\", 1, one, -1, 4]");
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.element, 2u);
    }
    try {
        json::parse("{\"a\": tru}");
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.element, std::string::npos);
    }
}

TEST(JsonParse, AccessorsLookOnlyAtOwnMembersAndCheckTypes)
{
    const Value v = json::parse(
        "{\"n\": 7, \"s\": \"x\", \"neg\": -1, \"frac\": 2.5, "
        "\"inner\": {\"deep\": 1}}");
    EXPECT_EQ(json::getU64(v, "n", 0), 7u);
    EXPECT_EQ(json::getU64(v, "deep", 42), 42u);   // nested: absent
    EXPECT_EQ(json::getStr(v, "missing", "def"), "def");
    EXPECT_THROW(json::getU64(v, "s", 0), JsonError);
    EXPECT_THROW(json::getU64(v, "neg", 0), JsonError);
    EXPECT_THROW(json::getU64(v, "frac", 0), JsonError);
    EXPECT_THROW(json::getStr(v, "n"), JsonError);
    EXPECT_THROW(json::getBool(v, "n", false), JsonError);
    EXPECT_THROW(json::getArray(v, "inner"), JsonError);
    EXPECT_THROW(json::getObject(v, "n"), JsonError);
    EXPECT_THROW(json::getU64(json::parse("[1]"), "n", 0), JsonError);
}

// ---- reader defects of the substring helpers -------------------------------

/** True when @p read throws: a present-but-malformed value. */
bool
throwsOnRead(const std::function<void()> &read)
{
    try {
        read();
    } catch (const JsonError &) {
        return true;
    } catch (const SpecError &) {
        return true;
    }
    return false;
}

/** A verify report whose one repro is @p body. */
std::string
reproDoc(const std::string &body)
{
    return "{\"verify\": {\"repros\": [{" + body + "}]}}";
}

TEST(JsonReaders, DefectsOfTheSubstringHelpers)
{
    // Rule: an absent key gives the default; a present key with the
    // wrong type, or a malformed value, throws.
    const std::vector<std::pair<const char *, std::function<bool()>>>
        cases = {
        {"a nested machine object before kind/predictor is not read as "
         "the repro's own",
         [] {
             const auto r = verify::parseRepros(reproDoc(
                 "\"machine\": " +
                 specToJson(nspConfig(16, PredictorKind::Tage)) +
                 ", \"kind\": \"stream\", \"seed\": 1, "
                 "\"predictor\": \"gshare\""));
             return r.size() == 1 && r[0].kind == "stream" &&
                    r[0].predictor == "gshare";
         }},
        {"whitespace before the colon still finds the key",
         [] {
             const auto r = verify::parseRepros(
                 reproDoc("\"kind\" : \"stream\", \"seed\" : 3"));
             return r.size() == 1 && r[0].kind == "stream" &&
                    r[0].seed == 3;
         }},
        {"a numeric stream_hash throws instead of hashing as 0",
         [] {
             return throwsOnRead([] {
                 verify::outcomeFromJson("{\"stream_hash\": 12345}");
             });
         }},
        {"signed and quoted bank_stall_cycles entries throw",
         [] {
             return throwsOnRead([] {
                 driver::simResultFromJson(
                     "{\"bank_stall_cycles\": [7, -2, \"x9\", 4]}");
             });
         }},
        {"a misspelt boolean throws instead of reading false",
         [] {
             return throwsOnRead([] {
                 verify::outcomeFromJson("{\"skipped\": tru}");
             });
         }},
        {"a key that exists only in a nested object reads as absent",
         [] {
             const RunResult r = driver::simResultFromJson(
                 "{\"workload\": \"w\", \"extra\": {\"cycles\": 99}}");
             return r.cycles == 0 && r.workload == "w";
         }},
        {"a program pretty-printed one token per line parses",
         [] {
             const Program p = verify::programFromJson(
                 "{\n  \"mem_words\": 64,\n  \"code\": [\n    [\n"
                 "      \"addi\",\n      1,\n      1,\n      -1,\n"
                 "      4\n    ],\n    [\n      \"halt\",\n      -1,\n"
                 "      -1,\n      -1,\n      0\n    ]\n  ]\n}\n");
             return p.code.size() == 2 && p.code[0].imm == 4 &&
                    p.code[0].rd == 1 && p.memWords == 64;
         }},
    };
    for (const auto &[what, holds] : cases)
        EXPECT_TRUE(holds()) << what;
}

// Every codec reads its own writer's output with the keys of every
// object reversed and one member per line.
TEST(JsonReaders, KeyOrderAndLayoutDoNotMatter)
{
    MachineConfig m = nspConfig(24, PredictorKind::Tage);
    m.core.lcsLatency = 3;
    m.name = "custom \"24sp\"";
    const MachineConfig back =
        specFromJson(reversedKeys(specToJson(m)), PredictorKind::Gshare);
    EXPECT_TRUE(sameSpec(back, m));
    EXPECT_EQ(back.name, m.name);

    RunResult r;
    r.workload = "gzip";
    r.cycles = 1234;
    r.bankStallCycles[5] = 77;
    const RunResult rb = driver::simResultFromJson(
        reversedKeys(driver::simResultToJson(r)));
    EXPECT_EQ(rb.cycles, r.cycles);
    EXPECT_EQ(rb.bankStallCycles, r.bankStallCycles);

    verify::DiffOutcome o;
    o.mix = "mixed";
    o.streamHash = 0x0123456789abcdefull;
    o.divergences.push_back({"stream", "detail"});
    const verify::DiffOutcome ob = verify::outcomeFromJson(
        reversedKeys(verify::outcomeToJson(o)));
    EXPECT_EQ(ob.streamHash, o.streamHash);
    ASSERT_EQ(ob.divergences.size(), 1u);
    EXPECT_EQ(ob.divergences[0].kind, "stream");
}

} // anonymous namespace
} // namespace msp
