#include "workload/trace.hh"

#include <cerrno>
#include <cstdlib>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/report.hh"
#include "isa/opcodes.hh"

namespace msp {
namespace trace {

const char *const formatId = "msp-trace-v1";

namespace {

/** Opcode whose mnemonic is @p name; false when unknown. */
bool
opcodeByName(const std::string &name, Opcode &out)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        if (name == opName(static_cast<Opcode>(i))) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

[[noreturn]] void
fail(std::size_t line, const std::string &what)
{
    throw TraceError(csprintf("trace line %zu: %s", line, what.c_str()));
}

/** Strip an optional trailing '\r' and surrounding spaces. */
std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' ||
                     s[e - 1] == '\r')) {
        --e;
    }
    return s.substr(b, e - b);
}

} // anonymous namespace

Program
imageFromJson(const json::Value &obj)
{
    Program prog;
    prog.name = json::getStr(obj, "name");
    prog.memWords = static_cast<std::size_t>(
        json::getU64(obj, "mem_words", prog.memWords));
    prog.entry = json::getU64(obj, "entry", 0);
    prog.codeBase = json::getU64(obj, "code_base", prog.codeBase);
    if (prog.memWords == 0 || (prog.memWords & (prog.memWords - 1)) != 0) {
        throw json::JsonError(csprintf("mem_words %zu is not a power of "
                                       "two", prog.memWords));
    }
    // Geometry must fail here, not as a bad_alloc when ArchState
    // builds its page table (2^24 words is already 128 MiB once every
    // page is written).
    if (prog.memWords > (std::size_t{1} << 24)) {
        throw json::JsonError(csprintf("mem_words %zu is implausibly "
                                       "large", prog.memWords));
    }
    if (const json::Value *data = json::getArray(obj, "init_data")) {
        std::vector<std::uint64_t> init;
        init.reserve(data->items.size());
        for (const json::Value &w : data->items) {
            const std::string &hex = json::asStr(w, "init_data word");
            std::uint64_t word = 0;
            if (parse::hexU64(hex, word) != parse::Status::Ok) {
                throw json::JsonError("non-hexadecimal init_data word '" +
                                      hex + "'");
            }
            init.push_back(word);
        }
        prog.initData = std::move(init);
    }
    // ArchState maps initData onto a mem_words-sized memory: excess
    // words would have no page to live in.
    if (prog.initData.size() > prog.memWords) {
        throw json::JsonError(csprintf("init_data (%zu words) exceeds "
                                       "mem_words (%zu)",
                                       prog.initData.size(),
                                       prog.memWords));
    }
    return prog;
}

Instruction
instructionFromJson(const json::Value &tuple)
{
    if (!tuple.isArray() || tuple.items.empty() ||
        tuple.items[0].type != json::Value::Type::String) {
        throw json::JsonError("instruction record is not a "
                              "[\"mnemonic\", rd, rs1, rs2, imm] tuple");
    }
    const std::string &mn = tuple.items[0].text;
    Instruction in;
    if (!opcodeByName(mn, in.op))
        throw json::JsonError("unknown opcode mnemonic '" + mn + "'");
    const std::size_t operands = tuple.items.size() - 1;
    if (operands < 4) {
        // Name the operand the tuple closes after, if any.
        throw json::JsonError(
            operands == 0
                ? std::string("instruction record has fewer than 4 "
                              "operands")
                : csprintf("malformed operand %zu: instruction record has "
                           "fewer than 4 operands", operands));
    }
    if (operands > 4)
        throw json::JsonError("instruction record has more than 4 operands");
    std::int64_t v[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
        const json::Value &op = tuple.items[i + 1];
        if (op.type != json::Value::Type::Number)
            throw json::JsonError(csprintf("non-numeric operand %d", i + 1));
        // Whole-token integers only: "1.5" or "1e3" must not truncate
        // and replay a different program.
        errno = 0;
        char *end = nullptr;
        v[i] = std::strtoll(op.text.c_str(), &end, 10);
        if (errno == ERANGE)
            throw json::JsonError(csprintf("operand %d overflows 64 bits",
                                           i + 1));
        if (end != op.text.c_str() + op.text.size())
            throw json::JsonError(csprintf("malformed operand %d", i + 1));
    }
    // Operands must fail loudly, not narrow: an int8_t cast would wrap
    // ["add", 300, ...] to r44 and silently replay a different program.
    for (int i = 0; i < 3; ++i) {
        if (v[i] < -1 || v[i] >= numLogRegs / 2) {
            throw json::JsonError(csprintf("register operand %lld out of "
                                           "range [-1, %d]",
                                           static_cast<long long>(v[i]),
                                           numLogRegs / 2 - 1));
        }
    }
    in.rd = static_cast<std::int8_t>(v[0]);
    in.rs1 = static_cast<std::int8_t>(v[1]);
    in.rs2 = static_cast<std::int8_t>(v[2]);
    in.imm = v[3];
    return in;
}

std::string
toJsonl(const Program &prog)
{
    std::string out = "{";
    out += csprintf("\"format\": \"%s\", ", formatId);
    out += csprintf("\"name\": \"%s\", ",
                    json::escape(prog.name).c_str());
    out += csprintf("\"mem_words\": %zu, ", prog.memWords);
    out += csprintf("\"entry\": %llu, ",
                    static_cast<unsigned long long>(prog.entry));
    out += csprintf("\"code_base\": %llu, ",
                    static_cast<unsigned long long>(prog.codeBase));
    out += "\"init_data\": [";
    for (std::size_t i = 0; i < prog.initData.size(); ++i) {
        out += csprintf("%s\"%016llx\"", i ? ", " : "",
                        static_cast<unsigned long long>(
                            prog.initData[i]));
    }
    out += "]}\n";
    for (const Instruction &in : prog.code) {
        out += csprintf("[\"%s\", %d, %d, %d, %lld]\n", opName(in.op),
                        static_cast<int>(in.rd),
                        static_cast<int>(in.rs1),
                        static_cast<int>(in.rs2),
                        static_cast<long long>(in.imm));
    }
    return out;
}

Program
fromJsonl(const std::string &text)
{
    // Split into lines, keeping 1-based numbering for every error.
    std::vector<std::pair<std::size_t, std::string>> lines;
    {
        std::size_t start = 0, n = 1;
        while (start <= text.size()) {
            const std::size_t nl = text.find('\n', start);
            const std::string raw = text.substr(
                start, nl == std::string::npos ? std::string::npos
                                               : nl - start);
            const std::string t = trimmed(raw);
            if (!t.empty())
                lines.emplace_back(n, t);
            if (nl == std::string::npos)
                break;
            start = nl + 1;
            ++n;
        }
    }
    if (lines.empty())
        throw TraceError("trace line 1: empty trace (no header record)");

    const auto &[headerLine, header] = lines.front();
    if (header[0] != '{')
        fail(headerLine, "expected the header object on the first "
                         "non-empty line");
    Program prog;
    try {
        const json::Value head = json::parse(header);
        const std::string fmt = json::getStr(head, "format");
        if (fmt != formatId) {
            fail(headerLine, csprintf("unsupported format '%s' (want "
                                      "'%s')", fmt.c_str(), formatId));
        }
        prog = imageFromJson(head);
    } catch (const json::JsonError &e) {
        fail(headerLine, e.what());
    }
    if (prog.name.empty())
        prog.name = "trace";

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto &[line, record] = lines[i];
        if (record[0] != '[')
            fail(line, "expected an instruction tuple starting with '['");
        try {
            prog.code.push_back(instructionFromJson(json::parse(record)));
        } catch (const json::JsonError &e) {
            // A syntax error inside an operand names that operand.
            if (e.element >= 1 && e.element <= 4)
                fail(line, csprintf("non-numeric operand %zu (%s)",
                                    e.element, e.what()));
            fail(line, e.what());
        }
    }
    if (prog.code.empty()) {
        fail(headerLine + 1, "trace carries no instruction records");
    }
    if (prog.entry >= prog.code.size())
        fail(headerLine, csprintf("entry %llu is past the last "
                                  "instruction (%zu records)",
                                  static_cast<unsigned long long>(
                                      prog.entry),
                                  prog.code.size()));
    return prog;
}

Program
load(const std::string &path)
{
    std::string text;
    if (!driver::tryReadFile(path, text))
        throw TraceError("cannot read trace file " + path);
    try {
        return fromJsonl(text);
    } catch (const TraceError &e) {
        throw TraceError(path + ": " + e.what());
    }
}

} // namespace trace
} // namespace msp
