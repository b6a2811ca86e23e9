/**
 * @file
 * External trace ingestion: a JSONL program-image format so users can
 * bring their own instruction streams.
 *
 * A trace is one JSON record per line. The first line is a header
 * object carrying the image geometry; every following non-empty line
 * is one instruction tuple:
 *
 *   {"format": "msp-trace-v1", "name": "...", "mem_words": 65536,
 *    "entry": 0, "code_base": 67108864, "init_data": ["00..2a", ...]}
 *   ["li", 1, -1, -1, 0]
 *   ["addi", 1, 1, -1, 1]
 *   ["halt", -1, -1, -1, 0]
 *
 * The reader is strict: a malformed record throws TraceError naming
 * the 1-based line number, so a truncated or hand-edited trace can
 * never half-load as a different program. toJsonl()/fromJsonl() round
 * -trip every program bit-identically (tests/test_trace.cc).
 *
 * Traces plug into the workload registry as "trace:FILE" (see
 * workload/registry.hh) and into grid documents as the
 * "workload.trace" axis key (sim/grid.hh).
 */

#ifndef MSPLIB_WORKLOAD_TRACE_HH
#define MSPLIB_WORKLOAD_TRACE_HH

#include <stdexcept>
#include <string>

#include "common/json.hh"
#include "isa/program.hh"

namespace msp {
namespace trace {

/** A malformed trace document (message carries the line number). */
struct TraceError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The trace format identifier the header must carry. */
extern const char *const formatId;

/**
 * The program-image codec shared by traces and verify repros
 * (verify::programFromJson). Reads "name", "mem_words", "entry",
 * "code_base" and "init_data" (16-digit hex words) from @p obj into a
 * Program with no code. @throws json::JsonError when mem_words is not
 * a power of two or exceeds 2^24 words, an init_data word is not hex,
 * or init_data holds more words than mem_words.
 */
Program imageFromJson(const json::Value &obj);

/**
 * One ["mnemonic", rd, rs1, rs2, imm] tuple. @throws json::JsonError
 * on an unknown mnemonic, a missing or extra operand, an operand that
 * is not a whole decimal integer, or a register operand outside
 * [-1, numLogRegs / 2).
 */
Instruction instructionFromJson(const json::Value &tuple);

/** Serialise @p prog as trace JSONL (header line + one line/instr). */
std::string toJsonl(const Program &prog);

/**
 * Parse a trace document. @throws TraceError naming the offending
 * 1-based line on any malformed header field, instruction tuple,
 * out-of-range operand or bad geometry.
 */
Program fromJsonl(const std::string &text);

/**
 * Read and parse the trace at @p path. @throws TraceError naming the
 * path on I/O failure and "path:line" on parse errors.
 */
Program load(const std::string &path);

} // namespace trace
} // namespace msp

#endif // MSPLIB_WORKLOAD_TRACE_HH
