/**
 * @file
 * Structured JSON serialisation of differential-verification outcomes.
 *
 * The report carries every job (so a clean sweep is still auditable:
 * seeds, stream hashes, commit counts), the full divergence list of any
 * failing job — including the snapshot-localised commit window — and a
 * "repros" array of shrunk reproducers (seed + reduced fuzz mix +
 * machine preset) that parseRepros() reads back so
 * `msp_sim verify --repro <report>` can replay a failure verbatim.
 */

#ifndef MSPLIB_VERIFY_REPORT_HH
#define MSPLIB_VERIFY_REPORT_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "verify/oracle.hh"
#include "verify/shrink.hh"

namespace msp {
namespace verify {

/**
 * Campaign-level coverage summary for toJson (default: disabled, in
 * which case the report is byte-identical to the pre-coverage schema).
 */
struct CoverageReport
{
    bool enabled = false;           ///< emit the "coverage" object at all
    unsigned waves = 1;             ///< campaign waves run
    std::uint64_t featuresHit = 0;  ///< features with >=1 bucket hit
    std::uint64_t bitsSet = 0;      ///< aggregate (feature, bucket) bits
    std::uint64_t novelRuns = 0;    ///< runs admitted to the corpus
    std::uint64_t corpusEntries = 0;///< corpus size after this campaign

    /** Cumulative aggregate bits after each wave (strictly growing
     *  iff every wave reached something new). */
    std::vector<std::uint64_t> waveBits;
};

/**
 * Serialise outcomes (plus any shrink results) as one JSON document:
 * {"verify": {"jobs": N, "divergent": M, "skipped": K,
 *             "results": [...], "repros": [...]}}. With
 * @p coverage.enabled, a "coverage" summary object and per-row
 * "coverage" objects (features hit, new bits, novelty) are added, and
 * repros folded by dedupShrinks carry their "duplicates" count.
 */
std::string toJson(const std::vector<DiffOutcome> &outcomes,
                   const std::vector<ShrinkResult> &shrinks = {},
                   const CoverageReport &coverage = {});

/**
 * Parse the "verify"."repros" array back out of a toJson() document
 * (the `--repro` replay path). Any key order and formatting parses; a
 * document without a repros array (or an empty file) parses as empty,
 * and a malformed one throws SpecError. Each entry's
 * embedded "machine" spec (the replay authority — any machine replays,
 * preset or not) parses through sim/spec.hh; an unparseable spec — or
 * an unparseable embedded "program" image — throws SpecError rather
 * than silently falling back to something replayable-but-different.
 * Optional fields (snapshot_every, bad_window, first_bad_commit,
 * timed_out, program) may be absent; absence means "off"/"unknown".
 */
std::vector<ReproSpec> parseRepros(const std::string &json);

/**
 * Serialise one executable image as a self-contained JSON object
 * (name, geometry, init data as hex words, code as
 * ["mnemonic", rd, rs1, rs2, imm] tuples) — the "program" embedding of
 * structurally reduced reproducers, which cannot be regenerated from
 * (seed, mix).
 */
std::string programToJson(const Program &prog);

/**
 * Parse a programToJson() document back into a bit-identical image.
 * @throws SpecError naming the defect on malformed documents (unknown
 * mnemonic, missing code, non-power-of-two memory geometry).
 */
Program programFromJson(const std::string &json);

/**
 * programFromJson over a parsed object (the trace codec's image and
 * tuple readers plus the "code" array). @throws json::JsonError.
 */
Program programFromJson(const json::Value &obj);

/**
 * One FuzzMix as a flat JSON object (the schema the repro parser reads
 * back). Also the mix component of diffJobKey's identity string.
 */
std::string mixToJson(const FuzzMix &m);

/**
 * Read a mixToJson() object back into a FuzzMix (absent keys keep
 * their defaults). Shared by the repro parser and the corpus loader.
 * @throws json::JsonError on a mistyped or malformed field.
 */
FuzzMix mixFromJson(const json::Value &obj);

/**
 * Serialise / parse one DiffOutcome as a checkpoint payload
 * (driver::CampaignState). Integer counters, flags and escaped strings
 * only — the round trip is exact, so a report rendered from restored
 * outcomes is byte-identical to one rendered from fresh outcomes.
 * Pre-triage state only: "timing" divergences (applyTimingInvariant)
 * and exact bisection results (shrinkFailures) are recomputed on
 * resume, not persisted.
 */
std::string outcomeToJson(const DiffOutcome &o);
DiffOutcome outcomeFromJson(const std::string &json);

/** Total divergences across @p outcomes. */
std::size_t countDivergences(const std::vector<DiffOutcome> &outcomes);

/** Jobs skipped (fail-fast / budget) across @p outcomes. */
std::size_t countSkipped(const std::vector<DiffOutcome> &outcomes);

} // namespace verify
} // namespace msp

#endif // MSPLIB_VERIFY_REPORT_HH
