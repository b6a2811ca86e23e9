#include "verify/report.hh"

#include <memory>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/report.hh"
#include "sim/spec.hh"
#include "workload/trace.hh"

namespace msp {
namespace verify {

std::string
mixToJson(const FuzzMix &m)
{
    std::string out = "{";
    out += csprintf("\"name\": \"%s\", ",
                    driver::jsonEscape(m.name).c_str());
    out += csprintf("\"alu\": %.17g, \"fp\": %.17g, \"load\": %.17g, "
                    "\"store\": %.17g, ",
                    m.weights.alu, m.weights.fp, m.weights.load,
                    m.weights.store);
    out += csprintf("\"blocks_min\": %u, \"blocks_max\": %u, "
                    "\"seg_min\": %u, \"seg_max\": %u, ",
                    m.blocksMin, m.blocksMax, m.segMin, m.segMax);
    out += csprintf("\"loop_prob\": %.17g, \"max_loop_depth\": %u, "
                    "\"trip_min\": %u, \"trip_max\": %u, ",
                    m.loopProb, m.maxLoopDepth, m.tripMin, m.tripMax);
    out += csprintf("\"cond_prob\": %.17g, \"call_prob\": %.17g, "
                    "\"indirect_prob\": %.17g, \"trap_prob\": %.17g, ",
                    m.condProb, m.callProb, m.indirectProb, m.trapProb);
    out += csprintf("\"mem_words\": %u, \"hot_words\": %u, "
                    "\"hot_prob\": %.17g, \"fp_edge_prob\": %.17g, ",
                    m.memWords, m.hotWords, m.hotProb, m.fpEdgeProb);
    out += csprintf("\"target_dynamic\": %llu}",
                    static_cast<unsigned long long>(m.targetDynamic));
    return out;
}

FuzzMix
mixFromJson(const json::Value &obj)
{
    using json::getNum;
    using json::getU64;
    FuzzMix m;
    m.name = json::getStr(obj, "name", m.name);
    m.weights.alu = getNum(obj, "alu", m.weights.alu);
    m.weights.fp = getNum(obj, "fp", m.weights.fp);
    m.weights.load = getNum(obj, "load", m.weights.load);
    m.weights.store = getNum(obj, "store", m.weights.store);
    m.blocksMin = static_cast<unsigned>(
        getU64(obj, "blocks_min", m.blocksMin));
    m.blocksMax = static_cast<unsigned>(
        getU64(obj, "blocks_max", m.blocksMax));
    m.segMin = static_cast<unsigned>(getU64(obj, "seg_min", m.segMin));
    m.segMax = static_cast<unsigned>(getU64(obj, "seg_max", m.segMax));
    m.loopProb = getNum(obj, "loop_prob", m.loopProb);
    m.maxLoopDepth = static_cast<unsigned>(
        getU64(obj, "max_loop_depth", m.maxLoopDepth));
    m.tripMin = static_cast<unsigned>(getU64(obj, "trip_min", m.tripMin));
    m.tripMax = static_cast<unsigned>(getU64(obj, "trip_max", m.tripMax));
    m.condProb = getNum(obj, "cond_prob", m.condProb);
    m.callProb = getNum(obj, "call_prob", m.callProb);
    m.indirectProb = getNum(obj, "indirect_prob", m.indirectProb);
    m.trapProb = getNum(obj, "trap_prob", m.trapProb);
    m.memWords = static_cast<unsigned>(
        getU64(obj, "mem_words", m.memWords));
    m.hotWords = static_cast<unsigned>(
        getU64(obj, "hot_words", m.hotWords));
    m.hotProb = getNum(obj, "hot_prob", m.hotProb);
    m.fpEdgeProb = getNum(obj, "fp_edge_prob", m.fpEdgeProb);
    m.targetDynamic = getU64(obj, "target_dynamic", m.targetDynamic);
    return m;
}

std::string
programToJson(const Program &prog)
{
    std::string out = "{";
    out += csprintf("\"name\": \"%s\", ",
                    driver::jsonEscape(prog.name).c_str());
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
    out += "], \"code\": [";
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const Instruction &in = prog.code[i];
        out += csprintf("%s[\"%s\", %d, %d, %d, %lld]",
                        i ? ", " : "", opName(in.op),
                        static_cast<int>(in.rd),
                        static_cast<int>(in.rs1),
                        static_cast<int>(in.rs2),
                        static_cast<long long>(in.imm));
    }
    out += "]}";
    return out;
}

Program
programFromJson(const json::Value &obj)
{
    Program prog = trace::imageFromJson(obj);
    const json::Value *code = json::getArray(obj, "code");
    if (!code)
        throw json::JsonError("embedded program carries no code array");
    for (const json::Value &tuple : code->items)
        prog.code.push_back(trace::instructionFromJson(tuple));
    if (prog.code.empty())
        throw json::JsonError("embedded program code array is empty");
    return prog;
}

Program
programFromJson(const std::string &json)
{
    try {
        return programFromJson(json::parse(json));
    } catch (const json::JsonError &e) {
        throw SpecError(std::string("embedded program: ") + e.what());
    }
}

std::size_t
countDivergences(const std::vector<DiffOutcome> &outcomes)
{
    std::size_t n = 0;
    for (const DiffOutcome &o : outcomes)
        n += o.divergences.size();
    return n;
}

std::size_t
countSkipped(const std::vector<DiffOutcome> &outcomes)
{
    std::size_t n = 0;
    for (const DiffOutcome &o : outcomes)
        n += o.skipped ? 1 : 0;
    return n;
}

std::string
toJson(const std::vector<DiffOutcome> &outcomes,
       const std::vector<ShrinkResult> &shrinks,
       const CoverageReport &coverage)
{
    using driver::jsonEscape;

    std::size_t divergent = 0;
    for (const DiffOutcome &o : outcomes)
        divergent += o.ok() ? 0 : 1;
    std::size_t shrinkTimedOut = 0;
    for (const ShrinkResult &s : shrinks)
        shrinkTimedOut += s.timedOut ? 1 : 0;

    std::string out = "{\n  \"verify\": {\n";
    out += csprintf("    \"jobs\": %zu,\n", outcomes.size());
    out += csprintf("    \"divergent\": %zu,\n", divergent);
    out += csprintf("    \"skipped\": %zu,\n", countSkipped(outcomes));
    if (shrinkTimedOut)
        out += csprintf("    \"shrink_timed_out\": %zu,\n",
                        shrinkTimedOut);
    if (coverage.enabled) {
        out += csprintf("    \"coverage\": {\"features\": %u, "
                        "\"buckets\": %u, \"features_hit\": %llu, "
                        "\"bits_set\": %llu, \"novel_runs\": %llu, "
                        "\"corpus_entries\": %llu, \"waves\": %u, "
                        "\"wave_bits\": [",
                        CoverageMap::numFeatures, CoverageMap::numBuckets,
                        static_cast<unsigned long long>(
                            coverage.featuresHit),
                        static_cast<unsigned long long>(coverage.bitsSet),
                        static_cast<unsigned long long>(
                            coverage.novelRuns),
                        static_cast<unsigned long long>(
                            coverage.corpusEntries),
                        coverage.waves);
        for (std::size_t w = 0; w < coverage.waveBits.size(); ++w) {
            out += csprintf("%s%llu", w ? ", " : "",
                            static_cast<unsigned long long>(
                                coverage.waveBits[w]));
        }
        out += "]},\n";
    }
    out += "    \"results\": [";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const DiffOutcome &o = outcomes[i];
        out += i ? ",\n      {" : "\n      {";
        // The global submission index leads every row: it is the merge
        // key driver::mergeReports orders shard rows by.
        out += csprintf("\"index\": %llu, ",
                        static_cast<unsigned long long>(o.index));
        out += csprintf("\"mix\": \"%s\", ", jsonEscape(o.mix).c_str());
        out += csprintf("\"seed\": %llu, ",
                        static_cast<unsigned long long>(o.seed));
        out += csprintf("\"config\": \"%s\", ",
                        jsonEscape(o.config).c_str());
        out += csprintf("\"workload\": \"%s\", ",
                        jsonEscape(o.workload).c_str());
        if (o.skipped)
            out += "\"skipped\": true, ";
        out += csprintf("\"committed_core\": %llu, ",
                        static_cast<unsigned long long>(o.committedCore));
        out += csprintf("\"committed_ref\": %llu, ",
                        static_cast<unsigned long long>(o.committedRef));
        out += csprintf("\"cycles\": %llu, ",
                        static_cast<unsigned long long>(o.cycles));
        out += csprintf("\"stream_hash\": \"%016llx\", ",
                        static_cast<unsigned long long>(o.streamHash));
        if (o.snapshotEvery) {
            out += csprintf("\"snapshot_every\": %llu, ",
                            static_cast<unsigned long long>(
                                o.snapshotEvery));
        }
        // Localisation fields only when localisation actually ran and
        // fired: a meaningless "bad_window": [0, 0) on a run without
        // snapshots would read as "divergent at commit 0".
        if (o.localized) {
            out += csprintf("\"bad_window\": [%llu, %llu], ",
                            static_cast<unsigned long long>(o.badWindowLo),
                            static_cast<unsigned long long>(
                                o.badWindowHi));
        }
        if (o.exactLocalized) {
            out += csprintf("\"first_bad_commit\": %llu, ",
                            static_cast<unsigned long long>(
                                o.firstBadCommit));
        }
        // Coverage only when harvested: a fixed {"hit": 0} on plain
        // runs would read as "this run touched nothing".
        if (o.hasCoverage) {
            out += csprintf("\"coverage\": {\"hit\": %zu, "
                            "\"total\": %u, \"new_bits\": %llu, "
                            "\"novel\": %s}, ",
                            o.coverage.featuresHit(),
                            CoverageMap::numFeatures,
                            static_cast<unsigned long long>(o.covNewBits),
                            o.covNovel ? "true" : "false");
        }
        out += "\"divergences\": [";
        for (std::size_t d = 0; d < o.divergences.size(); ++d) {
            out += d ? ", {" : "{";
            out += csprintf("\"kind\": \"%s\", \"detail\": \"%s\"}",
                            jsonEscape(o.divergences[d].kind).c_str(),
                            jsonEscape(o.divergences[d].detail).c_str());
        }
        out += "]}";
    }
    out += "\n    ],\n";
    out += "    \"repros\": [";
    for (std::size_t i = 0; i < shrinks.size(); ++i) {
        const ShrinkResult &s = shrinks[i];
        out += i ? ",\n      {" : "\n      {";
        // Global index of the job this repro shrinks (jobIndex is the
        // campaign-local submission index; the outcome row carries the
        // sharded campaign's global one).
        out += csprintf("\"index\": %llu, ",
                        static_cast<unsigned long long>(
                            s.jobIndex < outcomes.size()
                                ? outcomes[s.jobIndex].index
                                : s.jobIndex));
        out += csprintf("\"kind\": \"%s\", ",
                        jsonEscape(s.repro.kind).c_str());
        out += csprintf("\"seed\": %llu, ",
                        static_cast<unsigned long long>(s.repro.seed));
        out += csprintf("\"preset\": \"%s\", ",
                        jsonEscape(s.repro.preset).c_str());
        out += csprintf("\"predictor\": \"%s\", ",
                        jsonEscape(s.repro.predictor).c_str());
        // The complete serialised spec (keys in registration order) is
        // the replay authority; preset/predictor above are cosmetic.
        if (s.repro.hasMachine)
            out += "\"machine\": " + specToJson(s.repro.machine) + ", ";
        out += csprintf("\"max_insts\": %llu, ",
                        static_cast<unsigned long long>(
                            s.repro.maxInsts));
        // Omitted when localisation was off: an explicit 0 invites
        // "replay with cadence 0" readings and stale-field drift.
        if (s.repro.snapshotEvery) {
            out += csprintf("\"snapshot_every\": %llu, ",
                            static_cast<unsigned long long>(
                                s.repro.snapshotEvery));
        }
        if (s.repro.firstBadCommit) {
            out += csprintf("\"first_bad_commit\": %llu, ",
                            static_cast<unsigned long long>(
                                s.repro.firstBadCommit));
        }
        if (s.timedOut)
            out += "\"timed_out\": true, ";
        // Only for actual folds: "duplicates": 1 on every repro would
        // just restate "this row exists".
        if (s.duplicates >= 2) {
            out += csprintf("\"duplicates\": %llu, ",
                            static_cast<unsigned long long>(
                                s.duplicates));
        }
        out += csprintf("\"reproduced\": %s, \"shrunk\": %s, ",
                        s.reproduced ? "true" : "false",
                        s.shrunk ? "true" : "false");
        out += csprintf("\"attempts\": %u, ", s.attempts);
        out += csprintf("\"orig_dynamic\": %llu, "
                        "\"shrunk_dynamic\": %llu, ",
                        static_cast<unsigned long long>(s.origDynamic),
                        static_cast<unsigned long long>(s.shrunkDynamic));
        out += csprintf("\"orig_static\": %llu, "
                        "\"shrunk_static\": %llu, ",
                        static_cast<unsigned long long>(s.origStatic),
                        static_cast<unsigned long long>(s.shrunkStatic));
        if (s.reduced) {
            out += csprintf("\"reduced\": true, "
                            "\"reduced_static\": %llu, "
                            "\"reduced_dynamic\": %llu, ",
                            static_cast<unsigned long long>(
                                s.reducedStatic),
                            static_cast<unsigned long long>(
                                s.reducedDynamic));
        }
        // The structurally reduced image replays bit-identically even
        // though no (seed, mix) pair can regenerate it.
        if (s.repro.program)
            out += "\"program\": " + programToJson(*s.repro.program) +
                   ", ";
        out += "\"mix\": " + mixToJson(s.repro.mix) + "}";
    }
    out += "\n    ]\n  }\n}\n";
    return out;
}

std::string
outcomeToJson(const DiffOutcome &o)
{
    using driver::jsonEscape;
    const auto u64 = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    // Every field is emitted unconditionally — a checkpoint payload is
    // a machine artefact, and a fixed shape keeps the round trip (and
    // its test) total rather than schema-dependent.
    std::string out = "{";
    out += csprintf("\"mix\": \"%s\", ", jsonEscape(o.mix).c_str());
    out += csprintf("\"seed\": %llu, ", u64(o.seed));
    out += csprintf("\"config\": \"%s\", ", jsonEscape(o.config).c_str());
    out += csprintf("\"workload\": \"%s\", ",
                    jsonEscape(o.workload).c_str());
    out += csprintf("\"committed_core\": %llu, ", u64(o.committedCore));
    out += csprintf("\"committed_ref\": %llu, ", u64(o.committedRef));
    out += csprintf("\"cycles\": %llu, ", u64(o.cycles));
    out += csprintf("\"stream_hash\": \"%016llx\", ", u64(o.streamHash));
    out += csprintf("\"skipped\": %s, ", o.skipped ? "true" : "false");
    out += csprintf("\"snapshot_every\": %llu, ", u64(o.snapshotEvery));
    out += csprintf("\"localized\": %s, ", o.localized ? "true" : "false");
    out += csprintf("\"bad_window_lo\": %llu, ", u64(o.badWindowLo));
    out += csprintf("\"bad_window_hi\": %llu, ", u64(o.badWindowHi));
    out += csprintf("\"exact_localized\": %s, ",
                    o.exactLocalized ? "true" : "false");
    out += csprintf("\"first_bad_commit\": %llu, ",
                    u64(o.firstBadCommit));
    // Novelty (covNovel/covNewBits) is deliberately not persisted: it
    // is relative to the corpus, which the campaign recomputes in
    // submission order on every run.
    out += csprintf("\"has_coverage\": %s, ",
                    o.hasCoverage ? "true" : "false");
    out += csprintf("\"coverage\": \"%s\", ", o.coverage.toHex().c_str());
    out += "\"divergences\": [";
    for (std::size_t d = 0; d < o.divergences.size(); ++d) {
        out += d ? ", {" : "{";
        out += csprintf("\"kind\": \"%s\", \"detail\": \"%s\"}",
                        jsonEscape(o.divergences[d].kind).c_str(),
                        jsonEscape(o.divergences[d].detail).c_str());
    }
    out += "]}";
    return out;
}

DiffOutcome
outcomeFromJson(const std::string &json)
{
    using json::getStr;
    using json::getU64;
    const json::Value doc = json::parse(json);
    DiffOutcome o;
    o.mix = getStr(doc, "mix");
    o.seed = getU64(doc, "seed", 0);
    o.config = getStr(doc, "config");
    o.workload = getStr(doc, "workload");
    o.committedCore = getU64(doc, "committed_core", 0);
    o.committedRef = getU64(doc, "committed_ref", 0);
    o.cycles = getU64(doc, "cycles", 0);
    // The writer always emits stream_hash as 16 hex digits; decoding
    // garbage as 0 here would make a corrupt repro "replay clean"
    // (hash comparisons against 0 on both sides).
    const std::string hash = getStr(doc, "stream_hash");
    if (!hash.empty()) {
        const parse::Status st = parse::hexU64(hash, o.streamHash);
        if (st != parse::Status::Ok || hash.size() != 16) {
            throw SpecError(csprintf(
                "malformed stream_hash '%s' (want 16 hex digits)",
                hash.c_str()));
        }
    }
    o.skipped = json::getBool(doc, "skipped", false);
    o.snapshotEvery = getU64(doc, "snapshot_every", 0);
    o.localized = json::getBool(doc, "localized", false);
    o.badWindowLo = getU64(doc, "bad_window_lo", 0);
    o.badWindowHi = getU64(doc, "bad_window_hi", 0);
    o.exactLocalized = json::getBool(doc, "exact_localized", false);
    o.firstBadCommit = getU64(doc, "first_bad_commit", 0);
    // Same no-silent-garbage rule as stream_hash: a malformed bitmap
    // must throw (json::JsonError from fromHex), never decode as "this
    // run covered nothing" — that would poison the corpus aggregate.
    o.hasCoverage = json::getBool(doc, "has_coverage", false);
    const std::string cov = getStr(doc, "coverage");
    if (!cov.empty())
        o.coverage = CoverageMap::fromHex(cov);
    else if (o.hasCoverage)
        throw json::JsonError(
            "outcome has_coverage set without a coverage bitmap");
    if (const json::Value *divs = json::getArray(doc, "divergences")) {
        for (const json::Value &d : divs->items) {
            o.divergences.push_back(
                Divergence{getStr(d, "kind"), getStr(d, "detail")});
        }
    }
    return o;
}

std::vector<ReproSpec>
parseRepros(const std::string &text)
{
    std::vector<ReproSpec> specs;
    // An empty file is no document at all, so it carries no repros.
    if (text.find_first_not_of(" \t\r\n") == std::string::npos)
        return specs;
    try {
        const json::Value doc = json::parse(text);
        const json::Value *verify =
            doc.isObject() ? json::getObject(doc, "verify") : nullptr;
        const json::Value *repros =
            verify ? json::getArray(*verify, "repros") : nullptr;
        if (!repros)
            return specs;
        for (const json::Value &obj : repros->items) {
            ReproSpec spec;
            spec.kind = json::getStr(obj, "kind");
            spec.seed = json::getU64(obj, "seed", 1);
            spec.preset = json::getStr(obj, "preset");
            spec.predictor = json::getStr(obj, "predictor", "gshare");
            spec.maxInsts = json::getU64(obj, "max_insts", 1u << 20);
            // Optional triage fields: absent means the corresponding
            // stage was off (no cadence, no exact bisection).
            spec.snapshotEvery = json::getU64(obj, "snapshot_every", 0);
            spec.firstBadCommit = json::getU64(obj, "first_bad_commit", 0);
            // The full machine spec wins over the cosmetic preset
            // name. An unparseable or unbuildable spec propagates as
            // SpecError — a repro that silently fell back to a preset
            // could replay a different machine and lie about the
            // divergence.
            if (const json::Value *m = json::getObject(obj, "machine")) {
                spec.machine = specFromJson(*m, PredictorKind::Gshare);
                checkSpec(spec.machine);
                spec.hasMachine = true;
            }
            if (const json::Value *mix = json::getObject(obj, "mix"))
                spec.mix = mixFromJson(*mix);
            // A structurally reduced image is the program authority:
            // like the machine spec, it must parse or fail loudly —
            // regenerating from (seed, mix) instead would replay a
            // different program.
            if (const json::Value *prog = json::getObject(obj, "program"))
                spec.program =
                    std::make_shared<Program>(programFromJson(*prog));
            specs.push_back(std::move(spec));
        }
    } catch (const json::JsonError &e) {
        throw SpecError(std::string("repro document: ") + e.what());
    }
    return specs;
}

} // namespace verify
} // namespace msp
