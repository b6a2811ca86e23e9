#include "verify/corpus.hh"

#include <algorithm>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "driver/report.hh"
#include "driver/state.hh"
#include "verify/report.hh"

namespace msp {
namespace verify {

namespace {

std::string
renderEntry(const CorpusEntry &e)
{
    return csprintf("{\"seed\": %llu, \"wave\": %llu, \"new_bits\": "
                    "%llu, \"coverage\": \"%s\", \"mix\": ",
                    static_cast<unsigned long long>(e.seed),
                    static_cast<unsigned long long>(e.wave),
                    static_cast<unsigned long long>(e.newBits),
                    e.coverage.toHex().c_str()) +
           mixToJson(e.mix) + "}\n";
}

} // anonymous namespace

bool
Corpus::load(const std::string &path)
{
    std::string content;
    if (!driver::tryReadFile(path, content))
        return false;   // no file yet: a fresh corpus, not an error

    // Header: a garbled version token is just as much "not a corpus"
    // as a missing one; a shape mismatch means the bitmap layout of
    // this build cannot interpret the stored maps.
    const auto header = [&](const std::string &line) {
        std::uint64_t version = 0;
        std::uint64_t features = 0;
        std::uint64_t buckets = 0;
        try {
            const json::Value head = json::parse(line);
            version = json::getU64(head, "msp_corpus", 0);
            features = json::getU64(head, "features", 0);
            buckets = json::getU64(head, "buckets", 0);
        } catch (const json::JsonError &) {}
        if (version != 1)
            throw driver::CheckpointError(path + " is not a corpus file");
        if (features != CoverageMap::numFeatures ||
            buckets != CoverageMap::numBuckets) {
            throw driver::CheckpointError(csprintf(
                "corpus %s has coverage shape %llu x %llu, this build "
                "uses %u x %u", path.c_str(),
                static_cast<unsigned long long>(features),
                static_cast<unsigned long long>(buckets),
                CoverageMap::numFeatures, CoverageMap::numBuckets));
        }
    };
    const auto record = [&](const std::string &line) {
        const json::Value rec = json::parse(line);
        CorpusEntry e;
        e.seed = json::getU64(rec, "seed", ~std::uint64_t{0});
        e.wave = json::getU64(rec, "wave", 0);
        e.newBits = json::getU64(rec, "new_bits", 0);
        const std::string cov = json::getStr(rec, "coverage");
        const json::Value *mix = json::getObject(rec, "mix");
        if (e.seed == ~std::uint64_t{0} || cov.empty() || !mix)
            return false;
        e.coverage = CoverageMap::fromHex(cov);
        e.mix = mixFromJson(*mix);
        agg.orWith(e.coverage);
        list.push_back(std::move(e));
        return true;
    };
    torn = driver::readTornTailJsonl(content, "corpus", path, header,
                                     record);
    return true;
}

void
Corpus::save(const std::string &path) const
{
    std::string content = csprintf(
        "{\"msp_corpus\": 1, \"features\": %u, \"buckets\": %u, "
        "\"entries\": %zu}\n",
        CoverageMap::numFeatures, CoverageMap::numBuckets, list.size());
    for (const CorpusEntry &e : list)
        content += renderEntry(e);
    driver::writeFile(path, content);
}

bool
Corpus::consider(const FuzzMix &mix, std::uint64_t seed,
                 std::uint64_t wave, const CoverageMap &cov)
{
    const std::size_t fresh = cov.newBitsVs(agg);
    if (fresh == 0)
        return false;
    agg.orWith(cov);
    CorpusEntry e;
    e.mix = mix;
    e.seed = seed;
    e.wave = wave;
    e.newBits = fresh;
    e.coverage = cov;
    list.push_back(std::move(e));
    return true;
}

std::vector<FuzzMix>
tuneMixes(const std::vector<FuzzMix> &base, const CoverageMap &aggregate,
          unsigned wave, std::uint64_t seed)
{
    // How empty each knob family's feature group still is, in [0, 1].
    // The boost for a family scales with its hole: a fully covered
    // group leaves its knobs (almost) alone, an untouched one nearly
    // doubles the pressure on it.
    const double stallHole =
        1.0 - groupHitFraction(aggregate, FeatureGroup::Stall);
    const double predHole =
        1.0 - groupHitFraction(aggregate, FeatureGroup::Pred);
    const double squashHole =
        1.0 - groupHitFraction(aggregate, FeatureGroup::Squash);
    const double sqHole =
        1.0 - groupHitFraction(aggregate, FeatureGroup::Sq);
    const double sctHole =
        1.0 - groupHitFraction(aggregate, FeatureGroup::Sct);

    const auto clampP = [](double v, double hi) {
        return std::min(std::max(v, 0.0), hi);
    };
    const auto clampW = [](double v) {
        return std::min(std::max(v, 0.05), 8.0);
    };

    std::vector<FuzzMix> out;
    out.reserve(base.size());
    for (std::size_t mi = 0; mi < base.size(); ++mi) {
        // One private stream per (wave, mix): purely a function of the
        // arguments, so the tuned sweep is reproducible anywhere.
        Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                        (static_cast<std::uint64_t>(wave) * 8191 +
                         mi + 1)));
        const auto boost = [&](double hole) {
            return 1.0 + hole * (0.9 + 0.2 * rng.toDouble());
        };

        FuzzMix t = base[mi];
        t.name = csprintf("%s~w%u", t.name.c_str(), wave);

        // Predictor edges missing: denser, harder control flow.
        t.condProb = clampP(t.condProb * boost(predHole), 0.9);
        t.indirectProb = clampP(t.indirectProb * boost(predHole), 1.0);
        t.callProb = clampP(t.callProb * boost(predHole), 0.5);

        // Squash depths / exception paths missing: deeper loop nests,
        // more TRAPs to take.
        t.loopProb = clampP(t.loopProb * boost(squashHole), 0.8);
        t.trapProb = clampP(t.trapProb * boost(squashHole), 0.05);

        // SQ forwarding / alias cases missing: more memory traffic on
        // a *smaller* hot region.
        t.weights.load = clampW(t.weights.load * boost(sqHole));
        t.weights.store = clampW(t.weights.store * boost(sqHole));
        t.hotProb = clampP(t.hotProb * boost(sqHole), 0.95);
        t.hotWords = std::max(
            1u, static_cast<unsigned>(t.hotWords / boost(sqHole)));

        // Stall transitions / SCT activity missing: longer segments
        // and more value-producing work to pressure every queue.
        t.weights.fp =
            clampW(t.weights.fp * boost(std::max(stallHole, sctHole)));
        t.segMax = std::max(
            t.segMin,
            std::min(32u,
                     static_cast<unsigned>(t.segMax * boost(stallHole))));
        if (t.memWords < t.hotWords)
            t.memWords = t.hotWords;
        out.push_back(std::move(t));
    }
    return out;
}

std::uint64_t
programShapeHash(const Program &p)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Instruction &in : p.code) {
        h ^= static_cast<unsigned char>(in.op);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
dedupKey(const ShrinkResult &s)
{
    std::string key = s.repro.kind + "|";
    key += csprintf("%llu|", static_cast<unsigned long long>(
                                 s.repro.firstBadCommit));
    key += s.repro.program
               ? csprintf("%016llx",
                          static_cast<unsigned long long>(
                              programShapeHash(*s.repro.program)))
               : "-";
    return key;
}

std::size_t
dedupShrinks(std::vector<ShrinkResult> &shrinks)
{
    // shrinkFailures returns results in submission order, so the first
    // occurrence of a key is the lowest-jobIndex representative.
    std::map<std::string, std::size_t> firstOf;
    std::vector<ShrinkResult> kept;
    kept.reserve(shrinks.size());
    for (ShrinkResult &s : shrinks) {
        const std::string key = dedupKey(s);
        const auto it = firstOf.find(key);
        if (it == firstOf.end()) {
            s.duplicates = 1;
            firstOf.emplace(key, kept.size());
            kept.push_back(std::move(s));
        } else {
            ++kept[it->second].duplicates;
        }
    }
    const std::size_t folded = shrinks.size() - kept.size();
    shrinks = std::move(kept);
    return folded;
}

} // namespace verify
} // namespace msp
