#include "driver/state.hh"

#include <atomic>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "driver/report.hh"

namespace msp {
namespace driver {

namespace {

std::atomic<bool> gCampaignStop{false};

std::string
renderRecord(std::uint64_t index, const std::string &key,
             const std::string &payload)
{
    return csprintf("{\"index\": %llu, \"key\": \"%s\", \"payload\": ",
                    static_cast<unsigned long long>(index),
                    json::escape(key).c_str()) +
           payload + "}\n";
}

} // anonymous namespace

std::string
stateHash(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return csprintf("%016llx", static_cast<unsigned long long>(h));
}

std::size_t
readTornTailJsonl(const std::string &content, const std::string &what,
                  const std::string &path,
                  const std::function<void(const std::string &)> &header,
                  const std::function<bool(const std::string &)> &record)
{
    // One complete line per entry; a missing trailing \n marks a tear.
    std::vector<std::string> lines;
    bool lastComplete = true;
    for (std::size_t start = 0; start < content.size();) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(content.substr(start));
            lastComplete = false;
            break;
        }
        if (nl > start)
            lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    if (lines.empty())
        throw CheckpointError(what + " " + path + " is empty");
    header(lines.front());

    for (std::size_t li = 1; li < lines.size(); ++li) {
        const bool isLast = li + 1 == lines.size();
        bool parsed = false;
        if (!isLast || lastComplete) {
            try {
                parsed = record(lines[li]);
            } catch (const json::JsonError &) {
                // A record torn mid-value is "not parsed"; whether that
                // is recoverable is the trailing-record test's call.
            }
        }
        if (parsed)
            continue;
        if (!isLast) {
            throw CheckpointError(csprintf(
                "%s %s is corrupt at record %zu (only a torn *trailing* "
                "record is recoverable)", what.c_str(), path.c_str(), li));
        }
        // Quarantine rather than silently discard: the torn bytes land
        // next to the file for post-mortems.
        writeFile(path + ".torn", lines[li] + "\n");
        return 1;
    }
    return 0;
}

std::vector<std::size_t>
shardSelect(std::size_t n, unsigned shard, unsigned shards)
{
    msp_assert(shards > 0 && shard < shards,
               "bad shard %u/%u", shard, shards);
    std::vector<std::size_t> out;
    for (std::size_t i = shard; i < n; i += shards)
        out.push_back(i);
    return out;
}

CampaignState::~CampaignState()
{
    finalFlush();
}

void
CampaignState::configure(const std::string &checkpointPath, unsigned n,
                         bool resumeRequested,
                         const std::string &resumeFrom)
{
    msp_assert(n >= 1, "checkpoint cadence must be >= 1");
    path = checkpointPath;
    every = n;
    resume = resumeRequested;
    resumePath = resumeFrom.empty() ? checkpointPath : resumeFrom;
}

void
CampaignState::begin(const std::string &campaignMode,
                     const std::vector<std::uint64_t> &indices,
                     const std::vector<std::string> &keys)
{
    if (!enabled())
        return;
    msp_assert(indices.size() == keys.size(),
               "indices/keys not parallel: %zu vs %zu", indices.size(),
               keys.size());

    mode = campaignMode;
    keyByIndex.clear();
    records.clear();
    pendingLines.clear();
    torn = 0;

    // The fingerprint covers every (global index, job key) pair in
    // submission order: a checkpoint only resumes the exact campaign
    // (same matrix, machines, seeds, budget — and same shard) that
    // wrote it.
    std::string identity = mode;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        identity += csprintf("|%llu:%s",
                             static_cast<unsigned long long>(indices[i]),
                             keys[i].c_str());
        keyByIndex[indices[i]] = keys[i];
    }
    fingerprint = stateHash(identity);

    if (resume) {
        std::string content;
        if (!tryReadFile(resumePath, content)) {
            throw CheckpointError("cannot read checkpoint " + resumePath);
        }
        // Header: must identify this exact campaign. A garbled
        // header (JsonError) is just as much "not a checkpoint" as a
        // missing version.
        const auto header = [&](const std::string &line) {
            std::uint64_t version = 0;
            std::string headMode, headFingerprint;
            try {
                const json::Value head = json::parse(line);
                version = json::getU64(head, "msp_checkpoint", 0);
                headMode = json::getStr(head, "mode");
                headFingerprint = json::getStr(head, "fingerprint");
            } catch (const json::JsonError &) {
                version = 0;
            }
            if (version != 1) {
                throw CheckpointError(resumePath +
                                      " is not a checkpoint file");
            }
            if (headMode != mode) {
                throw CheckpointError(csprintf(
                    "checkpoint %s was written by a '%s' campaign, not "
                    "'%s'", resumePath.c_str(), headMode.c_str(),
                    mode.c_str()));
            }
            if (headFingerprint != fingerprint) {
                throw CheckpointError(csprintf(
                    "checkpoint %s belongs to a different campaign "
                    "(fingerprint %s, this run is %s) — same command "
                    "line, machines, seeds and shard required to resume",
                    resumePath.c_str(), headFingerprint.c_str(),
                    fingerprint.c_str()));
            }
        };
        const auto record = [&](const std::string &line) {
            const json::Value rec = json::parse(line);
            const std::uint64_t index =
                json::getU64(rec, "index", ~std::uint64_t{0});
            const std::string key = json::getStr(rec, "key");
            // The payload is kept verbatim: its codec
            // (simResultFromJson / outcomeFromJson) reads it later.
            const json::Value *p = json::getObject(rec, "payload");
            const std::string payload = p ? json::slice(line, *p) : "";
            if (payload.empty() || key.empty() ||
                index == ~std::uint64_t{0})
                return false;
            const auto it = keyByIndex.find(index);
            if (it == keyByIndex.end() || it->second != key) {
                throw CheckpointError(csprintf(
                    "checkpoint %s record for job %llu does not match "
                    "this campaign's job identity",
                    resumePath.c_str(),
                    static_cast<unsigned long long>(index)));
            }
            records[index] = payload;
            return true;
        };
        torn = readTornTailJsonl(content, "checkpoint", resumePath, header,
                                 record);
    }

    // Rewrite the checkpoint from scratch — atomically — so the file
    // on disk is header + surviving records with any torn tail gone,
    // and subsequent appends extend a known-good prefix.
    std::string content = csprintf(
        "{\"msp_checkpoint\": 1, \"mode\": \"%s\", \"fingerprint\": "
        "\"%s\", \"jobs\": %zu}\n",
        json::escape(mode).c_str(), fingerprint.c_str(),
        keyByIndex.size());
    for (const auto &[index, payload] : records)
        content += renderRecord(index, keyByIndex.at(index), payload);
    writeFile(path, content);
}

const std::string *
CampaignState::completedPayload(std::uint64_t index) const
{
    const auto it = records.find(index);
    return it == records.end() ? nullptr : &it->second;
}

void
CampaignState::recordDone(std::uint64_t index, const std::string &key,
                          const std::string &payload)
{
    if (!enabled())
        return;
    records[index] = payload;
    pendingLines.push_back(renderRecord(index, key, payload));
    if (pendingLines.size() >= every)
        appendPending();
}

void
CampaignState::appendPending()
{
    if (pendingLines.empty())
        return;
    if (!file) {
        file = std::fopen(path.c_str(), "a");
        if (!file)
            msp_fatal("cannot append to checkpoint %s", path.c_str());
    }
    for (const std::string &line : pendingLines) {
        if (std::fwrite(line.data(), 1, line.size(), file) != line.size())
            msp_fatal("short write to checkpoint %s", path.c_str());
    }
    std::fflush(file);
    pendingLines.clear();
}

void
CampaignState::finalFlush()
{
    if (!enabled())
        return;
    appendPending();
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
}

// ---- report merging --------------------------------------------------------

namespace {

/**
 * Rows of the array member @p key of @p obj (parsed from @p text),
 * mapped by their "index" and kept verbatim.
 */
void
collectRows(const std::string &text, const json::Value &obj,
            const std::string &key,
            std::map<std::uint64_t, std::string> &rows,
            const std::string &what)
{
    const json::Value *arr = json::getArray(obj, key);
    if (!arr)
        throw CheckpointError("report carries no \"" + key + "\" array");
    for (const json::Value &row : arr->items) {
        const std::uint64_t index =
            json::getU64(row, "index", ~std::uint64_t{0});
        if (index == ~std::uint64_t{0}) {
            throw CheckpointError(what + " row without an \"index\" "
                                  "field (pre-shard report?)");
        }
        if (!rows.emplace(index, json::slice(text, row)).second) {
            throw CheckpointError(csprintf(
                "two %s rows claim index %llu — overlapping shards?",
                what.c_str(),
                static_cast<unsigned long long>(index)));
        }
    }
}

std::string
mergeDriverReports(const std::vector<std::string> &texts,
                   const std::vector<json::Value> &docs)
{
    std::map<std::uint64_t, std::string> rows;
    for (std::size_t i = 0; i < docs.size(); ++i)
        collectRows(texts[i], docs[i], "jobs", rows, "job");

    std::string out = "{\n  \"jobs\": [";
    std::size_t emitted = 0;
    for (const auto &[index, row] : rows) {
        out += emitted++ ? ",\n    " : "\n    ";
        out += row;
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
mergeVerifyReports(const std::vector<std::string> &texts,
                   const std::vector<json::Value> &docs)
{
    std::map<std::uint64_t, std::string> rows;
    std::map<std::uint64_t, std::string> repros;
    std::size_t divergent = 0, skipped = 0, shrinkTimedOut = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
        const json::Value &v = *json::getObject(docs[i], "verify");
        collectRows(texts[i], v, "results", rows, "result");
        collectRows(texts[i], v, "repros", repros, "repro");
        divergent += json::getU64(v, "divergent", 0);
        skipped += json::getU64(v, "skipped", 0);
        shrinkTimedOut += json::getU64(v, "shrink_timed_out", 0);
    }

    // Exactly verify::toJson's skeleton, so a merged document is
    // byte-identical to what the unsharded campaign would have written.
    std::string out = "{\n  \"verify\": {\n";
    out += csprintf("    \"jobs\": %zu,\n", rows.size());
    out += csprintf("    \"divergent\": %zu,\n", divergent);
    out += csprintf("    \"skipped\": %zu,\n", skipped);
    if (shrinkTimedOut)
        out += csprintf("    \"shrink_timed_out\": %zu,\n",
                        shrinkTimedOut);
    out += "    \"results\": [";
    std::size_t emitted = 0;
    for (const auto &[index, row] : rows) {
        out += emitted++ ? ",\n      " : "\n      ";
        out += row;
    }
    out += "\n    ],\n";
    out += "    \"repros\": [";
    emitted = 0;
    for (const auto &[index, row] : repros) {
        out += emitted++ ? ",\n      " : "\n      ";
        out += row;
    }
    out += "\n    ]\n  }\n}\n";
    return out;
}

} // anonymous namespace

std::string
mergeReports(const std::vector<std::string> &texts)
{
    if (texts.empty())
        throw CheckpointError("nothing to merge");

    std::vector<json::Value> docs;
    docs.reserve(texts.size());
    for (const std::string &text : texts)
        docs.push_back(json::parse(text));
    const auto isVerify = [](const json::Value &doc) {
        return json::getObject(doc, "verify") != nullptr;
    };
    const bool verify = isVerify(docs.front());
    for (const json::Value &doc : docs) {
        if (isVerify(doc) != verify) {
            throw CheckpointError("cannot merge a verify report with a "
                                  "campaign report");
        }
    }
    return verify ? mergeVerifyReports(texts, docs)
                  : mergeDriverReports(texts, docs);
}

// ---- cooperative interruption ---------------------------------------------

void
setCampaignStop(bool stop)
{
    gCampaignStop.store(stop, std::memory_order_relaxed);
}

bool
campaignStopRequested()
{
    return gCampaignStop.load(std::memory_order_relaxed);
}

} // namespace driver
} // namespace msp
