/**
 * @file
 * Campaign state backend: durable per-job completion state for
 * crash-safe, resumable, shardable campaigns.
 *
 * A campaign (sim or verify) is a deterministic list of jobs; this
 * module persists "job i completed with this serialised result" records
 * so a run killed at 50% can resume with `--resume FILE`, skip the
 * completed jobs, and still emit a final report byte-identical to an
 * uninterrupted run — the per-job payloads round-trip exactly (integer
 * counters and escaped strings only, no float re-formatting).
 *
 * The checkpoint file is line-oriented JSON (JSONL):
 *
 *   {"msp_checkpoint": 1, "mode": "matrix", "fingerprint": "...", "jobs": N}
 *   {"index": 3, "key": "9f2a...", "payload": {...}}
 *   ...
 *
 * One header, then one record per completed job, appended (and flushed)
 * every `--checkpoint-every N` completions. Appending keeps a
 * 10^6-job campaign O(1) per checkpoint; the price is that a crash can
 * tear the *trailing* record, so the loader drops (and quarantines to
 * FILE.torn) an unparseable or unterminated last line instead of
 * aborting the resume — every complete record before it is kept. A
 * torn line anywhere else is real corruption and fails loudly.
 *
 * The header fingerprint hashes every job key in submission order, so
 * resuming under a different command line (different matrix, machine,
 * seeds, shard…) is rejected instead of silently mixing results. The
 * payloads themselves are opaque here: each campaign serialises its own
 * result type (driver::simResultToJson / verify::outcomeToJson) — the
 * backend only stores and returns them.
 *
 * Sharding and merging live here too: shardSelect() deterministically
 * partitions a job list (`--shard i/N`), and mergeReports() folds the
 * per-shard JSON reports back into one document byte-identical to the
 * unsharded run's (rows are re-emitted verbatim, ordered by their
 * global "index"; summary counts are recomputed).
 */

#ifndef MSPLIB_DRIVER_STATE_HH
#define MSPLIB_DRIVER_STATE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace msp {
namespace driver {

/** A checkpoint that cannot be used (corrupt, or wrong campaign). */
struct CheckpointError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** FNV-1a of @p s as a 16-hex-digit string (job keys, fingerprints). */
std::string stateHash(const std::string &s);

/** Indices selected by shard @p shard of @p shards (stride layout). */
std::vector<std::size_t> shardSelect(std::size_t n, unsigned shard,
                                     unsigned shards);

/**
 * Read the records of a torn-tail JSONL file (a checkpoint or a
 * corpus): one header line, then one record per line, appended so
 * that a crash can tear only the trailing record. @p header gets the
 * first line. @p record gets each later complete line and returns
 * false, or throws json::JsonError, when it cannot read it. A trailing
 * record that is unreadable or lacks its newline is quarantined to
 * @p path + ".torn"; an unreadable record anywhere else is corruption.
 * @p what names the file kind in errors ("checkpoint", "corpus").
 * @return the number of quarantined records (0 or 1).
 * @throws CheckpointError when @p content is empty or corrupt.
 */
std::size_t readTornTailJsonl(
    const std::string &content, const std::string &what,
    const std::string &path,
    const std::function<void(const std::string &)> &header,
    const std::function<bool(const std::string &)> &record);

/**
 * Durable completion state of one campaign run.
 *
 * Lifecycle: configure() names the file (and whether to resume from
 * it), begin() binds the backend to a concrete campaign — validating
 * any loaded records against the campaign's job keys and rewriting the
 * file (atomically) with the surviving records — then the campaign
 * calls completedPayload() to skip finished jobs and recordDone() as
 * jobs finish. finalFlush() (idempotent; also run by the destructor)
 * pushes any buffered records out.
 *
 * recordDone() is not internally locked: campaigns call it from their
 * progress-side critical section, which already serialises completions.
 */
class CampaignState
{
  public:
    CampaignState() = default;
    ~CampaignState();

    CampaignState(const CampaignState &) = delete;
    CampaignState &operator=(const CampaignState &) = delete;

    /**
     * Checkpoint to @p path every @p every completed jobs (>= 1).
     * With @p resume set, begin() first loads existing records from
     * @p resumePath (empty = @p path itself).
     */
    void configure(const std::string &path, unsigned every, bool resume,
                   const std::string &resumePath = "");

    bool enabled() const { return !path.empty(); }

    /**
     * Bind to a campaign: @p indices and @p keys are parallel arrays
     * (global job index, identity-hash key) in submission order. Loads
     * the resume file if configured — dropping and quarantining a torn
     * trailing record — validates mode/fingerprint/keys, and rewrites
     * the checkpoint file with the header plus all surviving records.
     *
     * @throws CheckpointError on a checkpoint from a different
     * campaign (mode, fingerprint, or per-record key mismatch) or one
     * corrupt beyond its trailing record.
     */
    void begin(const std::string &mode,
               const std::vector<std::uint64_t> &indices,
               const std::vector<std::string> &keys);

    /**
     * The stored payload of global job @p index, or nullptr when the
     * job has not completed in any previous run.
     */
    const std::string *completedPayload(std::uint64_t index) const;

    /** Completed records currently held (loaded + recorded). */
    std::size_t completedCount() const { return records.size(); }

    /** Records dropped from the torn tail of the resumed file. */
    std::size_t tornRecords() const { return torn; }

    /**
     * Record one completed job. Buffered; every `every` completions
     * the buffer is appended to the file and flushed. Call from the
     * campaign's completion critical section (not internally locked).
     */
    void recordDone(std::uint64_t index, const std::string &key,
                    const std::string &payload);

    /** Flush buffered records and close the file. Idempotent. */
    void finalFlush();

  private:
    void appendPending();

    std::string path;            ///< checkpoint file ("" = disabled)
    std::string resumePath;      ///< file to load on begin()
    unsigned every = 1;          ///< flush cadence in completed jobs
    bool resume = false;

    std::string mode;            ///< campaign mode bound by begin()
    std::string fingerprint;     ///< campaign identity hash
    std::map<std::uint64_t, std::string> keyByIndex;
    std::map<std::uint64_t, std::string> records;  ///< index -> payload
    std::vector<std::string> pendingLines;
    std::size_t torn = 0;
    std::FILE *file = nullptr;   ///< append handle between flushes
};

/**
 * Fold shard reports into one document byte-identical to the unsharded
 * run's. All inputs must be the same kind of report — either driver
 * campaign reports ({"jobs": [...]}) or verify reports
 * ({"verify": {...}}). Rows are ordered by their "index" field and
 * re-emitted verbatim; verify summary counts (jobs, divergent,
 * skipped, shrink_timed_out) are recomputed from the merged rows.
 *
 * @throws CheckpointError on an unrecognised document, mixed report
 * kinds, or two rows claiming the same index (overlapping shards);
 * json::JsonError on a document that is not well-formed JSON.
 */
std::string mergeReports(const std::vector<std::string> &docs);

// ---- cooperative interruption (signal -> campaign) ------------------------

/**
 * Request that running campaigns stop starting new jobs (in-flight
 * jobs finish and are checkpointed). Async-signal-safe: a relaxed
 * atomic store. setCampaignStop(false) re-arms (tests).
 */
void setCampaignStop(bool stop);

/** True once setCampaignStop(true) was called. */
bool campaignStopRequested();

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_STATE_HH
