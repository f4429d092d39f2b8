/**
 * @file
 * Trial journal: durable, append-only progress for fault-injection
 * campaigns, and the deterministic-resume half of the campaign
 * resilience layer.
 *
 * A paper-scale campaign (15000 injections x 11 workloads x several
 * schemes) runs for hours; an OOM kill or a ^C at trial 14000 must
 * not cost the first 14000 trials. The journal records one JSONL line
 * per *completed* trial — its index, its counter deltas into
 * CampaignResult, and its sampling metadata (TrialMeta) — written in
 * trial order on the producer thread at merge time and flushed
 * immediately. The metadata makes the record stream self-sufficient
 * for the statistical engine: a resumed run rebuilds the vulnerability
 * profile and the CI estimator state from (delta, meta) pairs alone,
 * so an adaptive campaign resumes to the identical stop wave.
 *
 * Resume is deterministic by construction: everything downstream of
 * the master's advance is a pure function of (seed, trial index), and
 * the master's advance itself is a pure function of the gap schedule
 * (gapRng is seeded). A restarted campaign's CampaignMerge therefore
 * folds the journaled prefix straight from the records, the master
 * skip-advances over those trials' gaps — same gaps, same ticks,
 * bit-identical machine — without snapshotting or forking them, and
 * the remainder executes exactly as the uninterrupted run would have;
 * a journal that already covers the campaign executes nothing. The
 * final CampaignResult counters and SDC bins equal an uninterrupted
 * run's exactly (phase timing excepted — it was never deterministic).
 *
 * The header line pins the campaign identity (seed, injections,
 * window, schedule, mix, scheme); resuming against a journal written
 * by a different configuration is a user error (fh_fatal), not a
 * silent wrong answer. Every record carries a CRC32C over its values
 * (journal v3), splitting damage into two cases with opposite
 * handling: a bad record with nothing valid after it is a torn tail
 * from a crash mid-write — healed by dropping it (the trial
 * re-executes); a bad record with valid records after it is mid-file
 * corruption — resume refuses with the exact record, because silently
 * skipping or re-executing an interior trial would fork the
 * campaign's history.
 */

#ifndef FH_FAULT_JOURNAL_HH
#define FH_FAULT_JOURNAL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "fault/campaign.hh"

namespace fh::fault
{

/**
 * The counters serialized per completed trial: CampaignResult::fields()
 * in order, with SdcBins::fields() spliced in after hung_protected
 * (the last two counters were appended after the bins). The journal's
 * JSONL "d" array and the distributed fabric's TRIAL frames carry
 * exactly this vector, so a coordinator can journal a worker's records
 * verbatim. The phase times and the partial/replayed markers are
 * deliberately absent: phases were never deterministic, and the
 * markers describe a run, not a trial.
 */
constexpr size_t kTrialCounters =
    CampaignResult::fields().size() + SdcBins::fields().size();

/** Flatten one trial's counter deltas into record-array order. */
void packTrialCounters(const CampaignResult &r,
                       u64 (&d)[kTrialCounters]);

/** Inverse of packTrialCounters (phases/markers zero). */
CampaignResult unpackTrialCounters(const u64 (&d)[kTrialCounters]);

/**
 * The sampling metadata serialized per trial, TrialMeta::fields() in
 * order: the journal's "m" array and the dist TRIAL frames carry
 * exactly this vector next to the counters.
 */
constexpr size_t kTrialMetaFields =
    std::tuple_size_v<decltype(TrialMeta::fields())>;

/** Flatten one trial's TrialMeta into record-array order. */
void packTrialMeta(const TrialMeta &m, u64 (&v)[kTrialMetaFields]);

/** Inverse of packTrialMeta (narrow fields truncate to their width). */
TrialMeta unpackTrialMeta(const u64 (&v)[kTrialMetaFields]);

class TrialJournal
{
  public:
    /**
     * Open (or create) the journal at path for the campaign described
     * by cfg/scheme. An existing journal must carry a matching header
     * (else fh_fatal); its well-formed prefix of trial records is
     * loaded for replay (announced on stderr) and subsequent records
     * append after it. The header and that prefix are rewritten into
     * path + ".tmp", which is synced to disk and then replaces the
     * journal by rename() (the directory is synced after), so neither
     * a kill nor a host crash during the rewrite leaves a short
     * journal.
     */
    TrialJournal(const std::string &path, const CampaignConfig &cfg,
                 const std::string &scheme);
    ~TrialJournal();

    TrialJournal(const TrialJournal &) = delete;
    TrialJournal &operator=(const TrialJournal &) = delete;

    /**
     * Trials restored from the file: records are written in trial
     * order, so the journaled set is always the prefix [0, count).
     */
    u64 replayCount() const { return replayed_.size(); }

    /** Counter deltas of a journaled trial (trial < replayCount()). */
    CampaignResult replayed(u64 trial) const
    {
        return unpackTrialCounters(replayed_[trial].d);
    }

    /** Sampling metadata of a journaled trial (trial < replayCount()). */
    TrialMeta replayedMeta(u64 trial) const
    {
        return unpackTrialMeta(replayed_[trial].m);
    }

    /**
     * Append one completed trial's deltas + metadata and flush, so the
     * record survives any later crash. Must be called in trial order,
     * starting at replayCount().
     */
    void record(u64 trial, const CampaignResult &delta,
                const TrialMeta &meta);

  private:
    /** One journaled trial as its record arrays: 208 bytes, where an
     *  unpacked CampaignResult carries a 2 KiB empty VulnProfile. */
    struct Record
    {
        u64 d[kTrialCounters];
        u64 m[kTrialMetaFields];
    };

    std::string path_;
    std::FILE *out_ = nullptr;
    u64 nextTrial_ = 0;
    std::vector<Record> replayed_;
};

} // namespace fh::fault

#endif // FH_FAULT_JOURNAL_HH
