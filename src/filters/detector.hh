/**
 * @file
 * Unified soft-fault detector front. The pipeline checks load/store
 * addresses and store values at completion and at commit through this
 * interface and is agnostic to the attached scheme:
 *
 *  - Pbfs:         PC-indexed tables, one-bit sticky counters, full
 *                  rollback on trigger (Section 2.1).
 *  - PbfsBiased:   PBFS with the biased two-bit machines (Section 3).
 *  - FaultHound:   counting TCAMs + second-level filter + squash state
 *                  machines + predecessor replay + LSQ commit check.
 *  - FaultHound backend-only and the Figure 12 ablations are expressed
 *    through DetectorParams flags.
 */

#ifndef FH_FILTERS_DETECTOR_HH
#define FH_FILTERS_DETECTOR_HH

#include <array>
#include <string>
#include <vector>

#include "filters/pbfs.hh"
#include "filters/second_level.hh"
#include "filters/state_machine.hh"
#include "filters/tcam.hh"
#include "sim/types.hh"

namespace fh::filters
{

/** Which detection scheme is attached to the core. */
enum class Scheme : u8
{
    None,       ///< fault-intolerant baseline
    Pbfs,       ///< PBFS with sticky counters
    PbfsBiased, ///< PBFS with biased two-bit machines
    FaultHound  ///< this paper (variants via flags)
};

/** The value streams the filters watch. */
enum class StreamKind : u8
{
    LoadAddr,
    StoreAddr,
    StoreValue
};

/** Recovery action requested by a completion-time check. */
enum class CompleteAction : u8
{
    None,
    Replay,  ///< predecessor replay (Section 3.3)
    Rollback ///< full pipeline rollback
};

/** Action requested by a commit-time (LSQ) check. */
enum class CommitAction : u8
{
    None,
    Reexec ///< singleton re-execute from the register file (Section 3.5)
};

struct DetectorParams
{
    Scheme scheme = Scheme::FaultHound;

    TcamParams tcam{};
    PbfsParams pbfs{};

    /** Inverted (value-indexed) first level; false = PC-indexed tables
     *  with biased counters (FH-BE-nocluster ablation). */
    bool clustering = true;
    /** Second-level delinquent-bit filter (Section 3.2). */
    bool secondLevel = true;
    /** Squash state machines for rename faults (Section 3.4); this is
     *  what distinguishes full FaultHound from FaultHound-backend. */
    bool squashDetect = true;
    /** Commit-time LSQ check + singleton re-execute (Section 3.5). */
    bool lsqCommitCheck = true;
    /** Recover allowed triggers by replay; false = full rollback
     *  (FH-BE-full-rollback ablation). */
    bool replayRecovery = true;

    u8 secondLevelStates = 8;
    u8 squashStates = 8;

    bool operator==(const DetectorParams &other) const = default;

    static DetectorParams none();
    static DetectorParams pbfsSticky();
    static DetectorParams pbfsBiased();
    static DetectorParams faultHound();
    static DetectorParams faultHoundBackend();
};

/** A scheme preset: its `scheme=` key, its label in printed tables,
 *  and its parameters. */
struct SchemePreset
{
    const char *key;
    const char *label;
    DetectorParams (*params)();
};

/** The five presets: the fault-intolerant baseline, then the four
 *  screening schemes of Figure 8 in paper order. fhsim's `scheme`
 *  key, dist::schemeByName, the Figure 8 harnesses and the scheme
 *  face-off all read this table. */
inline constexpr std::array<SchemePreset, 5> kSchemePresets{{
    {"none", "baseline", &DetectorParams::none},
    {"pbfs", "PBFS", &DetectorParams::pbfsSticky},
    {"pbfs-biased", "PBFS-biased", &DetectorParams::pbfsBiased},
    {"fh-backend", "FH-backend", &DetectorParams::faultHoundBackend},
    {"faulthound", "FaultHound", &DetectorParams::faultHound},
}};

/** Aggregate detector statistics. */
struct DetectorStats
{
    u64 checks = 0;
    u64 triggers = 0;          ///< first-level non-matches
    u64 suppressed = 0;        ///< silenced by the second-level filter
    u64 replays = 0;           ///< replay actions requested
    u64 rollbacks = 0;         ///< rollback actions requested
    u64 squashAlarms = 0;      ///< rollbacks due to squash machines
    u64 replayIgnored = 0;     ///< triggers ignored during replay
    u64 commitChecks = 0;
    u64 commitTriggers = 0;    ///< singleton re-executes requested
    u64 reexecMismatches = 0;  ///< detected faults (Section 3.5 compare)

    bool operator==(const DetectorStats &other) const = default;
};

/**
 * The detector attached to one core. Copyable by value so tandem fault
 * runs can fork the whole machine.
 */
class Detector
{
  public:
    explicit Detector(const DetectorParams &params = {});

    /**
     * Check a completed load/store operand value.
     *
     * @param kind which value stream the operand belongs to
     * @param pc static instruction index (used by PC-indexed schemes)
     * @param value the operand value (address or store data)
     * @param in_replay true when the instruction is re-executing under
     *        a replay or post-rollback recovery; the filters still
     *        learn but triggers are ignored (values deemed final)
     */
    CompleteAction checkComplete(StreamKind kind, u64 pc, u64 value,
                                 bool in_replay);

    /**
     * Commit-time LSQ check (probe-only: does not train the filters).
     */
    CommitAction checkCommit(StreamKind kind, u64 pc, u64 value);

    /** Record the result of a singleton re-execute comparison. */
    void onReexecCompare(bool mismatch);

    const DetectorParams &params() const { return params_; }
    const DetectorStats &stats() const { return stats_; }
    Scheme scheme() const { return params_.scheme; }
    bool active() const { return params_.scheme != Scheme::None; }

    /** Total first-level filter accesses (for the energy model). */
    u64 filterAccesses() const;

    const CountingTcam &addrTcam() const { return addrTcam_; }
    const CountingTcam &valueTcam() const { return valueTcam_; }
    /** PC-indexed first-level tables, one per StreamKind; empty unless
     *  the scheme reads them (PBFS, PBFS-biased, FH-nocluster). */
    const std::vector<PbfsTable> &pbfsTables() const { return pbfs_; }

    bool operator==(const Detector &other) const = default;

  private:
    CompleteAction checkPbfs(StreamKind kind, u64 pc, u64 value,
                             bool in_replay);
    CompleteAction checkFaultHound(StreamKind kind, u64 pc, u64 value,
                                   bool in_replay);

    CountingTcam &tcamFor(StreamKind kind)
    {
        return kind == StreamKind::StoreValue ? valueTcam_ : addrTcam_;
    }
    const CountingTcam &tcamFor(StreamKind kind) const
    {
        return kind == StreamKind::StoreValue ? valueTcam_ : addrTcam_;
    }
    SecondLevelFilter &secondFor(StreamKind kind)
    {
        return kind == StreamKind::StoreValue ? valueSecond_ : addrSecond_;
    }
    std::vector<BiasedNState> &squashFor(StreamKind kind)
    {
        return kind == StreamKind::StoreValue ? valueSquash_ : addrSquash_;
    }
    PbfsTable &pbfsFor(StreamKind kind)
    {
        return pbfs_[static_cast<size_t>(kind)];
    }

    DetectorParams params_;

    // FaultHound first level: one TCAM for addresses (loads and
    // stores), one for store values (Section 3.1).
    CountingTcam addrTcam_;
    CountingTcam valueTcam_;
    SecondLevelFilter addrSecond_;
    SecondLevelFilter valueSecond_;
    std::vector<BiasedNState> addrSquash_;
    std::vector<BiasedNState> valueSquash_;

    // PBFS (and FH-nocluster) first level: PC-indexed tables, one per
    // stream. Only those schemes get them: three 2K-entry tables are
    // most of a detector's bytes, and every machine copy pays for them.
    std::vector<PbfsTable> pbfs_;

    DetectorStats stats_;
};

std::string to_string(Scheme scheme);

} // namespace fh::filters

#endif // FH_FILTERS_DETECTOR_HH
