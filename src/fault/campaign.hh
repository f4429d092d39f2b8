/**
 * @file
 * Fault-injection campaign (Section 4): a master simulation advances
 * with the detector active (so the filters stay trained); at random
 * points the machine is forked into an unprotected faulty copy (for
 * masked/noisy/SDC classification) and — for SDC faults — a protected
 * faulty copy whose outcome decides coverage. The campaign also bins
 * uncovered SDC faults into the Figure 11 categories.
 *
 * The golden reference is not a third fork: the master's own advance
 * past each trial's commit targets records a golden checkpoint
 * (per-thread ArchState + per-segment memory digests) in a
 * GoldenLedger, and forks are compared against that checkpoint in
 * O(threads + segments).
 *
 * Execution is sharded: the master advances serially between
 * injection points, each point is snapshotted into a trial descriptor
 * with its own Rng::stream(seed, trial_index), and an exec::ThreadPool
 * runs the trials' forks concurrently. The serial producer (advance
 * plus snapshots) takes 41-51% of wall time at one pool thread
 * (perfbench `producer.share`). Per-trial results reduce into
 * CampaignResult in trial order, so the outcome is bit-identical for
 * 1 and N worker threads.
 */

#ifndef FH_FAULT_CAMPAIGN_HH
#define FH_FAULT_CAMPAIGN_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "fault/injector.hh"
#include "fault/sampling.hh"
#include "fault/tandem.hh"
#include "isa/program.hh"
#include "pipeline/core.hh"
#include "sim/rng.hh"

namespace fh::exec
{
class ProgressMeter;
} // namespace fh::exec

namespace fh::fault
{

struct CampaignConfig
{
    u64 injections = 300;
    /**
     * Run window after injection: instructions each of the core's SMT
     * hardware threads (execution contexts) must commit before the
     * forks are compared. Unrelated to the host worker threads that
     * execute trials — see `threads` below.
     */
    u64 window = 1000;
    /** Master warmup before the first injection (instructions). */
    u64 warmupInsts = 20000;
    /** Master cycles between injection points. */
    Cycle minGap = 100;
    Cycle maxGap = 600;
    /** Fork cycle budget (safety bound for hung runs). */
    Cycle forkMaxCycles = 400000;
    u64 seed = 1;
    InjectionMix mix{};

    /**
     * Host worker threads executing the per-trial forks (bare /
     * protected), i.e. the exec::ThreadPool size; 0 = one per
     * hardware thread (the default), 1 = fully serial. Also settable
     * via the FH_THREADS environment variable in the bench harnesses.
     * The result is bit-identical for every value: each trial draws
     * from its own Rng::stream(seed, trial_index) and per-trial
     * results reduce in trial order. Distinct from the simulated
     * core's SMT threads (see `window`).
     */
    unsigned threads = 0;
    /** Optional meter ticked once per completed trial (may be null). */
    exec::ProgressMeter *progress = nullptr;

    /**
     * Trial journal path (`journal=` in fhsim); empty = no journal.
     * Completed trials are appended (and flushed) in trial order; a
     * restarted campaign with the same configuration replays the
     * journaled prefix through the serial master advance and skips
     * its forks, producing counters and SDC bins bit-identical to an
     * uninterrupted run. See fault/journal.hh.
     */
    std::string journalPath;

    /**
     * Per-trial wall-clock budget in milliseconds, complementing the
     * cycle-count bound forkMaxCycles (FH_TRIAL_TIMEOUT_MS in the
     * bench harnesses, `trial_timeout_ms=` in fhsim). A trial whose
     * forks exceed it is classified into trialErrors — with its
     * injection plan logged for offline repro — instead of wedging a
     * worker for the rest of the run. 0 = no watchdog (the default:
     * wall time is nondeterministic, so only long unattended runs
     * should opt in).
     */
    u64 trialTimeoutMs = 0;

    /**
     * Debug/test hook: behave as if a shutdown signal arrived once
     * this many trials have been *executed* (not replayed) in this
     * run — the campaign drains in-flight trials, flushes the
     * journal, and returns a partial result. 0 = never. Exercised by
     * the kill-at-trial-K resume tests.
     */
    u64 stopAfterTrials = 0;

    /**
     * Debug/test hook: raise fh_panic inside the worker executing the
     * given trial index, exercising the trial-isolation guard
     * (trialErrors under non-strict mode, abort under FH_STRICT=1).
     * ~0 = never.
     */
    u64 panicAtTrial = ~u64{0};

    /**
     * Debug/test hook: early termination of bare forks (default on).
     * Arms a fault watch on register-file flips so a fork whose
     * injected value is provably erased before any read is classified
     * masked immediately instead of running the window out. False
     * runs every bare fork's full window — the equivalence oracle the
     * pinned-count and golden-ledger suites run as their full_window
     * mode (tests/oracle_modes.hh). Classification is identical either
     * way (DESIGN.md "Arch-digest early exit"); only the
     * earlyTerminated diagnostic counter differs, which is why it is
     * in no campaign spec, journal header or FH_JSON record.
     */
    bool earlyStop = true;

    /**
     * Adaptive stop target (FH_CI_TARGET, `ci_target=` in fhsim): when
     * > 0, trials draw stratified injection sites round-robin
     * (sampling.hh) and the campaign stops at the first wave boundary
     * where the pooled Wilson half-width on the SDC rate is <= this.
     * 0 (default) = fixed-count legacy mode, bit-identical schedules
     * and results to previous revisions. The stop decision is a pure
     * function of merged wave counters, so adaptive runs are
     * deterministic across thread and dist worker counts.
     */
    double ciTarget = 0.0;

    /** Adaptive wave size in trials (FH_CI_WAVE, `ci_wave=`): the stop
     *  condition is evaluated only at multiples of this. */
    u64 ciWave = 64;

    /**
     * Host-local abort line (never part of a campaign spec, like
     * threads/progress): when non-null and set, the campaign behaves
     * exactly as if a shutdown signal arrived — drain in-flight
     * trials, flush, return a partial result. The dist worker points
     * this at its per-connection "connection lost" latch so losing the
     * coordinator aborts only the current session, not the process
     * (the global exec::requestShutdown latch would preclude
     * reconnecting).
     */
    const std::atomic<bool> *abortFlag = nullptr;
};

/**
 * Where a campaign's wall time went, in nanoseconds: master advance +
 * ledger upkeep ("golden"), trial snapshot copies, the bare and
 * protected faulty forks, and the state comparisons. Accumulated
 * per-trial on the worker threads (each trial sums into its own
 * CampaignResult, merged in trial order) plus producer-side terms
 * added once at the end, so no synchronization is needed beyond the
 * pool's wave barrier.
 */
struct CampaignPhases
{
    u64 snapshotNs = 0;  ///< machine copies + plan draws (producer)
    u64 goldenNs = 0;    ///< master advance + golden ledger upkeep
    u64 bareNs = 0;      ///< unprotected faulty forks
    u64 protectedNs = 0; ///< protected faulty forks
    u64 compareNs = 0;   ///< arch/digest comparisons

    u64 totalNs() const
    {
        return snapshotNs + goldenNs + bareNs + protectedNs + compareNs;
    }

    CampaignPhases &operator+=(const CampaignPhases &o)
    {
        snapshotNs += o.snapshotNs;
        goldenNs += o.goldenNs;
        bareNs += o.bareNs;
        protectedNs += o.protectedNs;
        compareNs += o.compareNs;
        return *this;
    }
};

/**
 * Event-driven scheduler counters summed over every core the campaign
 * ran (master advance + all forks): how the issue stage did its work,
 * not what the workload did. Purely observational — excluded from the
 * journal's trial packing and the distributed wire format (like
 * phases), so journal bytes and classification stay identical across
 * scheduler modes; under the tests' per-cycle issue-scan oracle
 * everything except issueEvals/issueCandidates reads zero.
 */
struct SchedCounters
{
    u64 wakeupHits = 0;      ///< consumers moved wake row -> ready pool
    u64 overflowParks = 0;   ///< subscriptions parked on overflow lists
    u64 overflowRescans = 0; ///< overflow refs examined by the slow path
    u64 issueEvals = 0;      ///< cycles the issue stage examined refs
    u64 issueCandidates = 0; ///< ready candidates across those cycles

    SchedCounters &operator+=(const SchedCounters &o)
    {
        wakeupHits += o.wakeupHits;
        overflowParks += o.overflowParks;
        overflowRescans += o.overflowRescans;
        issueEvals += o.issueEvals;
        issueCandidates += o.issueCandidates;
        return *this;
    }

    /** Counter deltas between two CoreStats snapshots of one core. */
    static SchedCounters delta(const pipeline::CoreStats &now,
                               const pipeline::CoreStats &base)
    {
        SchedCounters d;
        d.wakeupHits = now.wakeupHits - base.wakeupHits;
        d.overflowParks = now.overflowParks - base.overflowParks;
        d.overflowRescans = now.overflowRescans - base.overflowRescans;
        d.issueEvals = now.issueEvals - base.issueEvals;
        d.issueCandidates = now.issueCandidates - base.issueCandidates;
        return d;
    }
};

/** Figure 11 bins for SDC faults. */
struct SdcBins
{
    u64 covered = 0;
    u64 secondLevelMasked = 0; ///< trigger suppressed by the 2nd level
    u64 completedReg = 0;      ///< completed/committed register fault
    u64 archReg = 0;           ///< diagnostic subset of completedReg:
                               ///< architectural (long-lived) values
    u64 renameUncovered = 0;   ///< uncovered rename-table fault
    u64 noTrigger = 0;         ///< the fault never tripped a filter
    u64 other = 0;

    SdcBins &operator+=(const SdcBins &o)
    {
        covered += o.covered;
        secondLevelMasked += o.secondLevelMasked;
        completedReg += o.completedReg;
        archReg += o.archReg;
        renameUncovered += o.renameUncovered;
        noTrigger += o.noTrigger;
        other += o.other;
        return *this;
    }
};

struct CampaignResult
{
    u64 injected = 0;
    u64 masked = 0;
    u64 noisy = 0;
    u64 sdc = 0;

    u64 recovered = 0; ///< SDC repaired (state matches golden)
    u64 detected = 0;  ///< SDC declared by the LSQ compare / exception
    u64 uncovered = 0;

    /**
     * Trials whose execution was cut short by an isolated in-fork
     * panic or a trialTimeoutMs watchdog expiry (non-strict mode
     * only). Counted in injected but in none of masked/noisy/sdc;
     * each one's injection plan is logged for offline reproduction.
     */
    u64 trialErrors = 0;

    /**
     * Diagnostic counters for forks that exhausted forkMaxCycles
     * without crossing their commit targets. Classification is
     * unchanged (a hung bare fork still counts as noisy; a hung
     * protected fork still lands in uncovered); these only make the
     * previously invisible hang paths observable.
     */
    u64 hungBare = 0;
    u64 hungProtected = 0;

    /**
     * Trials classified masked without forking at all (the injection
     * provably cannot change state: idle strike, free register, empty
     * LSQ). Counted in both injected and masked; they feed the CI
     * estimator and the profile like any other masked trial.
     */
    u64 skippedProvablyMasked = 0;

    /** Bare forks ended early by fault-watch erasure (still counted in
     *  masked; diagnostic only — the one counter that legitimately
     *  differs between early-stop on and off). */
    u64 earlyTerminated = 0;

    /** True when the campaign stopped early (signal / stopAfterTrials)
     *  after draining in-flight trials; the counters cover only the
     *  trials actually completed. */
    bool partial = false;

    /** Adaptive mode: the campaign stopped at a wave boundary because
     *  the pooled CI half-width reached cfg.ciTarget. */
    bool ciStopped = false;

    /** Trials restored from the journal instead of executed. */
    u64 replayedTrials = 0;

    SdcBins bins;
    CampaignPhases phases; ///< wall-time breakdown (not a count)
    SchedCounters sched;   ///< scheduler observability (not journaled)
    /** Per-site vulnerability profile; empty on per-trial deltas
     *  (producers fold deltas + meta via VulnProfile::addTrial). */
    VulnProfile profile;

    u64 covered() const { return recovered + detected; }
    double coverage() const
    {
        return sdc ? static_cast<double>(covered()) / sdc : 0.0;
    }
    double maskedFrac() const
    {
        return injected ? static_cast<double>(masked) / injected : 0.0;
    }
    double noisyFrac() const
    {
        return injected ? static_cast<double>(noisy) / injected : 0.0;
    }
    double sdcFrac() const
    {
        return injected ? static_cast<double>(sdc) / injected : 0.0;
    }

    /** Merge another shard's counters (u64 adds, order-insensitive). */
    CampaignResult &operator+=(const CampaignResult &o)
    {
        injected += o.injected;
        masked += o.masked;
        noisy += o.noisy;
        sdc += o.sdc;
        recovered += o.recovered;
        detected += o.detected;
        uncovered += o.uncovered;
        trialErrors += o.trialErrors;
        hungBare += o.hungBare;
        hungProtected += o.hungProtected;
        skippedProvablyMasked += o.skippedProvablyMasked;
        earlyTerminated += o.earlyTerminated;
        partial = partial || o.partial;
        ciStopped = ciStopped || o.ciStopped;
        replayedTrials += o.replayedTrials;
        bins += o.bins;
        phases += o.phases;
        sched += o.sched;
        profile += o.profile;
        return *this;
    }
};

/** Run a campaign on one core configuration and program. */
CampaignResult runCampaign(const pipeline::CoreParams &params,
                           const isa::Program *prog,
                           const CampaignConfig &cfg);

/**
 * Per-trial result consumer: called once per executed trial, in trial
 * order, with the trial's counter deltas and its sampling metadata
 * (stratum, site, attribution — see TrialMeta). This is the journal's
 * record stream generalized — runCampaign's sink appends to the
 * TrialJournal and folds the profile, a distributed worker's sink
 * frames the same deltas + meta onto a socket.
 */
using TrialSink = std::function<void(
    u64 trial, const CampaignResult &delta, const TrialMeta &meta)>;

/** What a CampaignSession::runRange call actually covered. */
struct RangeOutcome
{
    /** First trial not produced: range end, or where the run stopped. */
    u64 nextTrial = 0;
    /** The master halted; no trial >= nextTrial exists in this
     *  campaign (deterministic: every process sees the same halt). */
    bool halted = false;
    /** A shutdown request drained the range early at nextTrial. */
    bool stopped = false;
    /** Producer-side wall time (master advance + snapshots) spent in
     *  this call; worker-side phase time rides in the trial deltas. */
    CampaignPhases phases;
    /** Master-side scheduler counters accumulated during this call
     *  (trial forks report theirs through the trial deltas). */
    SchedCounters sched;
};

/**
 * An incrementally drivable campaign: the master machine plus all loop
 * state of runCampaign, exposed as a sequence of runRange calls so a
 * distributed worker can execute just its leased trial-index ranges.
 *
 * Determinism: the master's advance is a pure function of the gap
 * schedule (seeded by cfg.seed), and each trial's outcome is a pure
 * function of (config, trial index) — trials outside [begin, end) are
 * skipped by advancing their gaps without snapshotting or forking, so
 * the trials that *are* executed see exactly the machine state and
 * draw exactly the plans of a full single-process run. Ranges must be
 * visited in increasing trial order within one session; a worker
 * leased an earlier range builds a fresh session.
 */
class CampaignSession
{
  public:
    /** Builds the master and runs warmup (fatal if the workload halts
     *  during it, as runCampaign always was). cfg.journalPath is
     *  ignored here — journaling belongs to the caller's sink. */
    CampaignSession(const pipeline::CoreParams &params,
                    const isa::Program *prog, const CampaignConfig &cfg);
    ~CampaignSession();

    CampaignSession(const CampaignSession &) = delete;
    CampaignSession &operator=(const CampaignSession &) = delete;

    /**
     * Produce and execute trials [max(begin, position()), min(end,
     * cfg.injections)), calling sink in trial order; trials below
     * begin are skip-advanced. A non-terminal range closes its last
     * windows on a scratch copy of the master, so the schedule seen
     * by later ranges is untouched.
     */
    RangeOutcome runRange(u64 begin, u64 end, const TrialSink &sink);

    /** Next producible trial index (monotonic across runRange calls). */
    u64 position() const;

    /**
     * Reset the session to its post-warmup state (position() == 0), so
     * a re-issued earlier range can be served without rebuilding the
     * session — and in particular without re-running warmup, which
     * dominates session construction. The master machine is restored
     * from a retained warm snapshot by buffer-reusing assignment, the
     * gap schedule restarts from cfg.seed, and the golden ledger is
     * rebuilt empty; everything downstream is a pure function
     * of (config, trial index), so trials re-executed after a rewind
     * are bit-identical to their first execution.
     */
    void rewind();

    /** The stratification of this campaign's injection mix (labels in
     *  fixed mode, draw constraints + CI weights in adaptive mode). */
    const StratumSpace &strata() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace fh::fault

#endif // FH_FAULT_CAMPAIGN_HH
