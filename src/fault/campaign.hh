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
 * Execution is sharded and overlapped: the master advances serially
 * between injection points, and each point is copied into a trial
 * whose golden entry the master's advance fills in. A trial is
 * (snapshot, index): once its entry completes it joins an in-order
 * stream, and the thread that runs it — a worker of the session's
 * exec::Stream, while the master produces the next trials — draws
 * its plan from its own Rng::stream(seed, trial_index) against the
 * snapshot and runs its forks. When the stream is full, and while a
 * range drains, the producer runs the oldest unclaimed trial itself.
 *
 * Every campaign runs through one CampaignMerge: it replays a
 * journal's prefix, folds each trial in index order on the calling
 * thread (journal record, counters, profile, progress tick) and
 * applies the adaptive stop rule. runCampaign is a CampaignSession, a
 * TrialJournal and a CampaignMerge joined by runLocal; the dist
 * coordinator feeds its workers' records into the same merge. The
 * outcome is therefore bit-identical for 1 and N fork threads, for
 * any worker count, and across journal resume.
 */

#ifndef FH_FAULT_CAMPAIGN_HH
#define FH_FAULT_CAMPAIGN_HH

#include <functional>
#include <memory>
#include <string>

#include "fault/fields.hh"
#include "fault/injector.hh"
#include "fault/sampling.hh"
#include "fault/tandem.hh"
#include "isa/program.hh"
#include "pipeline/core.hh"
#include "sim/rng.hh"

namespace fh
{
class Config;
} // namespace fh

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
    /** Fork cycle budget: the one bound on a trial's forks, so a hung
     *  fork ends at the same cycle on any host (hungBare and
     *  hungProtected count them). */
    Cycle forkMaxCycles = 400000;
    u64 seed = 1;
    InjectionMix mix{};

    /**
     * Fork threads: the exec::Stream workers that execute the
     * per-trial forks (bare / protected); 0 (the default) = one fewer
     * than the hardware threads, at least 1 (resolveForkThreads). The
     * producer — the thread calling runCampaign or runRange, which
     * advances the master — runs beside them, so a campaign occupies
     * threads + 1 host threads; 1 runs the forks on one thread while
     * the master advances on the other. The producer runs trials too,
     * but only when the stream of produced trials is full
     * (max(4 * threads, 8) of them) or a range drains. fhsim's
     * `jobs=` sets it, and the paper harnesses' cell runner sets it
     * from a harness's `jobs` budget (bench/harness.hh). The result is
     * bit-identical for every value: each trial
     * draws from its own Rng::stream(seed, trial_index) and per-trial
     * results reduce in trial order. Distinct from the simulated
     * core's SMT threads (see `window`).
     */
    unsigned threads = 0;
    /** Optional meter (may be null) runCampaign's merge ticks once per
     *  executed trial on the calling thread; journal-replayed trials
     *  count in its done() but not in its rate. The session starts its
     *  rate clock when it begins the first trial it executes. */
    exec::ProgressMeter *progress = nullptr;

    /**
     * Trial journal path (`journal=` in fhsim); empty = no journal.
     * Completed trials are appended (and flushed) in trial order; a
     * restarted campaign with the same configuration folds the
     * journaled prefix without executing it (the master skip-advances
     * over its gaps; a journal that covers the campaign executes
     * nothing), producing counters and SDC bins bit-identical to an
     * uninterrupted run. See fault/journal.hh.
     */
    std::string journalPath;

    /**
     * Debug/test hook: behave as if a shutdown signal arrived once
     * this many trials have been *executed* (not replayed) in this
     * run — the campaign drains in-flight trials, flushes the
     * journal, and returns a partial result. 0 = never. Exercised by
     * the kill-at-trial-K resume tests.
     */
    u64 stopAfterTrials = 0;

    /**
     * Debug/test hook: raise fh_panic inside the thread executing the
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
     * Adaptive stop target (`ci_target=`, readSchedule): when
     * > 0, trials draw stratified injection sites round-robin
     * (sampling.hh) and the campaign stops at the first wave boundary
     * where the pooled Wilson half-width on the SDC rate is <= this.
     * 0 (default) = fixed-count legacy mode, bit-identical schedules
     * and results to previous revisions. The stop decision is a pure
     * function of merged wave counters, so adaptive runs are
     * deterministic across thread and dist worker counts.
     */
    double ciTarget = 0.0;

    /** Adaptive wave size in trials (`ci_wave=`): the stop
     *  condition is evaluated only at multiples of this. */
    u64 ciWave = 64;
};

/**
 * Read the schedule keys a driver sets — `injections`, `window`,
 * `seed`, `ci_target` and `ci_wave` — from cfg into c: each defaults
 * to its value in c, must lie in its range (a value outside it is
 * fatal, naming the key), and is declared with its help line. fhsim,
 * the paper harnesses and dist::CampaignSpec::decode all read them
 * here. `seed`'s help line names its second role in fhsim and the
 * harnesses, the workload seed; a spec carries that as
 * `workload_seed`.
 */
void readSchedule(const Config &cfg, CampaignConfig &c);

/**
 * The fork threads a campaign runs (CampaignConfig::threads): threads
 * itself, or for 0 one fewer than the hardware threads, at least 1.
 * The producer runs trials too whenever they back up, so the default
 * keeps every hardware thread busy and not one more.
 */
unsigned resolveForkThreads(unsigned threads);

/**
 * Busy time per campaign phase, in nanoseconds, summed over threads:
 * master advance + ledger upkeep ("golden") and trial snapshot copies
 * on the producer, the bare and protected faulty forks and the state
 * comparisons on whichever thread runs the trial (a fork thread, or
 * the producer when its stream of trials is full). The producer runs
 * while the forks do, so these are not shares of wall time: totalNs()
 * exceeds the wall time whenever the two overlap. Fork-side terms sum
 * into each trial's own CampaignResult (merged in trial order);
 * producer-side terms arrive once per range through
 * RangeOutcome::phases.
 */
struct CampaignPhases
{
    u64 snapshotNs = 0;  ///< machine copies + ledger opens (producer)
    u64 goldenNs = 0;    ///< master advance + golden ledger upkeep
    u64 bareNs = 0;      ///< unprotected faulty forks
    u64 protectedNs = 0; ///< protected faulty forks
    u64 compareNs = 0;   ///< arch/digest comparisons

    /** FH_JSON "phases_ns" and "phases_pct" keys. */
    static constexpr auto fields()
    {
        using P = CampaignPhases;
        return std::to_array<Field<P, u64>>(
            {{"snapshot", &P::snapshotNs}, {"golden", &P::goldenNs},
             {"bare", &P::bareNs}, {"protected", &P::protectedNs},
             {"compare", &P::compareNs}});
    }

    u64 totalNs() const
    {
        u64 sum = 0;
        for (const auto &f : fields())
            sum += this->*f.member;
        return sum;
    }

    CampaignPhases &operator+=(const CampaignPhases &o)
    {
        return addFields(*this, o);
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
    u64 cycles = 0;          ///< simulated cycles, skipped ones included
    u64 skippedCycles = 0;   ///< quiet cycles jumped (Core::step)

    /** A member, its FH_JSON "scheduler" key and the CoreStats
     *  counter it counts. */
    struct SchedField
    {
        const char *key;
        u64 SchedCounters::*member;
        u64 pipeline::CoreStats::*stat;
    };

    static constexpr auto fields()
    {
        using S = SchedCounters;
        using C = pipeline::CoreStats;
        return std::to_array<SchedField>({
            {"wakeup_hits", &S::wakeupHits, &C::wakeupHits},
            {"overflow_parks", &S::overflowParks, &C::overflowParks},
            {"overflow_rescans", &S::overflowRescans, &C::overflowRescans},
            {"issue_evals", &S::issueEvals, &C::issueEvals},
            {"issue_candidates", &S::issueCandidates, &C::issueCandidates},
            {"cycles", &S::cycles, &C::cycles},
            {"skipped_cycles", &S::skippedCycles, &C::skippedCycles},
        });
    }

    SchedCounters &operator+=(const SchedCounters &o)
    {
        return addFields(*this, o);
    }

    /** Counter deltas between two CoreStats snapshots of one core. */
    static SchedCounters delta(const pipeline::CoreStats &now,
                               const pipeline::CoreStats &base)
    {
        SchedCounters d;
        for (const auto &f : fields())
            d.*f.member = now.*f.stat - base.*f.stat;
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

    /** FH_JSON "bins" keys, in journal order. */
    static constexpr auto fields()
    {
        using B = SdcBins;
        return std::to_array<Field<B, u64>>({
            {"covered", &B::covered},
            {"second_level_masked", &B::secondLevelMasked},
            {"completed_reg", &B::completedReg},
            {"arch_reg", &B::archReg},
            {"rename_uncovered", &B::renameUncovered},
            {"no_trigger", &B::noTrigger},
            {"other", &B::other},
        });
    }

    SdcBins &operator+=(const SdcBins &o) { return addFields(*this, o); }
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
     * panic (non-strict mode only). Counted in injected but in none
     * of masked/noisy/sdc; each one's injection plan is logged for
     * offline reproduction.
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
    CampaignPhases phases; ///< busy time per phase (not a count)
    SchedCounters sched;   ///< scheduler observability (not journaled)
    /** Per-site vulnerability profile; empty on per-trial deltas
     *  (CampaignMerge folds deltas + meta via VulnProfile::addTrial),
     *  so += leaves it alone. */
    VulnProfile profile;

    /**
     * The per-trial counters outside bins, with their FH_JSON
     * "classification" keys. These and the bins are the 19 counters
     * a trial journals (fault/journal.hh); everything else here
     * describes a run or a host, not a trial.
     */
    static constexpr auto fields()
    {
        using R = CampaignResult;
        return std::to_array<Field<R, u64>>({
            {"injected", &R::injected},
            {"masked", &R::masked},
            {"noisy", &R::noisy},
            {"sdc", &R::sdc},
            {"recovered", &R::recovered},
            {"detected", &R::detected},
            {"uncovered", &R::uncovered},
            {"trial_errors", &R::trialErrors},
            {"hung_bare", &R::hungBare},
            {"hung_protected", &R::hungProtected},
            {"skipped_provably_masked", &R::skippedProvablyMasked},
            {"early_terminated", &R::earlyTerminated},
        });
    }

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
        addFields(*this, o);
        bins += o.bins;
        phases += o.phases;
        sched += o.sched;
        partial = partial || o.partial;
        ciStopped = ciStopped || o.ciStopped;
        replayedTrials += o.replayedTrials;
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
 * record stream generalized — runLocal's sink hands each trial to a
 * CampaignMerge, a distributed worker's sink frames the same deltas +
 * meta onto a socket.
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
    /** Producer busy time (master advance + snapshots) in this call;
     *  fork-side phase time rides in the trial deltas. */
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
     *  during it, as runCampaign always was), then the fork machines
     *  and the stream of its fork threads, which live as long as the
     *  session. cfg.journalPath is ignored here: journaling belongs to
     *  the caller's merge. Of cfg.progress the session only starts the
     *  rate clock, when runRange begins the first trial it executes;
     *  the caller's merge ticks it. */
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
     * by later ranges is untouched. The forks run on the workers of
     * the session's stream, which live as long as the session (no
     * thread starts per call), and on the calling thread when the
     * stream is full or the range drains. sink runs on the calling
     * thread, and every call to it happens before runRange returns.
     * An exception from sink, or one that escaped a trial on any
     * thread, propagates at once; the session can then only be
     * destroyed, which lets the trials already on the stream finish.
     */
    RangeOutcome runRange(u64 begin, u64 end, const TrialSink &sink);

    /** Next producible trial index (monotonic across runRange calls). */
    u64 position() const;

    /** The stratification of this campaign's injection mix (labels in
     *  fixed mode, draw constraints + CI weights in adaptive mode). */
    const StratumSpace &strata() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

class TrialJournal; // fault/journal.hh

/**
 * The trial-order merge shared by every way to run a campaign —
 * runCampaign, the dist coordinator's lease merge and its dead-fleet
 * tail. It replays a journal's prefix, then folds each trial in index
 * order (journal record, counters, vulnerability profile, progress
 * tick).
 *
 * Adaptive stop rule (cfg.ciTarget > 0), evaluated after the replay
 * and after every fold, nowhere else: it fires when the merged prefix
 * next() is nonempty, lies on a wave boundary (a multiple of
 * max(ciWave, 1)) below cfg.injections, and the pooled SDC-rate
 * half-width is <= ciTarget; ciStopped is then set and end() shrinks
 * to next(). The decision is a pure function of the merged prefix, so
 * every thread count, worker count and resume point stops at the same
 * wave. A halt never suppresses it: the prefix cannot pass the halt
 * point, and a single process does not learn of the halt until it
 * tries to produce the trial there — so the coordinator, which may
 * hear of a halt first, still decides as a single process does.
 */
class CampaignMerge
{
  public:
    /** journal and progress may be null. The journal's replayed
     *  prefix is folded (and reported to progress as replayed) here,
     *  before any trial runs. */
    CampaignMerge(const CampaignConfig &cfg, TrialJournal *journal,
                  exec::ProgressMeter *progress);

    /** Fold one trial; trial must be next(), below end(). */
    void add(u64 trial, const CampaignResult &delta,
             const TrialMeta &meta);

    /** The master halted before producing trial `at`: no trial at or
     *  past it exists, so end() shrinks to it. */
    void halt(u64 at);

    /** Add one runRange call's producer-side cost: busy time and
     *  master scheduler counters (host-local, never journaled). */
    void addProducerCost(const RangeOutcome &out);

    /** Trials merged so far: the contiguous prefix [0, next()). */
    u64 next() const { return next_; }

    /** cfg.injections, shrunk by a halt or the adaptive stop. */
    u64 end() const { return end_; }

    /** End of the next range to run: end(), or in adaptive mode the
     *  next wave boundary before it (the stop rule's next chance). */
    u64 rangeEnd() const;

    /** The merged counters, profile and markers; partial when the
     *  prefix stopped short of end() (a shutdown). */
    CampaignResult result() const;

  private:
    void fold(const CampaignResult &delta, const TrialMeta &meta);
    void applyStopRule();

    TrialJournal *journal_;
    exec::ProgressMeter *progress_;
    u64 injections_;
    double ciTarget_;
    u64 wave_;
    StratumSpace strata_;
    CampaignResult result_;
    u64 next_ = 0;
    u64 end_;
};

/**
 * Drive session over merge's remaining ranges until merge.next()
 * reaches merge.end() (a halt or the adaptive stop shrinks it) or a
 * shutdown request drains a range early. The session's position must
 * not be past merge.next(). A merge that already covers the campaign
 * (a finished journal) runs no range at all.
 */
void runLocal(CampaignSession &session, CampaignMerge &merge);

} // namespace fh::fault

#endif // FH_FAULT_CAMPAIGN_HH
