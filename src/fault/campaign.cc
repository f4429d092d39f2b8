#include "fault/campaign.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "exec/thread_pool.hh"
#include "fault/golden_ledger.hh"
#include "fault/journal.hh"
#include "sim/config.hh"
#include "sim/error.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace fh::fault
{

namespace
{

/** Wall-clock phase accounting (never feeds classification). */
using PhaseClock = std::chrono::steady_clock;

u64
nsSince(PhaseClock::time_point t0)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            PhaseClock::now() - t0)
            .count());
}

/** Detector-stat deltas observed by a protected faulty fork. */
struct DetectorDelta
{
    u64 triggers = 0;
    u64 suppressed = 0;
    u64 replays = 0;
    u64 rollbacks = 0;
    u64 commitTriggers = 0;
};

DetectorDelta
deltaOf(const pipeline::Core &fork, const filters::DetectorStats &m)
{
    const auto &f = fork.detector().stats();
    return {f.triggers - m.triggers, f.suppressed - m.suppressed,
            f.replays - m.replays, f.rollbacks - m.rollbacks,
            f.commitTriggers - m.commitTriggers};
}

/**
 * Everything a thread needs to execute one injection trial without
 * touching the (still advancing) master: a full machine snapshot at
 * the injection point, the drawn plan, the per-SMT-thread commit
 * targets, and the master-side state the classifier compares against.
 */
struct Trial
{
    pipeline::Core master;
    InjectionPlan plan;
    std::vector<u64> targets;
    pipeline::PregPhase phase;
    filters::DetectorStats masterStats;
    u64 index = 0; ///< campaign trial number (journal key, repro id)
    /**
     * The injection provably cannot change any observable outcome, so
     * the faulty forks need not run at all. True for three plans:
     *
     *  - Target::None — apply() is a no-op, the "fault" strikes idle
     *    logic; the bare fork is literally a no-fault fork.
     *  - Target::Lsq with an empty LSQ at the snapshot — apply()
     *    refuses (returns false), same no-op.
     *  - Target::RegFile into a free-listed preg. The flip touches
     *    only the value word: ready/free bits and both rename maps are
     *    untouched. While free, the preg is unreadable — preg
     *    reclamation frees a preg only when the next writer of its
     *    arch register commits, and in-order commit means every
     *    reader (including deferred store-data capture) has issued
     *    and read by then; archState and the detectors read only
     *    mapped/owned pregs. Leaving the free state goes through
     *    allocate(), which clears the ready bit, so the producer's
     *    full-word write lands before any consumer read. The corrupt
     *    bits are therefore dead on arrival.
     *
     * In each case the bare fork is bit-equivalent to a no-fault fork,
     * which reproduces the master's own window — the same
     * master-as-golden invariant the ledger already rests on.
     */
    bool provablyMasked = false;
    /** Sampling metadata (stratum, site, attribution), filled at the
     *  snapshot; the trial runner adds its flags and exit cycle. */
    TrialMeta meta{};
};

/** Evaluate Trial::provablyMasked against the snapshot-time master
 *  (the fork sees exactly this state, so the checks transfer). */
bool
provablyMasked(const pipeline::Core &master, const InjectionPlan &plan,
               pipeline::PregPhase phase)
{
    switch (plan.target) {
      case Target::None:
        return true;
      case Target::Lsq:
        return master.lsqOccupied() == 0;
      case Target::RegFile:
        return phase == pipeline::PregPhase::Free;
      case Target::Rename:
        return false;
    }
    return false;
}

/**
 * Per-thread reusable fork machines. The first trial a thread executes
 * allocates them (one machine per fork kind); every later fork
 * restores into the same flat buffers via runForkInto — one arena
 * memcpy plus the copy-on-write memory/filter copies — so a fork then
 * allocates only the page tables and 4 KiB pages its stores copy.
 */
struct ForkScratch
{
    std::optional<ForkOutcome> bare;
    std::optional<ForkOutcome> prot;
};

ForkOutcome &
forkInto(std::optional<ForkOutcome> &slot, const pipeline::Core &base,
         const InjectionPlan *plan, bool detector_enabled,
         const std::vector<u64> &targets, Cycle max_cycles,
         bool arm_regfile_watch = false)
{
    if (!slot)
        slot.emplace(runFork(base, plan, detector_enabled, targets,
                             max_cycles, arm_regfile_watch));
    else
        runForkInto(*slot, base, plan, detector_enabled, targets,
                    max_cycles, arm_regfile_watch);
    return *slot;
}

/** Consuming flavor: swaps the snapshot into the scratch. A thread's
 *  first fork of each kind has no scratch yet and copies instead,
 *  once per thread and fork kind per session. */
ForkOutcome &
forkInto(std::optional<ForkOutcome> &slot, pipeline::Core &&base,
         const InjectionPlan *plan, bool detector_enabled,
         const std::vector<u64> &targets, Cycle max_cycles,
         bool arm_regfile_watch = false)
{
    if (!slot)
        return forkInto(slot, base, plan, detector_enabled, targets,
                        max_cycles, arm_regfile_watch);
    runForkInto(*slot, std::move(base), plan, detector_enabled, targets,
                max_cycles, arm_regfile_watch);
    return *slot;
}

/**
 * The SDC fault ran through a protected fork — decide
 * recovered/detected/uncovered and the Figure 11 bin. golden_trapped
 * is the golden entry's trap status; prot_matches_golden must already
 * include the reached-targets and no-trap guards.
 */
void
classifyProtected(CampaignResult &r, const Trial &t,
                  const ForkOutcome &prot, bool golden_trapped,
                  bool prot_matches_golden)
{
    const bool det = prot.core.faultDetected() ||
                     (prot.trapped && !golden_trapped);
    const bool recov = prot_matches_golden;

    if (recov && !det) {
        ++r.recovered;
        ++r.bins.covered;
        return;
    }
    if (det) {
        ++r.detected;
        ++r.bins.covered;
        return;
    }
    ++r.uncovered;

    // Figure 11 binning for the uncovered fault.
    if (t.plan.target == Target::Rename) {
        ++r.bins.renameUncovered;
        return;
    }
    DetectorDelta d = deltaOf(prot.core, t.masterStats);
    if (d.triggers == 0) {
        ++r.bins.noTrigger;
    } else if (d.suppressed > 0 && d.replays == 0 && d.rollbacks == 0 &&
               d.commitTriggers == 0) {
        ++r.bins.secondLevelMasked;
    } else if (t.plan.target == Target::RegFile &&
               (t.phase == pipeline::PregPhase::Completed ||
                t.phase == pipeline::PregPhase::Architectural)) {
        ++r.bins.completedReg;
        if (t.phase == pipeline::PregPhase::Architectural)
            ++r.bins.archReg;
    } else {
        ++r.bins.other;
    }
}

/**
 * Classify one trial. There is no golden execution: the bare (and,
 * for SDC faults, protected) fork is compared against the master's
 * golden checkpoint with O(threads + segments) arch/digest compares.
 * A pure function of the descriptor (safe on any thread; the
 * returned single-trial counters merge into CampaignResult with
 * order-insensitive adds), except that the last fork consumes
 * t.master by move — the trial slot is dead after this and gets
 * overwritten at its next refill.
 */
CampaignResult
runTrial(const pipeline::CoreParams &params, const CampaignConfig &cfg,
         Trial &t, const GoldenLedger::Entry &g, ForkScratch &fs)
{
    CampaignResult r;
    ++r.injected;
    // Scheduler observability: each fork starts from the snapshot's
    // counters, so its contribution is the delta past them. Captured
    // before the move-consuming fork.
    const pipeline::CoreStats snapStats = t.master.stats();

    // A provably dead injection against a genuinely-crossed, untrapped
    // golden entry: a no-fault fork reaches its targets and samples
    // exactly this entry (the ledger's master-as-golden invariant),
    // and the bare fork is bit-equivalent to a no-fault fork (see
    // Trial::provablyMasked) — masked, no fork needed. A non-crossed
    // or trapped entry falls through to the real forks: there the
    // no-fault replay freezes short of its targets and must take the
    // noisy path with its hung-bare diagnostic.
    if (t.provablyMasked && g.crossed && !g.trapped) {
        ++r.masked;
        ++r.skippedProvablyMasked;
        t.meta.flags |= kMetaSkippedProvablyMasked;
        return r;
    }

    // With no protected scheme there is no third fork, so the bare
    // fork is the trial's last and takes the snapshot by swap.
    const bool bare_is_last =
        params.detector.scheme == filters::Scheme::None;

    // A crossed, untrapped golden entry licenses the regfile fault
    // watch: erasure-before-any-read makes the bare fork equivalent to
    // a no-fault fork, and the ledger's master-as-golden invariant
    // says that fork reaches its targets and matches the entry.
    const bool arm = cfg.earlyStop && g.crossed && !g.trapped;
    auto t0 = PhaseClock::now();
    ForkOutcome &bare =
        bare_is_last
            ? forkInto(fs.bare, std::move(t.master), &t.plan, false,
                       t.targets, cfg.forkMaxCycles, arm)
            : forkInto(fs.bare, t.master, &t.plan, false, t.targets,
                       cfg.forkMaxCycles, arm);
    r.phases.bareNs += nsSince(t0);
    r.sched += SchedCounters::delta(bare.core.stats(), snapStats);
    t.meta.exitCycle = bare.exitCycle;

    if (bare.earlyMasked) {
        // The injected bit was provably erased before any consumer
        // read it: the rest of the window replays a no-fault fork,
        // which matches the crossed, untrapped entry — masked.
        t.meta.flags |= kMetaEarlyTerminated;
        ++r.masked;
        ++r.earlyTerminated;
        return r;
    }

    if (!bare.reachedTargets)
        ++r.hungBare; // diagnostic only; still classified noisy below
    const bool noisy = bare.trapped != g.trapped || !bare.reachedTargets;
    if (noisy) {
        ++r.noisy;
        return r;
    }
    t0 = PhaseClock::now();
    const bool masked = GoldenLedger::matches(g, bare.core);
    r.phases.compareNs += nsSince(t0);
    if (masked) {
        ++r.masked;
        return r;
    }
    ++r.sdc;

    if (bare_is_last) {
        ++r.uncovered;
        ++r.bins.other;
        return r;
    }

    // Protected faulty fork: does the scheme cover the fault? This is
    // the trial's last fork, so it takes the snapshot by swap (the
    // trial slot inherits the scratch's old buffers and is overwritten
    // in place at the next refill).
    t0 = PhaseClock::now();
    ForkOutcome &prot =
        forkInto(fs.prot, std::move(t.master), &t.plan, true, t.targets,
                 cfg.forkMaxCycles);
    r.phases.protectedNs += nsSince(t0);
    r.sched += SchedCounters::delta(prot.core.stats(), snapStats);

    if (!prot.reachedTargets)
        ++r.hungProtected; // diagnostic; classification unchanged
    t0 = PhaseClock::now();
    const bool prot_matches = prot.reachedTargets && !prot.trapped &&
                              GoldenLedger::matches(g, prot.core);
    r.phases.compareNs += nsSince(t0);
    classifyProtected(r, t, prot, g.trapped, prot_matches);
    return r;
}

/**
 * Trial fault isolation: execute one trial's forks inside a
 * PanicScope. An fh_panic or fh_assert raised by the (deliberately
 * corrupted) forked machine surfaces here as a SimError; the trial is
 * counted in trialErrors with its injection plan logged for offline
 * reproduction, and the campaign keeps running. Under FH_STRICT=1
 * (the CI default) panics abort the process instead. The guard is
 * scoped to the trial, whichever thread runs it: a panic in the
 * master's advance still aborts.
 */
CampaignResult
runTrialGuarded(const pipeline::CoreParams &params,
                const CampaignConfig &cfg, Trial &t,
                const GoldenLedger::Entry &g, ForkScratch &fs)
{
    try {
        PanicScope guard;
        if (t.index == cfg.panicAtTrial)
            fh_panic("campaign debug hook: forced panic in trial %llu",
                     static_cast<unsigned long long>(t.index));
        return runTrial(params, cfg, t, g, fs);
    } catch (const SimError &e) {
        CampaignResult r;
        ++r.injected;
        ++r.trialErrors;
        const InjectionPlan &p = t.plan;
        fh_warn("trial %llu isolated after an in-fork error: %s\n"
                "  repro: FH_STRICT=1 with seed=%llu, plan{target=%s "
                "preg=%u lsqNth=%u lsqAddrField=%d tid=%u arch=%u "
                "bit=%u}",
                static_cast<unsigned long long>(t.index),
                e.what(),
                static_cast<unsigned long long>(cfg.seed),
                to_string(p.target).c_str(), p.preg, p.lsqNth,
                p.lsqAddrField ? 1 : 0, p.tid, p.arch, p.bit);
        return r;
    }
}

} // namespace

void
readSchedule(const Config &cfg, CampaignConfig &c)
{
    // A half-width of 0.5 already spans every rate.
    constexpr double kMaxCiTarget = 0.5;
    constexpr u64 kAny = ~u64{0};
    const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
    cfg.declareKey("injections",
                   csprintf("campaign injections, at least 1 (default "
                            "%llu)",
                            ull(c.injections)));
    cfg.declareKey("window",
                   csprintf("campaign run window in instructions per SMT "
                            "thread, at least 1 (default %llu)",
                            ull(c.window)));
    cfg.declareKey("seed",
                   csprintf("campaign seed (default %llu) and workload "
                            "seed (default %#llx), any 64-bit value",
                            ull(c.seed),
                            ull(workload::WorkloadSpec{}.seed)));
    cfg.declareKey("ci_target",
                   "adaptive stop: pooled SDC-rate CI half-width "
                   "target, 0-0.5: 0 = fixed-count campaign; a "
                   "half-width of 0.5 already spans every rate");
    cfg.declareKey("ci_wave",
                   csprintf("adaptive stop wave size in trials, at least "
                            "1 (default %llu)",
                            ull(c.ciWave)));
    c.injections = cfg.getU64("injections", c.injections, 1, kAny);
    c.window = cfg.getU64("window", c.window, 1, kAny);
    c.seed = cfg.getU64("seed", c.seed);
    c.ciTarget = cfg.getDouble("ci_target", c.ciTarget, 0, kMaxCiTarget);
    c.ciWave = cfg.getU64("ci_wave", c.ciWave, 1, kAny);
}

unsigned
resolveForkThreads(unsigned threads)
{
    return threads ? threads : std::max(1u, exec::hardwareThreads() - 1);
}

/**
 * All loop state of runCampaign, held across runRange calls so a
 * distributed worker can execute its leased ranges incrementally.
 */
struct CampaignSession::Impl
{
    struct Pending
    {
        u32 trialIdx; ///< index into trialPool
        u32 slot;     ///< ledger checkpoint slot
    };

    /**
     * One trial of the stream. The producer fills in everything but the
     * result when the trial's ledger entry completes; the thread that
     * runs the trial reads the trial and entry through the pointers
     * (never through trialPool or the ledger, which the producer keeps
     * mutating) and writes the result.
     */
    struct StreamTrial
    {
        Pending at;
        Trial *trial;
        const GoldenLedger::Entry *golden;
        CampaignResult result;
    };

    Impl(const pipeline::CoreParams &params_in, const isa::Program *prog,
         const CampaignConfig &cfg_in)
        : params(params_in),
          cfg(cfg_in),
          strataSpace(cfg_in.mix),
          master(params_in, prog),
          gapRng(cfg_in.seed),
          threads(resolveForkThreads(cfg_in.threads)),
          streamCap(std::max<u64>(u64{threads} * 4, 8)),
          pool(threads)
    {
        if (!GoldenLedger::supports(master, *prog))
            fh_fatal("program '%s' does not give each SMT thread a "
                     "memory segment of its own; the golden ledger "
                     "needs one per thread",
                     prog->name.c_str());

        // Warm up caches, predictors and filters.
        while (master.committedTotal() < cfg.warmupInsts &&
               !master.allHalted()) {
            master.step(std::numeric_limits<Cycle>::max());
        }
        if (master.allHalted())
            fh_fatal("workload '%s' halted during warmup; "
                     "increase its iteration count",
                     prog->name.c_str());

        ledger = std::make_unique<GoldenLedger>(master);
        master.setCommitObserver(ledger.get());
        streamed.resize(streamCap);
        scratch.resize(threads + 1);
    }

    bool stopRequested() const
    {
        return exec::shutdownRequested() ||
               (cfg.stopAfterTrials && executed >= cfg.stopAfterTrials);
    }

    /** Advance the master over one inter-injection gap; true if it ran
     *  to completion (false = the workload halted inside it). Ledger
     *  entries of earlier trials complete inside these ticks. */
    bool advanceGap()
    {
        const Cycle gap = gapRng.range(cfg.minGap, cfg.maxGap);
        master.advance(gap);
        if (master.allHalted()) {
            halted = true;
            return false;
        }
        return true;
    }

    /**
     * Draw trial t's plan and fill its sampling metadata. Fixed mode
     * (ciTarget == 0) keeps the legacy per-trial stream and mix draw —
     * bit-identical schedules to previous revisions — and only labels
     * the stratum post hoc. Adaptive mode rotates strata round-robin
     * by trial index with per-stratum RNG streams, so each stratum's
     * sample sequence is a pure function of (seed, stratum, count) —
     * independent of when other strata stop contributing.
     */
    InjectionPlan drawTrialPlan(u64 t, TrialMeta &meta)
    {
        InjectionPlan plan;
        if (cfg.ciTarget > 0.0) {
            const unsigned s =
                static_cast<unsigned>(t % StratumSpace::kCount);
            Rng rng =
                Rng::stream(cfg.seed ^ StratumSpace::stratumSalt(s),
                            t / StratumSpace::kCount);
            plan = strataSpace.draw(master, s, rng);
            meta.stratum = s;
        } else {
            Rng rng = Rng::stream(cfg.seed, t);
            plan = drawPlan(master, cfg.mix, rng);
            meta.stratum = StratumSpace::stratumOf(plan);
        }
        meta.structure = static_cast<u8>(plan.target);
        meta.bit = static_cast<u8>(plan.bit);
        meta.cycleBucket = StratumSpace::cycleBucket(master.cycle());
        meta.flags = 0;
        meta.pc = plan.faultPc;
        meta.exitCycle = 0;
        return plan;
    }

    RangeOutcome runRange(u64 begin, u64 end, const TrialSink &sink);

    pipeline::CoreParams params;
    CampaignConfig cfg;
    StratumSpace strataSpace;
    pipeline::Core master;
    Rng gapRng;
    unsigned threads;
    /** Most trials streamed and not yet sunk: max(4 * threads, 8),
     *  the slot budget of the two waves the stream replaced. */
    u64 streamCap;
    std::unique_ptr<GoldenLedger> ledger;

    u64 trial = 0;    ///< next producible trial index
    u64 executed = 0; ///< trials actually executed by this session
    bool halted = false;

    // Reusable fork machines per thread that runs trials, indexed by
    // the stream's worker index: 0..threads-1 for the pool's workers,
    // threads for the producer.
    std::vector<ForkScratch> scratch;
    // Reusable trial slots: a retired slot's snapshot is overwritten
    // in place (a flat arena memcpy plus copy-on-write memory/filter
    // copies); memory pages only the old snapshot held are freed, and
    // the master's first store to a page it shares with a snapshot
    // copies the page. A deque so the trials the stream holds stay
    // put while the producer appends new slots.
    std::deque<Trial> trialPool;
    std::vector<u32> freeTrials;
    // Produced trials whose windows the master has not fully crossed
    // yet; bounded by window/minGap in practice.
    std::deque<Pending> inflight;
    // The stream's trials: item k at streamed[k % streamCap].
    std::vector<StreamTrial> streamed;
    // Runs trials only inside runRange's stream, whose destructor lets
    // the running ones finish, even when runRange unwinds.
    exec::ThreadPool pool;
};

/**
 * Produce and execute one range. The master advances gap by gap (no
 * extra ticks between snapshots), so the injection points are a pure
 * function of the seed. A produced trial waits in a FIFO until the
 * master's own advance crosses all its commit targets (completing its
 * ledger entry, usually within the next trial or two's gaps);
 * completed trials join the stream of trials on the session's pool,
 * whose workers claim them in order while the master produces the
 * next ones. Windows still open at the end of
 * the range are closed by extra "drain" ticks — on the real master
 * when nothing further depends on its cycle position (final range,
 * halt, or shutdown), and otherwise on a scratch copy, so a later
 * range still sees the exact single-process schedule.
 * Either way an entry finalizes at the same commit counts with the
 * same sampled state: that is the ledger's master-as-golden argument.
 *
 * Only this (the calling) thread touches the master, the ledger, the
 * trial slots and the sink; the thread that runs a streamed trial sees
 * only that trial and its complete entry, which stay untouched until
 * the trial is sunk. This thread runs trials too, but never while it
 * could produce one: when the stream is full, and while it drains at
 * the end of the range. Every trial produced here is sunk before the
 * call returns.
 */
RangeOutcome
CampaignSession::Impl::runRange(u64 begin, u64 end, const TrialSink &sink)
{
    RangeOutcome out;
    CampaignPhases produced;
    const pipeline::CoreStats masterBase = master.stats();
    bool stopped = false;

    exec::ThreadPool::Stream stream(
        pool, streamCap, [this](u64 k, unsigned worker) {
            StreamTrial &s = streamed[k % streamCap];
            s.result = runTrialGuarded(params, cfg, *s.trial, *s.golden,
                                       scratch[worker]);
        });
    auto sinkDone = [&] {
        // Sink in trial (production) order, as soon as the oldest
        // trial is done: bit-identical for any worker count. Ledger
        // slots and trial slots both free up for the next opens.
        for (u64 k = stream.retired(); stream.retire(); ++k) {
            const StreamTrial &s = streamed[k % streamCap];
            sink(s.trial->index, s.result, s.trial->meta);
            ledger->release(s.at.slot);
            freeTrials.push_back(s.at.trialIdx);
        }
    };
    auto promote = [&] {
        // Entries complete in production order: per-thread targets are
        // nondecreasing, so the FIFO's front always finishes first.
        while (!inflight.empty() &&
               ledger->complete(inflight.front().slot)) {
            // A full stream: run its oldest unclaimed trial here
            // instead of sleeping until a worker's trial is done.
            while (stream.full()) {
                stream.help();
                sinkDone();
            }
            const Pending p = inflight.front();
            inflight.pop_front();
            streamed[stream.pushed() % streamCap] = {
                p, &trialPool[p.trialIdx], &ledger->entry(p.slot), {}};
            stream.push();
        }
    };

    while (trial < end && !halted) {
        // Graceful shutdown: stop opening new trials. The in-flight
        // ones drain through the normal tail below — their windows
        // close, they classify, and they reach the sink — so an
        // interrupted run's record stream is always a clean prefix.
        if (stopRequested()) {
            stopped = true;
            break;
        }
        // The rate clock starts with the first executed trial's gap,
        // after the warmup and any skip-advance over replayed trials.
        if (trial >= begin && cfg.progress)
            cfg.progress->start();
        // Advance the master to the next injection point.
        auto t0 = PhaseClock::now();
        const bool ran = advanceGap();
        produced.goldenNs += nsSince(t0);
        if (!ran)
            break;

        // Skip-advance: a trial below the range (journal-replayed by
        // the caller, or leased to another worker) consumed its gap —
        // same schedule as a full run — but needs no snapshot, ledger
        // entry or forks here.
        if (trial < begin) {
            ++trial;
            continue;
        }

        // The plan comes from the trial's own stream, so the injection
        // schedule is a pure function of (seed, trial) regardless of
        // how many workers execute the forks.
        t0 = PhaseClock::now();
        TrialMeta meta;
        const InjectionPlan plan = drawTrialPlan(trial, meta);
        // Record register lifetime phase before any fork runs.
        pipeline::PregPhase phase = pipeline::PregPhase::Free;
        if (plan.target == Target::RegFile)
            phase = master.pregPhase(plan.preg);
        const bool provable = provablyMasked(master, plan, phase);

        u32 tidx;
        if (!freeTrials.empty()) {
            // Reuse a retired trial slot: the snapshot lands in its
            // existing arena (a flat memcpy), targets reuse capacity.
            tidx = freeTrials.back();
            freeTrials.pop_back();
            Trial &tslot = trialPool[tidx];
            tslot.master = master;
            tslot.plan = plan;
            windowTargetsInto(tslot.targets, master, cfg.window);
            tslot.phase = phase;
            tslot.masterStats = master.detector().stats();
            tslot.index = trial;
            tslot.provablyMasked = provable;
            tslot.meta = meta;
        } else {
            tidx = static_cast<u32>(trialPool.size());
            trialPool.push_back(Trial{master, plan,
                                      windowTargets(master, cfg.window),
                                      phase, master.detector().stats(),
                                      trial, provable, meta});
        }
        const u32 slot = ledger->open(trialPool[tidx].targets);
        inflight.push_back({tidx, slot});
        produced.snapshotNs += nsSince(t0);
        ++trial;
        ++executed;

        sinkDone();
        promote();
    }

    // Drain: the last trials' windows extend past the range's final
    // snapshot. When this is the campaign's end (or the master halted
    // / the run was stopped — terminal either way), the schedule no
    // longer matters and the real master ticks until the youngest
    // entry completes, bounded like a fork. A non-terminal range
    // instead drains a scratch copy: identical machine, identical
    // commit crossings, identical sampled entries — but the real
    // master stays at its exact schedule position for the next range.
    auto t0 = PhaseClock::now();
    if (!inflight.empty()) {
        const bool terminal =
            end >= cfg.injections || halted || stopped;
        pipeline::Core *drainee = &master;
        std::unique_ptr<pipeline::Core> drainCopy;
        if (!terminal) {
            drainCopy = std::make_unique<pipeline::Core>(master);
            master.setCommitObserver(nullptr);
            ledger->retarget(*drainCopy);
            drainCopy->setCommitObserver(ledger.get());
            drainee = drainCopy.get();
        }
        Cycle drained = 0;
        while (!ledger->complete(inflight.back().slot) &&
               !drainee->allHalted() && drained < cfg.forkMaxCycles) {
            drained += drainee->step(cfg.forkMaxCycles - drained);
        }
        if (!ledger->complete(inflight.back().slot))
            ledger->forceFinalizeAll(); // hung master; see GoldenLedger
        if (!terminal) {
            drainCopy->setCommitObserver(nullptr);
            ledger->retarget(master);
            master.setCommitObserver(ledger.get());
        }
    }
    produced.goldenNs += nsSince(t0);

    promote();
    fh_assert(inflight.empty(), "ledger drain left incomplete entries");
    for (sinkDone(); !stream.empty(); sinkDone())
        stream.help();

    out.nextTrial = trial;
    out.halted = halted;
    out.stopped = stopped;
    out.phases = produced;
    out.sched = SchedCounters::delta(master.stats(), masterBase);
    return out;
}

CampaignSession::CampaignSession(const pipeline::CoreParams &params,
                                 const isa::Program *prog,
                                 const CampaignConfig &cfg)
    : impl_(std::make_unique<Impl>(params, prog, cfg))
{
}

CampaignSession::~CampaignSession() = default;

u64
CampaignSession::position() const
{
    return impl_->trial;
}

const StratumSpace &
CampaignSession::strata() const
{
    return impl_->strataSpace;
}

RangeOutcome
CampaignSession::runRange(u64 begin, u64 end, const TrialSink &sink)
{
    fh_assert(begin >= impl_->trial,
              "campaign ranges must be visited in increasing order "
              "(begin %llu < position %llu); build a fresh session",
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(impl_->trial));
    end = std::min(end, impl_->cfg.injections);
    if (impl_->halted || impl_->trial >= end) {
        RangeOutcome out;
        out.nextTrial = impl_->trial;
        out.halted = impl_->halted;
        return out;
    }
    return impl_->runRange(begin, end, sink);
}

CampaignMerge::CampaignMerge(const CampaignConfig &cfg,
                             TrialJournal *journal,
                             exec::ProgressMeter *progress)
    : journal_(journal),
      progress_(progress),
      injections_(cfg.injections),
      ciTarget_(cfg.ciTarget),
      wave_(std::max<u64>(cfg.ciWave, 1)),
      strata_(cfg.mix),
      end_(cfg.injections)
{
    if (journal_) {
        // A journaled trial's outcome is already known: fold it as an
        // uninterrupted run did, without executing it.
        for (; next_ < journal_->replayCount(); ++next_)
            fold(journal_->replayed(next_), journal_->replayedMeta(next_));
        result_.replayedTrials = next_;
        if (progress_)
            progress_->replayed(next_);
    }
    applyStopRule();
}

void
CampaignMerge::fold(const CampaignResult &delta, const TrialMeta &meta)
{
    result_ += delta;
    result_.profile.addTrial(delta, meta);
}

void
CampaignMerge::add(u64 trial, const CampaignResult &delta,
                   const TrialMeta &meta)
{
    fh_assert(trial == next_ && next_ < end_,
              "campaign merge got trial %llu; expected %llu below %llu",
              static_cast<unsigned long long>(trial),
              static_cast<unsigned long long>(next_),
              static_cast<unsigned long long>(end_));
    if (journal_)
        journal_->record(trial, delta, meta);
    fold(delta, meta);
    if (progress_)
        progress_->tick();
    ++next_;
    applyStopRule();
}

void
CampaignMerge::applyStopRule()
{
    // Bounded by injections, not end_: a halt must not suppress the
    // rule (see the class comment).
    if (ciTarget_ <= 0.0 || next_ == 0 || next_ >= injections_ ||
        next_ % wave_ != 0 ||
        pooledSdcHalfWidth(result_.profile, strata_) > ciTarget_) {
        return;
    }
    result_.ciStopped = true;
    end_ = next_;
}

void
CampaignMerge::halt(u64 at)
{
    end_ = std::min(end_, at);
}

void
CampaignMerge::addProducerCost(const RangeOutcome &out)
{
    result_.phases += out.phases;
    result_.sched += out.sched;
}

u64
CampaignMerge::rangeEnd() const
{
    if (ciTarget_ <= 0.0)
        return end_;
    return std::min(end_, (next_ / wave_ + 1) * wave_);
}

CampaignResult
CampaignMerge::result() const
{
    CampaignResult r = result_;
    r.partial = next_ < end_;
    return r;
}

void
runLocal(CampaignSession &session, CampaignMerge &merge)
{
    const TrialSink sink = [&merge](u64 trial, const CampaignResult &delta,
                                    const TrialMeta &meta) {
        merge.add(trial, delta, meta);
    };
    while (merge.next() < merge.end()) {
        const RangeOutcome out =
            session.runRange(merge.next(), merge.rangeEnd(), sink);
        merge.addProducerCost(out);
        if (out.halted)
            merge.halt(out.nextTrial);
        if (out.stopped)
            return;
    }
}

CampaignResult
runCampaign(const pipeline::CoreParams &params, const isa::Program *prog,
            const CampaignConfig &cfg)
{
    // The session runs warmup; a workload that halts inside it is
    // fatal before any journal is touched. The journal's header pins
    // the configuration, so a resumed run either continues
    // bit-identically or refuses.
    CampaignSession session(params, prog, cfg);
    std::unique_ptr<TrialJournal> journal;
    if (!cfg.journalPath.empty())
        journal = std::make_unique<TrialJournal>(
            cfg.journalPath, cfg,
            filters::to_string(params.detector.scheme));
    CampaignMerge merge(cfg, journal.get(), cfg.progress);
    runLocal(session, merge);
    return merge.result();
}

} // namespace fh::fault
