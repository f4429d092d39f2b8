#include "fault/campaign.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "exec/stream.hh"
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
 * One injection trial, from its snapshot to its sink. The producer
 * copies the master into `snapshot` at the injection point and opens
 * `golden` at the trial's commit targets; that is all it does per
 * trial. The thread that runs the trial derives the rest from the
 * snapshot before a fork consumes it, and writes `meta` and `result`.
 * A sunk trial keeps its buffers: the next snapshot lands in them.
 */
struct Trial
{
    explicit Trial(const pipeline::Core &master) : snapshot(master) {}

    pipeline::Core snapshot;
    u64 index = 0; ///< campaign trial number (journal key, repro id)
    GoldenLedger::Entry golden;
    /** Sampling metadata (stratum, site, attribution), filled when the
     *  plan is drawn; the trial runner adds its flags and exit cycle. */
    TrialMeta meta{};
    CampaignResult result;
};

/**
 * Draw trial t's plan against its snapshot and fill its sampling
 * metadata. The snapshot is the master at the injection point, so the
 * plan is the one the master would draw. Fixed mode (ciTarget == 0)
 * keeps the legacy per-trial stream and mix draw — bit-identical
 * schedules to previous revisions — and only labels the stratum post
 * hoc. Adaptive mode rotates strata round-robin by trial index with
 * per-stratum RNG streams, so each stratum's sample sequence is a pure
 * function of (seed, stratum, count) — independent of when other
 * strata stop contributing.
 */
InjectionPlan
drawTrialPlan(const pipeline::Core &snap, const CampaignConfig &cfg,
              const StratumSpace &strata, u64 t, TrialMeta &meta)
{
    InjectionPlan plan;
    if (cfg.ciTarget > 0.0) {
        const unsigned s = static_cast<unsigned>(t % StratumSpace::kCount);
        Rng rng = Rng::stream(cfg.seed ^ StratumSpace::stratumSalt(s),
                              t / StratumSpace::kCount);
        plan = strata.draw(snap, s, rng);
        meta.stratum = s;
    } else {
        Rng rng = Rng::stream(cfg.seed, t);
        plan = drawPlan(snap, cfg.mix, rng);
        meta.stratum = StratumSpace::stratumOf(plan);
    }
    meta.structure = static_cast<u8>(plan.target);
    meta.bit = static_cast<u8>(plan.bit);
    meta.cycleBucket = StratumSpace::cycleBucket(snap.cycle());
    meta.flags = 0;
    meta.pc = plan.faultPc;
    meta.exitCycle = 0;
    return plan;
}

/**
 * The injection provably cannot change any observable outcome, so the
 * faulty forks need not run at all. True for three plans:
 *
 *  - Target::None — apply() is a no-op, the "fault" strikes idle
 *    logic; the bare fork is literally a no-fault fork.
 *  - Target::Lsq with an empty LSQ at the snapshot — apply() refuses
 *    (returns false), same no-op.
 *  - Target::RegFile into a free-listed preg. The flip touches only
 *    the value word: ready/free bits and both rename maps are
 *    untouched. While free, the preg is unreadable — preg reclamation
 *    frees a preg only when the next writer of its arch register
 *    commits, and in-order commit means every reader (including
 *    deferred store-data capture) has issued and read by then;
 *    archState and the detectors read only mapped/owned pregs.
 *    Leaving the free state goes through allocate(), which clears the
 *    ready bit, so the producer's full-word write lands before any
 *    consumer read. The corrupt bits are therefore dead on arrival.
 *
 * In each case the bare fork is bit-equivalent to a no-fault fork,
 * which reproduces the master's own window — the same master-as-golden
 * invariant the ledger already rests on. Evaluated on the snapshot,
 * which is exactly the state every fork starts from.
 */
bool
provablyMasked(const pipeline::Core &snap, const InjectionPlan &plan,
               pipeline::PregPhase phase)
{
    switch (plan.target) {
      case Target::None:
        return true;
      case Target::Lsq:
        return snap.lsqOccupied() == 0;
      case Target::RegFile:
        return phase == pipeline::PregPhase::Free;
      case Target::Rename:
        return false;
    }
    return false;
}

/**
 * Per-thread reusable fork machines, one per fork kind, copied from the
 * warmed master when the session is built. Every fork restores into
 * them via runForkInto — one arena memcpy plus the copy-on-write
 * memory/filter copies, or a swap with the snapshot — so a fork
 * allocates only the page tables and 4 KiB pages its stores copy.
 * Until a thread's first fork of a kind, its copy holds the warmed
 * master's pages.
 */
struct ForkScratch
{
    explicit ForkScratch(const pipeline::Core &master)
        : bare{master}, prot{master}
    {
    }

    ForkOutcome bare;
    ForkOutcome prot;
};

/**
 * The SDC fault ran through a protected fork — decide
 * recovered/detected/uncovered and the Figure 11 bin. detector_base is
 * the snapshot's detector stats, phase the struck register's phase at
 * the snapshot; golden_trapped is the golden entry's trap status;
 * prot_matches_golden must already include the reached-targets and
 * no-trap guards.
 */
void
classifyProtected(CampaignResult &r, const InjectionPlan &plan,
                  pipeline::PregPhase phase,
                  const filters::DetectorStats &detector_base,
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
    if (plan.target == Target::Rename) {
        ++r.bins.renameUncovered;
        return;
    }
    DetectorDelta d = deltaOf(prot.core, detector_base);
    if (d.triggers == 0) {
        ++r.bins.noTrigger;
    } else if (d.suppressed > 0 && d.replays == 0 && d.rollbacks == 0 &&
               d.commitTriggers == 0) {
        ++r.bins.secondLevelMasked;
    } else if (plan.target == Target::RegFile &&
               (phase == pipeline::PregPhase::Completed ||
                phase == pipeline::PregPhase::Architectural)) {
        ++r.bins.completedReg;
        if (phase == pipeline::PregPhase::Architectural)
            ++r.bins.archReg;
    } else {
        ++r.bins.other;
    }
}

/**
 * Classify one trial. There is no golden execution: the bare (and,
 * for SDC faults, protected) fork is compared against the trial's
 * complete golden entry with O(threads + segments) arch/digest
 * compares. A pure function of the trial's snapshot, plan and entry
 * (safe on any thread; the returned single-trial counters merge into
 * CampaignResult with order-insensitive adds), except that the last
 * fork consumes t.snapshot by move — the snapshot is dead after this
 * and the next one overwrites it.
 */
CampaignResult
runTrial(const pipeline::CoreParams &params, const CampaignConfig &cfg,
         const InjectionPlan &plan, Trial &t, ForkScratch &fs)
{
    CampaignResult r;
    ++r.injected;
    const GoldenLedger::Entry &g = t.golden;
    // Read from the snapshot before a fork consumes it: the struck
    // register's lifetime phase, and the scheduler counters each fork
    // starts from, so a fork's contribution is the delta past them.
    const pipeline::PregPhase phase =
        plan.target == Target::RegFile
            ? t.snapshot.pregPhase(plan.preg)
            : pipeline::PregPhase::Free;
    const pipeline::CoreStats snapStats = t.snapshot.stats();

    // A provably dead injection against a genuinely-crossed, untrapped
    // golden entry: a no-fault fork reaches its targets and samples
    // exactly this entry (the ledger's master-as-golden invariant),
    // and the bare fork is bit-equivalent to a no-fault fork (see
    // provablyMasked) — masked, no fork needed. A non-crossed or
    // trapped entry falls through to the real forks: there the
    // no-fault replay freezes short of its targets and must take the
    // noisy path with its hung-bare diagnostic.
    if (provablyMasked(t.snapshot, plan, phase) && g.crossed &&
        !g.trapped) {
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
    ForkOutcome &bare = fs.bare;
    if (bare_is_last)
        runForkInto(bare, std::move(t.snapshot), &plan, false, g.targets,
                    cfg.forkMaxCycles, arm);
    else
        runForkInto(bare, t.snapshot, &plan, false, g.targets,
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
    // trial inherits the scratch's old buffers and the next snapshot
    // overwrites them in place). The Figure 11 bins measure the
    // detector's activity past the snapshot's stats.
    const filters::DetectorStats detectorBase =
        t.snapshot.detector().stats();
    t0 = PhaseClock::now();
    ForkOutcome &prot = fs.prot;
    runForkInto(prot, std::move(t.snapshot), &plan, true, g.targets,
                cfg.forkMaxCycles);
    r.phases.protectedNs += nsSince(t0);
    r.sched += SchedCounters::delta(prot.core.stats(), snapStats);

    if (!prot.reachedTargets)
        ++r.hungProtected; // diagnostic; classification unchanged
    t0 = PhaseClock::now();
    const bool prot_matches = prot.reachedTargets && !prot.trapped &&
                              GoldenLedger::matches(g, prot.core);
    r.phases.compareNs += nsSince(t0);
    classifyProtected(r, plan, phase, detectorBase, prot, g.trapped,
                      prot_matches);
    return r;
}

/**
 * Run one trial on whichever thread claimed it: draw its plan from its
 * own stream, so the injection schedule is a pure function of (seed,
 * trial) however many threads run trials, then execute its forks
 * inside a PanicScope. An fh_panic or fh_assert raised by the
 * (deliberately corrupted) forked machine surfaces here as a SimError;
 * the trial is counted in trialErrors with its injection plan logged
 * for offline reproduction, and the campaign keeps running. Under
 * FH_STRICT=1 (the CI default) panics abort the process instead. The
 * guard is scoped to the forks: a panic in the plan draw, which reads
 * the fault-free snapshot, or in the master's advance still aborts.
 */
CampaignResult
runTrialGuarded(const pipeline::CoreParams &params,
                const CampaignConfig &cfg, const StratumSpace &strata,
                Trial &t, ForkScratch &fs)
{
    const InjectionPlan p =
        drawTrialPlan(t.snapshot, cfg, strata, t.index, t.meta);
    try {
        PanicScope guard;
        if (t.index == cfg.panicAtTrial)
            fh_panic("campaign debug hook: forced panic in trial %llu",
                     static_cast<unsigned long long>(t.index));
        return runTrial(params, cfg, p, t, fs);
    } catch (const SimError &e) {
        CampaignResult r;
        ++r.injected;
        ++r.trialErrors;
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
    Impl(const pipeline::CoreParams &params_in, const isa::Program *prog,
         const CampaignConfig &cfg_in)
        : params(params_in),
          cfg(cfg_in),
          strataSpace(cfg_in.mix),
          master(params_in, prog),
          gapRng(cfg_in.seed),
          threads(resolveForkThreads(cfg_in.threads)),
          streamCap(std::max<u64>(u64{threads} * 4, 8)),
          streamed(streamCap),
          stream(threads, streamCap, [this](u64 k, unsigned worker) {
              Trial &t = *streamed[k % streamCap];
              t.result = runTrialGuarded(params, cfg, strataSpace, t,
                                         scratch[worker]);
          })
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

        // No item runs before the first range, so the stream's workers
        // cannot see the scratch before it is built.
        scratch.reserve(threads + 1);
        for (unsigned i = 0; i <= threads; ++i)
            scratch.emplace_back(master);
        ledger = std::make_unique<GoldenLedger>(master);
        master.setCommitObserver(ledger.get());
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

    /** Snapshot the master into the next trial: the first sunk trial
     *  behind the live ones when there is one (its arena takes a flat
     *  memcpy), else a new trial. */
    Trial &takeSnapshot()
    {
        if (live == trials.size())
            trials.push_back(std::make_unique<Trial>(master));
        else
            trials[live]->snapshot = master;
        return *trials[live++];
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
    // the stream's worker index: 0..threads-1 for its workers, threads
    // for the producer.
    std::vector<ForkScratch> scratch;
    // The one queue of trials, in trial order. trials[0, live) are
    // produced and not yet sunk: first the ones on the stream, then
    // the ones whose golden entries are still open. Behind them wait
    // sunk trials, whose buffers take the next snapshots (memory
    // pages only an old snapshot held are freed, and the master's
    // first store to a page it shares with a snapshot copies the
    // page). Each trial is its own allocation, so its entry stays put
    // for the ledger and its snapshot for the thread that runs it.
    std::deque<std::unique_ptr<Trial>> trials;
    u64 live = 0;
    // The stream's trials: item k is *streamed[k % streamCap], so the
    // thread that runs it never reads the queue the producer mutates.
    std::vector<Trial *> streamed;
    // Runs the trials of every range; its item count runs on across
    // ranges. Declared after every member its body reads, so it is
    // destroyed first: its destructor lets the appended trials finish,
    // even when a range unwound, and joins the workers.
    exec::Stream stream;
};

/**
 * Produce and execute one range. The master advances gap by gap (no
 * extra ticks between snapshots), so the injection points are a pure
 * function of the seed. Per trial the producer does three things:
 * advance the gap, copy the master into a trial, and open the trial's
 * golden entry. The trial waits in the queue until the master's own
 * advance crosses all its commit targets (completing its entry,
 * usually within the next trial or two's gaps), then joins the
 * session's stream, whose workers claim trials in order while the
 * master produces the next ones. Windows still open at the end of
 * the range are closed by extra "drain" ticks — on the real master
 * when nothing further depends on its cycle position (final range,
 * halt, or shutdown), and otherwise on a scratch copy, so a later
 * range still sees the exact single-process schedule.
 * Either way an entry finalizes at the same commit counts with the
 * same sampled state: that is the ledger's master-as-golden argument.
 *
 * Only this (the calling) thread touches the master, the ledger, the
 * queue and the sink; the thread that runs a streamed trial sees only
 * that trial and its complete entry, which stay untouched until the
 * trial is sunk. This thread runs trials too, but never while it
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

    auto sinkDone = [&] {
        // Sink in trial order, as soon as the oldest trial is done:
        // bit-identical for any worker count. A sunk trial goes to the
        // back of the queue for a later snapshot.
        while (stream.retire()) {
            const Trial &t = *trials.front();
            sink(t.index, t.result, t.meta);
            trials.push_back(std::move(trials.front()));
            trials.pop_front();
            --live;
        }
    };
    // Queue position of the oldest trial not on the stream yet.
    auto unstreamed = [&] { return stream.pushed() - stream.retired(); };
    auto promote = [&] {
        // Entries complete in trial order: per-thread targets are
        // nondecreasing, so the oldest open entry always finishes
        // first.
        while (unstreamed() < live &&
               trials[unstreamed()]->golden.complete()) {
            // A full stream: run its oldest unclaimed trial here
            // instead of sleeping until a worker's trial is done.
            while (stream.full()) {
                stream.help();
                sinkDone();
            }
            streamed[stream.pushed() % streamCap] =
                trials[unstreamed()].get();
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

        t0 = PhaseClock::now();
        Trial &t = takeSnapshot();
        t.index = trial;
        windowTargetsInto(t.golden.targets, master, cfg.window);
        ledger->open(t.golden);
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
    if (live > 0 && !trials[live - 1]->golden.complete()) {
        const GoldenLedger::Entry &youngest = trials[live - 1]->golden;
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
        while (!youngest.complete() && !drainee->allHalted() &&
               drained < cfg.forkMaxCycles) {
            drained += drainee->step(cfg.forkMaxCycles - drained);
        }
        if (!youngest.complete())
            ledger->forceFinalizeAll(); // hung master; see GoldenLedger
        if (!terminal) {
            drainCopy->setCommitObserver(nullptr);
            ledger->retarget(master);
            master.setCommitObserver(ledger.get());
        }
    }
    produced.goldenNs += nsSince(t0);

    promote();
    fh_assert(unstreamed() == live, "ledger drain left incomplete entries");
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
