/**
 * @file
 * Cycle-level out-of-order SMT core with FaultHound's recovery
 * machinery: delayed issue-queue exit through a delay buffer,
 * predecessor replay, full-pipeline rollback, and commit-time singleton
 * re-execution for the LSQ (Sections 3.3-3.5 of the paper).
 *
 * The core is a plain copyable value: the tandem fault framework forks
 * it (together with its memory, caches, filters and RNG-free state) at
 * an injection point and runs golden and faulty copies side by side.
 * All per-cycle-touched pipeline state lives in one flat arena
 * (pipeline/arena.hh), so that fork — and the campaign's in-place
 * trial-slot restore via copy-assignment — is a single-block memcpy
 * plus a handful of flat-vector copies, with no per-fork allocation.
 */

#ifndef FH_PIPELINE_CORE_HH
#define FH_PIPELINE_CORE_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "filters/detector.hh"
#include "isa/functional.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "pipeline/arena.hh"
#include "pipeline/branch_predictor.hh"
#include "pipeline/params.hh"
#include "pipeline/regfile.hh"
#include "pipeline/rename.hh"
#include "pipeline/rob.hh"
#include "sim/types.hh"

namespace fh::pipeline
{

/** Event counters of one core; inputs to the energy model. */
struct CoreStats
{
    u64 cycles = 0;
    u64 fetched = 0;
    u64 dispatched = 0;
    u64 issued = 0;
    u64 committed = 0;
    u64 loads = 0;   ///< dispatched (includes wrong path)
    u64 stores = 0;
    u64 branches = 0;
    u64 committedLoads = 0;
    u64 committedStores = 0;
    u64 committedBranches = 0;
    u64 mispredicts = 0;
    u64 mispredictSquashed = 0;

    u64 replayTriggers = 0;   ///< predecessor replays started
    u64 replayMarked = 0;     ///< instructions marked for replay
    u64 replaysExecuted = 0;  ///< replay re-executions completed
    u64 faultRollbacks = 0;   ///< full rollbacks from fault triggers
    u64 rollbackSquashed = 0; ///< instructions squashed by those
    u64 reexecs = 0;          ///< singleton re-executes at commit
    u64 delayBufferSquashes = 0;

    u64 regReads = 0;
    u64 regWrites = 0;

    // Event-driven scheduler observability. These describe *how* the
    // issue stage did its work, so they legitimately differ between
    // wakeup and scan-oracle mode; everything above is issue-order
    // driven and stays bit-identical across modes (the fuzz
    // equivalence suite compares those fields explicitly).
    u64 wakeupHits = 0;      ///< consumers moved wake row -> ready pool
    u64 overflowParks = 0;   ///< subscriptions parked on the overflow list
    u64 overflowRescans = 0; ///< overflow refs examined by the slow path
    u64 issueEvals = 0;      ///< cycles the issue stage examined refs
    u64 issueCandidates = 0; ///< ready candidates across those cycles

    /// Quiet cycles step() jumped instead of ticking (also counted in
    /// `cycles`). The one field that differs between a tick()-driven
    /// core and a step()-driven one.
    u64 skippedCycles = 0;

    bool operator==(const CoreStats &other) const = default;
};

/** Per-thread execution options (used by the SRT models). */
struct ThreadOptions
{
    /** Perfect branch direction via a fetch-time functional oracle
     *  (models SRT's branch outcome queue). Requires detector None. */
    bool oracleFetch = false;
    /** Loads always hit in the L1 (models SRT's load value queue). */
    bool perfectDcache = false;
    /** Halt after committing this many instructions (0 = unlimited);
     *  models SRT-iso's partial redundancy. */
    u64 maxInsts = 0;
    /**
     * Freeze the thread at exactly this commit count (0 = never): the
     * thread stops committing (and fetching) without squashing, so a
     * tandem fork's architectural state is sampled at a precise
     * per-thread instruction boundary.
     */
    u64 stopAfterInsts = 0;

    bool operator==(const ThreadOptions &other) const = default;
};

/** Where a fault-injected physical register was in its lifetime. */
enum class PregPhase : u8
{
    Free,
    InFlight,     ///< destination of an uncompleted instruction
    Completed,    ///< written, owner not yet committed
    Architectural ///< named by a retirement map
};

/** Per-bit value-change probe backing Figure 6. */
struct ValueProbe
{
    bool enabled = false;
    /** Previous value per static instruction, per stream. */
    std::array<std::unordered_map<u64, u64>, 3> prev;
    std::array<std::array<u64, wordBits>, 3> bitChanges{};
    std::array<u64, 3> samples{};

    void sample(filters::StreamKind kind, u64 pc, u64 value);

    bool operator==(const ValueProbe &other) const = default;
};

class Core;

/**
 * Passive observer of one core's retirement stream. The fault
 * campaign's golden checkpoint ledger hangs off this to sample
 * architectural state at exact per-thread commit counts, instead of
 * re-executing a golden fork to reach the same points.
 *
 * Callbacks fire synchronously inside tick(), once per retired
 * instruction (committed counts take every value — commits never skip
 * a count, even with commitWidth > 1) and once when a thread halts,
 * whether by committing a Halt / its maxInsts budget (after the
 * matching onCommit) or by raising a trap (no commit). The observer
 * must not mutate the core.
 */
class CommitObserver
{
  public:
    virtual ~CommitObserver() = default;
    /** Thread tid just retired one instruction. */
    virtual void onCommit(const Core &core, unsigned tid) = 0;
    /** Thread tid just halted (trap, Halt, or maxInsts). */
    virtual void onThreadHalted(const Core &core, unsigned tid) = 0;
};

/** The core. See file comment. */
class Core
{
  public:
    Core(const CoreParams &params, const isa::Program *prog);

    // Copying rebinds every arena view onto the copy's own buffer;
    // copy-assignment between same-parameter cores reuses the target's
    // buffers (pure memcpy, no allocation) — the campaign's trial
    // slots and per-worker fork scratch machines depend on that.
    Core(const Core &other);
    Core &operator=(const Core &other);
    Core(Core &&other) = default;
    Core &operator=(Core &&other) = default;

    /**
     * Advance exactly one cycle. The reference semantics: every other
     * driver below must leave the core in the state a loop of tick()
     * calls would, cycle for cycle, stats().skippedCycles aside
     * (test_quiet_skip checks this).
     */
    void tick();

    /**
     * Advance at least one and at most max_cycles (>= 1) cycles; return
     * how many. One tick(); if no pipeline stage acted in it, every
     * following tick is the same no-op until a timed threshold (an
     * execution finish, a commit delay, a fetch-queue arrival, a fetch
     * stall, the issue block) fires, so jump to the cycle before the
     * earliest one and credit the skipped cycles to the counters as
     * ticking would have (DESIGN.md "Quiet-cycle skip"). Nothing but a
     * stage's action can commit, halt or touch the fault watch, so a
     * loop that tests those between calls sees what it would between
     * ticks.
     */
    Cycle step(Cycle max_cycles);

    /** Advance exactly `cycles` cycles (or until every thread halts),
     *  through step(). The campaign's inter-injection gaps run through
     *  this. */
    void advance(Cycle cycles);

    /**
     * Run until every active thread has committed at least the given
     * per-thread totals (or halted/trapped), bounded by max_cycles;
     * the reference loop ticks, this one steps. Returns false on the
     * cycle bound (hung).
     */
    bool runUntilCommitted(const std::vector<u64> &targets,
                           Cycle max_cycles);

    /**
     * Timing-measurement run: freeze every thread at exactly
     * per_thread committed instructions (frozen threads stop fetching
     * and committing) and run until all threads are frozen or halted.
     * Returns the cycles elapsed, so per-scheme comparisons measure
     * the same per-thread work.
     */
    Cycle runPerThreadBudget(u64 per_thread, Cycle max_cycles);

    bool allHalted() const;
    bool halted(unsigned tid) const { return threads_[tid].halted; }
    isa::Trap trapOf(unsigned tid) const { return threads_[tid].trap; }
    bool anyTrap() const;

    Cycle cycle() const { return cycle_; }
    u64 committed(unsigned tid) const { return threads_[tid].committed; }
    u64 committedTotal() const;

    /** Architectural view of one thread (retirement map + next pc). */
    isa::ArchState archState(unsigned tid) const;

    /**
     * O(1)-maintained digest of archState(tid), updated at commit /
     * halt (DESIGN.md "Arch-digest early exit"). Equals
     * isa::archStateDigest(archState(tid)) on any fault-free core; on
     * a faulty fork the incremental value can go stale (a corrupted
     * free list may rewrite a retire-mapped register without a
     * commit), so fork-side compares must recompute from archState()
     * instead of reading this.
     */
    u64 archDigest(unsigned tid) const
    {
        return threads_[tid].archDigest;
    }

    const CoreParams &params() const { return params_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    mem::Memory &memory() { return memory_; }
    const mem::Memory &memory() const { return memory_; }
    mem::Hierarchy &hierarchy() { return hier_; }
    const mem::Hierarchy &hierarchy() const { return hier_; }
    filters::Detector &detector() { return detector_; }
    const filters::Detector &detector() const { return detector_; }
    const BranchPredictor &predictor() const { return predictor_; }
    CoreStats &stats() { return stats_; }
    const CoreStats &stats() const { return stats_; }
    ValueProbe &probe() { return probe_; }

    ThreadOptions &threadOptions(unsigned tid)
    {
        return threads_[tid].opts;
    }

    /** Enable/disable detector checks at runtime (classification runs
     *  disable them without changing the trained filter state). */
    void setDetectorEnabled(bool enabled) { detectorEnabled_ = enabled; }

    /**
     * Attach a retirement-stream observer (null detaches). The pointer
     * is borrowed, not owned, and is copied along with the core, so a
     * fork of an observed master must detach before ticking
     * (fault::runForkInto does) — otherwise the observer would see a
     * foreign core.
     */
    void setCommitObserver(CommitObserver *obs) { observer_ = obs; }

    /**
     * When set, threads frozen at their stopAfterInsts boundary also
     * stop dispatching: their already-fetched instructions stop
     * entering the ROB/IQ and consuming physical registers. Frozen
     * threads never commit again, so this cannot change any
     * architectural outcome — it only stops dead front-end work.
     * Issue/complete still drain in-flight entries (so shared IQ slots
     * are released), and fetch already skips frozen threads. Off by
     * default; the tandem classification forks (detector disabled)
     * turn it on.
     */
    void setQuiesceFrozen(bool on) { quiesceFrozen_ = on; }

    /** True once a singleton re-execute comparison declared a fault. */
    bool faultDetected() const { return faultDetected_; }

    // ---- Fault injection hooks (Section 4 methodology) ----

    unsigned numPhysRegs() const { return regfile_.size(); }
    /** Flip one bit of one physical register. */
    void injectRegfileBit(unsigned preg, unsigned bit);
    /**
     * Destination registers of instructions currently in flight
     * (dispatched, not yet committed). Faults drawn from these emulate
     * back-end datapath/control faults, which corrupt values on their
     * way through the pipeline (Section 4).
     */
    std::vector<unsigned> inflightDestPregs() const;
    /** Lifetime phase of a register, for the Figure 11 bins. */
    PregPhase pregPhase(unsigned preg) const;

    /** Number of LSQ entries with a captured address. */
    unsigned lsqOccupied() const;
    /**
     * Flip one bit of the nth occupied LSQ entry; addr_field selects
     * the address (true) or the store-data field (false; stores only —
     * falls back to the address for loads). Returns false if fewer
     * than nth+1 entries are occupied.
     */
    bool injectLsqBit(unsigned nth, bool addr_field, unsigned bit);

    /** Flip one bit of a speculative rename-map entry. */
    void injectRenameBit(unsigned tid, unsigned arch, unsigned bit);

    /**
     * Fault watch (campaign early termination): after injecting a
     * register-file flip, arm a watch on the register. runUntilCommitted
     * returns as soon as the regfile reports the watched value was
     * overwritten without ever being read — the fork is then provably
     * equivalent to a fault-free fork (see PhysRegFile::armWatch).
     */
    void armRegfileWatch(unsigned preg)
    {
        regfile_.armWatch(preg);
        stopOnWatchErased_ = true;
    }
    void disarmRegfileWatch()
    {
        regfile_.disarmWatch();
        stopOnWatchErased_ = false;
    }
    bool regfileWatchErased() const { return regfile_.watchErased(); }

    // ---- Injection-site attribution (vulnerability profiles) ----

    /** PC of the in-flight instruction producing preg (0 if none). */
    u64 pcOfDestPreg(unsigned preg) const;
    /** PC of the nth occupied LSQ entry, in injectLsqBit() order
     *  (0 if fewer than nth+1 entries are occupied). */
    u64 pcOfLsqNth(unsigned nth) const;
    /** Next-to-commit PC of one thread (rename-fault attribution). */
    u64 nextCommitPcOf(unsigned tid) const
    {
        return threads_[tid].nextCommitPc;
    }

    /** Read-only ROB access for tests and debugging probes. */
    const Rob &rob(unsigned tid) const { return robs_[tid]; }

    /** Incrementally tracked occupancies (tests recount them from
     *  rob()). */
    unsigned iqOccupancy() const { return iqCount_; }
    unsigned lsqOccupancy() const
    {
        unsigned n = 0;
        for (unsigned c : lsqCounts_)
            n += c;
        return n;
    }

  private:
    struct FetchedInst
    {
        isa::Instruction inst;
        u64 pc = 0;
        bool predTaken = false;
        Cycle availAt = 0;

        bool operator==(const FetchedInst &other) const = default;
    };

    struct ThreadState
    {
        u64 fetchPc = 0;
        Cycle fetchStallUntil = 0;
        bool fetchBlocked = false; ///< fetched Halt or ran off text
        bool halted = false;
        isa::Trap trap = isa::Trap::None;
        u64 nextCommitPc = 0;
        u64 committed = 0;
        u64 exemptChecks = 0; ///< post-rollback "deemed final" budget
        RingView<FetchedInst> fetchQ;
        RingView<u32> delayBuffer; ///< rob slots, oldest first
        RingView<u32> storeList;   ///< in-flight store slots
        ThreadOptions opts;
        isa::ArchState oracle; ///< fetch-time oracle (oracleFetch)
        /// Incremental isa::archStateDigest of this thread; maintained
        /// at commit/halt, trustworthy on fault-free cores only (see
        /// Core::archDigest).
        u64 archDigest = 0;
    };

    /** One age-ordered scan element of the issue/complete stages. */
    struct SeqRef
    {
        SeqNum seq;
        u32 tid;
        u32 slot;
    };

    /**
     * Issued-list element: a SeqRef plus the finish time recorded at
     * issue. The complete scan compares the local key first and only
     * touches the ROB header once the key is due, so in-flight
     * long-latency entries cost one word read per cycle instead of a
     * header load. The key never exceeds the entry's live finishCycle
     * (equal at push; only a replay's re-issue, which pushes a ref of
     * its own, moves the live value later), so "key in the future"
     * proves "not completing this cycle".
     */
    struct FinishRef
    {
        Cycle finish;
        SeqNum seq;
        u32 tid;
        u32 slot;
    };

    // Pipeline stages, called newest-to-oldest each tick.
    void commitStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    // ---- Producer-indexed wakeup (default issue mode) ----
    //
    // Invariant: every Dispatched entry is referenced by the ready
    // pool, the overflow list, or exactly one wake row keyed by a
    // source preg that was not ready when the entry subscribed. Wake
    // rows drain into the pool at every ready-bit 0->1 transition
    // (wakePreg below — completion writes, commit/squash releases,
    // rollback free-list rebuilds), so the pool+overflow scan sees
    // every entry the full-IQ scan would find ready, applies the
    // identical readiness predicate, and sorts candidates by their
    // unique seq — the candidate order is provably the scan order.

    /** Route a newly Dispatched entry: pool if its scanned-in-order
     *  sources are ready, else subscribe to the first not-ready one. */
    void enqueueForIssue(unsigned tid, unsigned slot, const RobHot &h);
    /** Park ref on wake row `preg` (overflow list when the row stays
     *  full after compacting stale refs). */
    void subscribeWaiter(unsigned preg, const SeqRef &ref);
    /** Drain row `preg` into the ready pools (ready bit went 0->1). */
    void wakePreg(unsigned preg);
    /** Conservative mass wake after resetFreeList flips many ready
     *  bits at once (fault rollback): drain every non-empty row. */
    void drainAllWakeRows();
    /** Collect this cycle's issue candidates into scanScratch_ (seq
     *  order) — scan oracle and wakeup flavors. */
    void collectCandidatesScan();
    void collectCandidatesWakeup();
    /** Issue scanScratch_ against the port/width limits. */
    void issueCandidates();

    /** Try to commit the head of one thread; true if it retired. */
    bool tryCommitHead(unsigned tid);
    void executeAtIssue(unsigned tid, unsigned slot);
    void completeEntry(unsigned tid, unsigned slot);
    void resolveBranch(unsigned tid, unsigned slot);
    void runCompleteChecks(unsigned tid, unsigned slot);

    void triggerReplay(unsigned tid);
    void faultRollback(unsigned tid);
    void squashYounger(unsigned tid, SeqNum seq);
    void squashAllOf(unsigned tid);
    void undoRenameOf(RobCold &entry, unsigned tid);
    void purgeFromQueues(ThreadState &ts, const RobHot &h, RobCold &e,
                         unsigned slot);
    void redirectFetch(unsigned tid, u64 pc);

    /** True if the entry holds an issue-queue slot. */
    static bool occupiesIq(const RobHot &h);

    /** Append to a scan list, compacting stale refs on overflow with
     *  the same predicate the per-cycle scans apply (so the overflow
     *  path is behavior-invisible). */
    void pushRef(RefList<SeqRef> &list, EntryState want,
                 const SeqRef &ref);
    void pushRef(RefList<FinishRef> &list, EntryState want,
                 const FinishRef &ref);

    /** Stable age-order sort of a scan batch. Seq keys are unique, so
     *  any comparison sort yields the identical order; insertion sort
     *  wins on these small, mostly-sorted batches. */
    static void sortBySeq(RefList<SeqRef> &v);

    /** Fix every arena view pointer after a member-wise copy. */
    void rebindViews(const Core &other);

    /** Earliest cycle after cycle_ at which a timed threshold can make
     *  a stage act (the largest Cycle if none can); see step(). */
    Cycle nextThreshold() const;

    /**
     * Memory-ordering check for a load about to issue at addr: blocked
     * while any older store's address is unknown, or an older store to
     * the same address has not yet captured its data.
     */
    bool loadBlocked(unsigned tid, SeqNum seq, Addr addr) const;
    u64 loadValueFor(unsigned tid, SeqNum seq, Addr addr) const;
    bool fetchOne(unsigned tid);

    CoreParams params_;
    const isa::Program *prog_;

    Cycle cycle_ = 0;
    SeqNum nextSeq_ = 1;
    /// Set by every stage action that changes machine state beyond
    /// cycle_ and the per-cycle counters; tick() clears it first.
    bool acted_ = false;

    mem::Memory memory_;
    mem::Hierarchy hier_;
    BranchPredictor predictor_;
    filters::Detector detector_;
    bool detectorEnabled_ = true;
    bool faultDetected_ = false;
    bool quiesceFrozen_ = false;
    /// runUntilCommitted returns early once the regfile fault watch
    /// reports erasure (campaign early termination; armRegfileWatch).
    bool stopOnWatchErased_ = false;
    CommitObserver *observer_ = nullptr;

    /** Flat backing for all per-cycle pipeline state; every view
     *  below points into it. Declared before the views so copies have
     *  the buffer ready when views rebind. */
    CoreArena arena_;

    PhysRegFile regfile_;
    std::vector<RenameMap> renames_;
    std::vector<Rob> robs_;
    std::vector<ThreadState> threads_;

    unsigned iqCount_ = 0;
    std::vector<unsigned> lsqCounts_; ///< per-context LSQ partitions

    /** Scratch for the per-cycle issue/complete batches, arena-backed
     *  so the hot path performs zero steady-state heap traffic (on the
     *  scan-oracle path too). Always empty outside a stage. */
    RefList<SeqRef> scanScratch_;

    /**
     * Per-thread slot lists driving the issue and complete scans:
     * entries possibly in the issue queue (Dispatched) and possibly
     * executing (Issued). Conservative supersets — every transition
     * into the state appends a ref, and the per-cycle scans drop refs
     * whose entry no longer matches (squashed, rolled back, reused or
     * moved on), so the scanned set is exactly the entries the full
     * ROB walk used to find. Part of the machine snapshot: forks
     * resume with the lists their master had.
     */
    std::vector<RefList<SeqRef>> iqLists_;
    std::vector<RefList<FinishRef>> issuedLists_;

    /**
     * Wakeup-mode scheduler state (all arena-backed; scan-oracle mode
     * allocates but never touches it, keeping the two layouts — and
     * therefore cross-mode copy-assignment — identical):
     *  - wakeRows_[preg]: consumers subscribed to producer preg
     *    (fixed-capacity rows, one per physical register);
     *  - readyPools_[tid]: entries whose subscribed source went ready
     *    (or that dispatched fully ready); re-validated every issue
     *    cycle with the full scan predicate, so non-monotonic
     *    readiness (replay markNotReady) re-subscribes them;
     *  - overflowLists_[tid]: waiters that found their row full — the
     *    "never wakes" parking lot (dangling rename-fault tags land
     *    here too when their row saturates), drained by a slow-path
     *    rescan each issue cycle.
     */
    std::vector<RefList<SeqRef>> wakeRows_;
    std::vector<RefList<SeqRef>> readyPools_;
    std::vector<RefList<SeqRef>> overflowLists_;

    unsigned fetchRotate_ = 0;
    Cycle issueBlockedUntil_ = 0;

    CoreStats stats_;
    ValueProbe probe_;
};

} // namespace fh::pipeline

#endif // FH_PIPELINE_CORE_HH
