#include "pipeline/core.hh"

#include <algorithm>

#include "isa/exec.hh"
#include "sim/logging.hh"

namespace fh::pipeline
{

using filters::CommitAction;
using filters::CompleteAction;
using filters::StreamKind;

namespace
{

/**
 * Consumers one wake row holds before spilling to the overflow list.
 * Sized for the common fan-out of an in-flight producer (consumers of
 * long-ready values never subscribe); the spill path is correct at any
 * capacity, just slower, so this only trades arena bytes per fork
 * memcpy against overflow rescans.
 */
constexpr u32 kWakeRowCap = 6;

} // namespace

void
ValueProbe::sample(StreamKind kind, u64 pc, u64 value)
{
    const auto stream = static_cast<size_t>(kind);
    auto [it, fresh] = prev[stream].try_emplace(pc, value);
    if (!fresh) {
        const u64 changed = it->second ^ value;
        for (unsigned bit = 0; bit < wordBits; ++bit)
            if ((changed >> bit) & 1)
                ++bitChanges[stream][bit];
        it->second = value;
        ++samples[stream];
    }
}

Core::Core(const CoreParams &params, const isa::Program *prog)
    : params_(params),
      prog_(prog),
      hier_(params.memory),
      predictor_(params.predictorEntries),
      detector_(params.detector)
{
    fh_assert(prog_ != nullptr, "core needs a program");
    fh_assert(params_.threads >= 1 && params_.threads <= 8,
              "1..8 SMT threads supported");
    fh_assert(params_.physRegs >
                  params_.threads * isa::numArchRegs + params_.threads,
              "not enough physical registers");

    prog_->load(memory_);

    // The ROB is partitioned by the *provisioned* SMT width (2-way,
    // Table 2), not by how many contexts happen to run: SRT's
    // overcommitted copies get the same per-thread window as the
    // baseline threads, so window-depth effects cancel out of the
    // comparison.
    const unsigned nt = params_.threads;
    const unsigned rob_cap = std::max(8u, params_.robSize / 2);

    // Ring capacities are hard bounds from the pipeline's own gating:
    // fetch skips a thread at >= 4*fetchWidth queued and then adds at
    // most fetchWidth; the delay buffer is trimmed right after each
    // push; dispatch stalls a context at lsqSize/2 memory ops, and the
    // store list only ever holds a subset of those.
    const u32 fetch_cap = 5 * params_.fetchWidth;
    const u32 delay_cap = params_.delayBufferSize + 1;
    const u32 store_cap = params_.lsqSize / 2 + 1;
    // Scan lists hold at most rob_cap live refs; the slack absorbs
    // stale refs between compactions.
    const u32 ref_cap = 2 * rob_cap + 16;

    // Arena layout. Hot arrays (scanned or probed every cycle) are
    // grouped at the front, cold per-entry payloads at the back.
    struct PerTid
    {
        size_t hot, iq, issued, delay, store, pool, ovfl, cold, fetch;
    };
    std::vector<PerTid> off(nt);
    for (unsigned tid = 0; tid < nt; ++tid)
        off[tid].hot = arena_.reserve<RobHot>(rob_cap);
    const size_t ready_off = arena_.reserve<u8>(params_.physRegs);
    const size_t free_off = arena_.reserve<u8>(params_.physRegs);
    for (unsigned tid = 0; tid < nt; ++tid) {
        off[tid].iq = arena_.reserve<SeqRef>(ref_cap);
        off[tid].issued = arena_.reserve<FinishRef>(ref_cap);
        off[tid].delay = arena_.reserve<u32>(delay_cap);
        off[tid].store = arena_.reserve<u32>(store_cap);
        off[tid].pool = arena_.reserve<SeqRef>(ref_cap);
        off[tid].ovfl = arena_.reserve<SeqRef>(ref_cap);
    }
    const size_t stack_off = arena_.reserve<u32>(params_.physRegs);
    const size_t values_off = arena_.reserve<u64>(params_.physRegs);
    // Issue/complete batch scratch: bounded by every list that can feed
    // it (per tid: the issued list, or pool + overflow).
    const u32 scratch_cap = nt * 2 * ref_cap;
    const size_t scratch_off = arena_.reserve<SeqRef>(scratch_cap);
    const size_t rows_off =
        arena_.reserve<SeqRef>(size_t{params_.physRegs} * kWakeRowCap);
    for (unsigned tid = 0; tid < nt; ++tid)
        off[tid].cold = arena_.reserve<RobCold>(rob_cap);
    for (unsigned tid = 0; tid < nt; ++tid)
        off[tid].fetch = arena_.reserve<FetchedInst>(fetch_cap);
    arena_.commit();

    regfile_.bind(arena_.at<u64>(values_off), arena_.at<u8>(ready_off),
                  arena_.at<u8>(free_off), arena_.at<u32>(stack_off),
                  params_.physRegs);
    regfile_.reset();

    robs_.resize(nt);
    renames_.resize(nt);
    threads_.resize(nt);
    lsqCounts_.assign(nt, 0);
    iqLists_.resize(nt);
    issuedLists_.resize(nt);
    readyPools_.resize(nt);
    overflowLists_.resize(nt);
    for (unsigned tid = 0; tid < nt; ++tid) {
        robs_[tid].bind(arena_.at<RobHot>(off[tid].hot),
                        arena_.at<RobCold>(off[tid].cold), rob_cap);
        robs_[tid].reset();
        ThreadState &ts = threads_[tid];
        ts.fetchQ.bind(arena_.at<FetchedInst>(off[tid].fetch),
                       fetch_cap);
        ts.delayBuffer.bind(arena_.at<u32>(off[tid].delay), delay_cap);
        ts.storeList.bind(arena_.at<u32>(off[tid].store), store_cap);
        iqLists_[tid].bind(arena_.at<SeqRef>(off[tid].iq), ref_cap);
        issuedLists_[tid].bind(arena_.at<FinishRef>(off[tid].issued),
                               ref_cap);
        readyPools_[tid].bind(arena_.at<SeqRef>(off[tid].pool), ref_cap);
        overflowLists_[tid].bind(arena_.at<SeqRef>(off[tid].ovfl),
                                 ref_cap);
    }
    scanScratch_.bind(arena_.at<SeqRef>(scratch_off), scratch_cap);
    wakeRows_.resize(params_.physRegs);
    for (unsigned preg = 0; preg < params_.physRegs; ++preg) {
        wakeRows_[preg].bind(arena_.at<SeqRef>(rows_off) +
                                 size_t{preg} * kWakeRowCap,
                             kWakeRowCap);
    }

    for (unsigned tid = 0; tid < nt; ++tid) {
        std::array<unsigned, isa::numArchRegs> map{};
        const isa::ArchState init = isa::initialState(*prog_, tid);
        for (unsigned arch = 0; arch < isa::numArchRegs; ++arch) {
            unsigned preg = 0;
            bool ok = regfile_.allocate(preg);
            fh_assert(ok, "init ran out of physical registers");
            regfile_.write(preg, init.regs[arch]);
            map[arch] = preg;
        }
        renames_[tid].init(map);
        threads_[tid].oracle = init;
    }
    for (unsigned tid = 0; tid < nt; ++tid)
        threads_[tid].archDigest = isa::archStateDigest(archState(tid));
}

// NOTE: the copy ctor and copy-assignment below must list / assign
// every member; update both when adding one. They end with
// rebindViews(), which shifts every arena view pointer from the
// source's buffer onto ours. Assignment between same-parameter cores
// is allocation-free: every vector (arena bytes included) reuses the
// target's existing storage.
Core::Core(const Core &other)
    : params_(other.params_),
      prog_(other.prog_),
      cycle_(other.cycle_),
      nextSeq_(other.nextSeq_),
      memory_(other.memory_),
      hier_(other.hier_),
      predictor_(other.predictor_),
      detector_(other.detector_),
      detectorEnabled_(other.detectorEnabled_),
      faultDetected_(other.faultDetected_),
      quiesceFrozen_(other.quiesceFrozen_),
      stopOnWatchErased_(other.stopOnWatchErased_),
      observer_(other.observer_),
      arena_(other.arena_),
      regfile_(other.regfile_),
      renames_(other.renames_),
      robs_(other.robs_),
      threads_(other.threads_),
      iqCount_(other.iqCount_),
      lsqCounts_(other.lsqCounts_),
      scanScratch_(other.scanScratch_),
      iqLists_(other.iqLists_),
      issuedLists_(other.issuedLists_),
      wakeRows_(other.wakeRows_),
      readyPools_(other.readyPools_),
      overflowLists_(other.overflowLists_),
      fetchRotate_(other.fetchRotate_),
      issueBlockedUntil_(other.issueBlockedUntil_),
      stats_(other.stats_),
      probe_(other.probe_)
{
    rebindViews(other);
}

Core &
Core::operator=(const Core &other)
{
    if (this == &other)
        return *this;
    params_ = other.params_;
    prog_ = other.prog_;
    cycle_ = other.cycle_;
    nextSeq_ = other.nextSeq_;
    memory_ = other.memory_;
    hier_ = other.hier_;
    predictor_ = other.predictor_;
    detector_ = other.detector_;
    detectorEnabled_ = other.detectorEnabled_;
    faultDetected_ = other.faultDetected_;
    quiesceFrozen_ = other.quiesceFrozen_;
    stopOnWatchErased_ = other.stopOnWatchErased_;
    observer_ = other.observer_;
    arena_ = other.arena_;
    regfile_ = other.regfile_;
    renames_ = other.renames_;
    robs_ = other.robs_;
    threads_ = other.threads_;
    iqCount_ = other.iqCount_;
    lsqCounts_ = other.lsqCounts_;
    scanScratch_ = other.scanScratch_; // always empty between ticks
    iqLists_ = other.iqLists_;
    issuedLists_ = other.issuedLists_;
    wakeRows_ = other.wakeRows_;
    readyPools_ = other.readyPools_;
    overflowLists_ = other.overflowLists_;
    fetchRotate_ = other.fetchRotate_;
    issueBlockedUntil_ = other.issueBlockedUntil_;
    stats_ = other.stats_;
    probe_ = other.probe_;
    rebindViews(other);
    return *this;
}

void
Core::rebindViews(const Core &other)
{
    const std::ptrdiff_t delta = arenaDelta(arena_, other.arena_);
    regfile_.shiftBase(delta);
    for (Rob &rob : robs_)
        rob.shiftBase(delta);
    for (ThreadState &ts : threads_) {
        ts.fetchQ.shiftBase(delta);
        ts.delayBuffer.shiftBase(delta);
        ts.storeList.shiftBase(delta);
    }
    scanScratch_.shiftBase(delta);
    for (RefList<SeqRef> &list : iqLists_)
        list.shiftBase(delta);
    for (RefList<FinishRef> &list : issuedLists_)
        list.shiftBase(delta);
    for (RefList<SeqRef> &row : wakeRows_)
        row.shiftBase(delta);
    for (RefList<SeqRef> &list : readyPools_)
        list.shiftBase(delta);
    for (RefList<SeqRef> &list : overflowLists_)
        list.shiftBase(delta);
}

bool
Core::occupiesIq(const RobHot &h)
{
    // The delay buffer is separate storage (Figure 4 of the paper:
    // it "conceptually extends the pipeline depth after completion"),
    // so completed instructions held for replay do not occupy
    // scheduler slots; replay marking re-acquires one.
    return h.valid && h.state == EntryState::Dispatched;
}

void
Core::pushRef(RefList<SeqRef> &list, EntryState want, const SeqRef &ref)
{
    if (list.full()) {
        const Rob &rob = robs_[ref.tid];
        list.compact([&](const SeqRef &r) {
            const RobHot &h = rob.hot(r.slot);
            return h.valid && h.seq == r.seq && h.state == want;
        });
    }
    list.push_back(ref);
}

void
Core::pushRef(RefList<FinishRef> &list, EntryState want,
              const FinishRef &ref)
{
    if (list.full()) {
        const Rob &rob = robs_[ref.tid];
        list.compact([&](const FinishRef &r) {
            const RobHot &h = rob.hot(r.slot);
            return h.valid && h.seq == r.seq && h.state == want;
        });
    }
    list.push_back(ref);
}

void
Core::sortBySeq(RefList<SeqRef> &v)
{
    for (u32 i = 1; i < v.size(); ++i) {
        const SeqRef key = v[i];
        u32 j = i;
        while (j > 0 && v[j - 1].seq > key.seq) {
            v[j] = v[j - 1];
            --j;
        }
        v[j] = key;
    }
}

unsigned
Core::computeIqOccupancy() const
{
    unsigned n = 0;
    for (const Rob &rob : robs_)
        for (unsigned i = 0; i < rob.size(); ++i)
            n += occupiesIq(rob.hot(rob.slotAt(i))) ? 1 : 0;
    return n;
}

unsigned
Core::computeLsqOccupancy() const
{
    unsigned n = 0;
    for (const Rob &rob : robs_)
        for (unsigned i = 0; i < rob.size(); ++i) {
            const RobHot &h = rob.hot(rob.slotAt(i));
            n += (h.valid && (h.isLoad || h.isStore)) ? 1 : 0;
        }
    return n;
}

void
Core::tick()
{
    ++cycle_;
    commitStage();
    completeStage();
    issueStage();
    dispatchStage();
    fetchStage();
    ++stats_.cycles;
}

void
Core::run(Cycle max_cycles)
{
    advance(max_cycles);
}

void
Core::advance(Cycle cycles)
{
    const Cycle end = cycle_ + cycles;
    while (cycle_ < end && !allHalted())
        tick();
}

bool
Core::runUntilCommitted(const std::vector<u64> &targets, Cycle max_cycles)
{
    auto done = [&] {
        for (unsigned tid = 0; tid < numThreads(); ++tid) {
            u64 target = tid < targets.size() ? targets[tid] : 0;
            if (!threads_[tid].halted && threads_[tid].committed < target)
                return false;
        }
        return true;
    };
    // A thread that is halted, or frozen at its stopAfterInsts
    // boundary, will never commit again; once every thread is in that
    // state no target can move, so ticking further only burns cycles.
    auto all_frozen = [&] {
        for (const ThreadState &ts : threads_) {
            if (ts.halted)
                continue;
            if (ts.opts.stopAfterInsts == 0 ||
                ts.committed < ts.opts.stopAfterInsts) {
                return false;
            }
        }
        return true;
    };
    const Cycle end = cycle_ + max_cycles;
    for (;;) {
        if (done())
            return true; // return before ticking: no post-freeze cycles
        if (stopOnWatchErased_ && regfile_.watchErased())
            return done(); // fault erased unread: outcome is decided
        if (all_frozen())
            return done(); // frozen short of a target: hung, bail now
        if (cycle_ >= end)
            return done();
        tick();
    }
}

Cycle
Core::runPerThreadBudget(u64 per_thread, Cycle max_cycles)
{
    std::vector<u64> targets;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        threads_[tid].opts.stopAfterInsts = per_thread;
        targets.push_back(per_thread);
    }
    const Cycle start = cycle_;
    runUntilCommitted(targets, max_cycles);
    return cycle_ - start;
}

bool
Core::allHalted() const
{
    for (const auto &ts : threads_)
        if (!ts.halted)
            return false;
    return true;
}

bool
Core::anyTrap() const
{
    for (const auto &ts : threads_)
        if (ts.trap != isa::Trap::None)
            return true;
    return false;
}

u64
Core::committedTotal() const
{
    u64 n = 0;
    for (const auto &ts : threads_)
        n += ts.committed;
    return n;
}

isa::ArchState
Core::archState(unsigned tid) const
{
    isa::ArchState state;
    for (unsigned arch = 0; arch < isa::numArchRegs; ++arch)
        state.regs[arch] = regfile_.read(renames_[tid].retire(arch));
    state.regs[0] = regfile_.read(renames_[tid].retire(0));
    state.pc = threads_[tid].nextCommitPc;
    state.halted = threads_[tid].halted;
    return state;
}

// ---------------------------------------------------------------- commit

bool
Core::tryCommitHead(unsigned tid)
{
    Rob &rob = robs_[tid];
    ThreadState &ts = threads_[tid];
    if (ts.halted || rob.empty())
        return false;

    if (ts.opts.stopAfterInsts != 0 &&
        ts.committed >= ts.opts.stopAfterInsts) {
        return false; // frozen at a precise commit boundary
    }

    const unsigned slot = rob.headSlot();
    RobHot &h = rob.hot(slot);
    RobCold &e = rob.cold(slot);
    if (h.state != EntryState::Completed)
        return false;
    if (e.commitReadyAt > cycle_)
        return false;

    // Commit-time LSQ check + singleton re-execute (Section 3.5).
    if ((h.isLoad || h.isStore) && !e.reexecDone && detectorEnabled_ &&
        detector_.active()) {
        CommitAction action = CommitAction::None;
        if (h.isLoad) {
            action = detector_.checkCommit(StreamKind::LoadAddr, e.pc,
                                           e.effAddr);
        } else {
            action = detector_.checkCommit(StreamKind::StoreAddr, e.pc,
                                           e.effAddr);
            if (action == CommitAction::None) {
                action = detector_.checkCommit(StreamKind::StoreValue,
                                               e.pc, e.storeData);
            }
        }
        if (action == CommitAction::Reexec) {
            // Re-execute the singleton from the register file, whose
            // values are architectural at this point, and compare with
            // the LSQ copy; a mismatch means a fault in the register
            // file or the LSQ and is *detected* (Section 3.5).
            e.reexecDone = true;
            ++stats_.reexecs;
            issueBlockedUntil_ =
                std::max(issueBlockedUntil_,
                         cycle_ + params_.reexecPenalty);
            e.commitReadyAt = cycle_ + params_.reexecPenalty;

            const u64 a = h.src1Preg != invalidPreg
                              ? regfile_.read(h.src1Preg)
                              : 0;
            ++stats_.regReads;
            const Addr addr_new = isa::effectiveAddr(e.inst, a);
            bool mismatch = addr_new != e.effAddr;
            if (h.isStore) {
                const u64 data_new = h.src2Preg != invalidPreg
                                         ? regfile_.read(h.src2Preg)
                                         : 0;
                ++stats_.regReads;
                mismatch = mismatch || data_new != e.storeData;
                if (mismatch) {
                    e.storeData = data_new;
                }
            }
            detector_.onReexecCompare(mismatch);
            if (mismatch) {
                faultDetected_ = true;
                e.effAddr = addr_new;
                if (memory_.check(e.effAddr) == mem::AccessResult::Ok)
                    e.trap = isa::Trap::None;
            }
            return false; // stalled at commit until the re-execute
        }
        e.reexecDone = true;
    }

    // Architectural traps are raised at commit.
    if (e.trap != isa::Trap::None) {
        ts.trap = e.trap;
        ts.halted = true;
        ts.archDigest ^= isa::kDigestHaltedSalt;
        squashAllOf(tid);
        if (observer_)
            observer_->onThreadHalted(*this, tid);
        return false;
    }

    if (h.isStore) {
        auto res = memory_.write(e.effAddr, e.storeData);
        if (res != mem::AccessResult::Ok) {
            ts.trap = res == mem::AccessResult::Unmapped
                          ? isa::Trap::MemUnmapped
                          : isa::Trap::MemMisaligned;
            ts.halted = true;
            ts.archDigest ^= isa::kDigestHaltedSalt;
            squashAllOf(tid);
            if (observer_)
                observer_->onThreadHalted(*this, tid);
            return false;
        }
    }

    if (e.destPreg != invalidPreg) {
        // O(1) arch-digest maintenance: arch register rd moves from
        // the current retire mapping's value to the new one. peek()
        // (not read()) — this is metadata, not dataflow, and must not
        // consume a fork's fault watch.
        const unsigned rd = e.inst.rd;
        ts.archDigest ^=
            isa::digestRegTerm(rd,
                               regfile_.peek(renames_[tid].retire(rd))) ^
            isa::digestRegTerm(rd, regfile_.peek(e.destPreg));
        renames_[tid].commit(e.inst.rd, e.destPreg);
        if (e.oldPreg != invalidPreg) {
            regfile_.release(e.oldPreg);
            // release() flips the ready bit back on: a consumer whose
            // injected (dangling) source tag aliases the freed preg
            // becomes issuable now, exactly as the scan would see it.
            if (!params_.scanIssue)
                wakePreg(e.oldPreg);
        }
    }

    {
        const u64 new_pc = isa::isBranch(e.inst.op)
                               ? (e.usedTaken ? e.inst.target : e.pc + 1)
                               : e.pc + 1;
        ts.archDigest ^= isa::digestPcTerm(ts.nextCommitPc) ^
                         isa::digestPcTerm(new_pc);
        ts.nextCommitPc = new_pc;
    }

    if (occupiesIq(h))
        --iqCount_;
    purgeFromQueues(ts, h, e, slot);
    if (h.isLoad || h.isStore)
        --lsqCounts_[tid];

    const bool was_halt = e.inst.op == isa::Op::Halt;
    if (h.isLoad)
        ++stats_.committedLoads;
    if (h.isStore)
        ++stats_.committedStores;
    if (isa::isBranch(e.inst.op))
        ++stats_.committedBranches;
    rob.popHead();
    ++ts.committed;
    ++stats_.committed;

    if (was_halt ||
        (ts.opts.maxInsts != 0 && ts.committed >= ts.opts.maxInsts)) {
        ts.halted = true;
        ts.archDigest ^= isa::kDigestHaltedSalt;
        squashAllOf(tid);
        if (observer_) {
            observer_->onCommit(*this, tid);
            observer_->onThreadHalted(*this, tid);
        }
        return true;
    }
    if (observer_)
        observer_->onCommit(*this, tid);
    return true;
}

void
Core::commitStage()
{
    unsigned budget = params_.commitWidth;
    const unsigned n = numThreads();
    for (unsigned off = 0; off < n && budget > 0; ++off) {
        unsigned tid = (static_cast<unsigned>(cycle_) + off) % n;
        while (budget > 0 && tryCommitHead(tid))
            --budget;
    }
}

// -------------------------------------------------------------- complete

void
Core::completeStage()
{
    RefList<SeqRef> &pending = scanScratch_;
    pending.clear();
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        Rob &rob = robs_[tid];
        // Scan only the slots known to be executing instead of the
        // whole window. Each ref carries the finish time recorded at
        // issue; entries whose key is still in the future can't
        // complete this cycle (the key never exceeds the live
        // finishCycle), so the scan skips them on the local word alone
        // without touching the ROB. Due refs get the full staleness
        // check (squashed, completed, reused) and fall out here,
        // exactly as the header-checked scan dropped them.
        RefList<FinishRef> &il = issuedLists_[tid];
        u32 keep = 0;
        for (u32 i = 0; i < il.size(); ++i) {
            FinishRef ref = il[i];
            if (ref.finish > cycle_) {
                if (keep != i)
                    il[keep] = ref;
                ++keep;
                continue;
            }
            const RobHot &h = rob.hot(ref.slot);
            if (!h.valid || h.seq != ref.seq ||
                h.state != EntryState::Issued) {
                continue;
            }
            ref.finish = h.finishCycle; // re-sync a deferred store
            il[keep++] = ref;
            if (h.finishCycle <= cycle_)
                pending.push_back({ref.seq, ref.tid, ref.slot});
        }
        il.resize(keep);
    }
    sortBySeq(pending);

    for (const SeqRef &p : pending) {
        Rob &rob = robs_[p.tid];
        RobHot &h = rob.hot(p.slot);
        // Re-validate: an earlier completion may have squashed us.
        if (!h.valid || h.seq != p.seq ||
            h.state != EntryState::Issued) {
            continue;
        }
        if (h.isStore) {
            RobCold &e = rob.cold(p.slot);
            if (!e.dataValid) {
                // Split store-data: capture the data operand when it
                // becomes ready; completion defers until then.
                if (h.src2Preg != invalidPreg &&
                    regfile_.ready(h.src2Preg)) {
                    e.storeData = regfile_.read(h.src2Preg);
                    ++stats_.regReads;
                    e.dataValid = true;
                } else {
                    h.finishCycle = cycle_ + 1;
                    continue;
                }
            }
        }
        completeEntry(p.tid, p.slot);
    }
    pending.clear();
}

void
Core::completeEntry(unsigned tid, unsigned slot)
{
    ThreadState &ts = threads_[tid];
    Rob &rob = robs_[tid];
    RobHot &h = rob.hot(slot);
    RobCold &e = rob.cold(slot);

    const bool was_replay = e.inReplay;
    const bool first_completion = !e.completedOnce;
    h.state = EntryState::Completed;
    e.completedOnce = true;
    e.commitReadyAt =
        std::max(e.commitReadyAt, cycle_ + params_.commitDelay);

    if (e.destPreg != invalidPreg) {
        regfile_.write(e.destPreg, e.result);
        ++stats_.regWrites;
        if (!params_.scanIssue)
            wakePreg(e.destPreg);
    }

    if (isa::isBranch(e.inst.op))
        resolveBranch(tid, slot);
    if (!h.valid) {
        // resolveBranch cannot squash the branch itself, but guard
        // against future changes.
        return;
    }

    if (was_replay) {
        e.inReplay = false;
        ++stats_.replaysExecuted;
    }
    if (detectorEnabled_ &&
        detector_.scheme() == filters::Scheme::FaultHound &&
        detector_.params().replayRecovery &&
        params_.delayBufferSize > 0) {
        // Detector-off cores (bare forks) skip the hold: the buffer
        // feeds triggerReplay alone, which is gated on detectorEnabled_,
        // and residency has no timing effect (occupiesIq excludes it) —
        // so an unread buffer would only tax every commit's purge.
        // Hold the completed instruction in the delay buffer for
        // potential predecessor replay. Replayed instructions
        // re-enter like any other completion, so a false-positive
        // replay leaves no vacancy window in which a real fault's
        // predecessors would be unreachable.
        e.inDelayBuffer = true;
        ts.delayBuffer.push_back(slot);
        if (ts.delayBuffer.size() > params_.delayBufferSize) {
            unsigned old_slot = ts.delayBuffer.front();
            ts.delayBuffer.pop_front();
            if (rob.hot(old_slot).valid &&
                rob.cold(old_slot).inDelayBuffer) {
                rob.cold(old_slot).inDelayBuffer = false;
            }
        }
    }

    if (probe_.enabled && first_completion) {
        if (h.isLoad)
            probe_.sample(StreamKind::LoadAddr, e.pc, e.effAddr);
        if (h.isStore) {
            probe_.sample(StreamKind::StoreAddr, e.pc, e.effAddr);
            probe_.sample(StreamKind::StoreValue, e.pc, e.storeData);
        }
    }

    if (h.isLoad || h.isStore)
        runCompleteChecks(tid, slot);
}

void
Core::resolveBranch(unsigned tid, unsigned slot)
{
    ThreadState &ts = threads_[tid];
    Rob &rob = robs_[tid];
    const RobHot &h = rob.hot(slot);
    RobCold &e = rob.cold(slot);
    const bool taken = e.result != 0;

    if (!e.resolvedOnce) {
        e.resolvedOnce = true;
        e.usedTaken = taken;
        if (isa::isCondBranch(e.inst.op) && !ts.opts.oracleFetch)
            predictor_.update(tid, e.pc, taken);
        if (taken != e.predTaken) {
            ++stats_.mispredicts;
            squashYounger(tid, h.seq);
            redirectFetch(tid, taken ? e.inst.target : e.pc + 1);
        }
        return;
    }

    // Replay re-resolution: a corrected direction redirects the front
    // end just like a mispredict (the first execution was faulty).
    if (taken != e.usedTaken) {
        e.usedTaken = taken;
        ++stats_.mispredicts;
        squashYounger(tid, h.seq);
        redirectFetch(tid, taken ? e.inst.target : e.pc + 1);
    }
}

void
Core::runCompleteChecks(unsigned tid, unsigned slot)
{
    if (!detectorEnabled_ || !detector_.active())
        return;

    ThreadState &ts = threads_[tid];
    const RobHot &h = robs_[tid].hot(slot);
    RobCold &e = robs_[tid].cold(slot);

    auto exempt = [&]() -> bool {
        if (e.inReplay)
            return true;
        if (ts.exemptChecks > 0) {
            --ts.exemptChecks;
            return true;
        }
        return false;
    };

    CompleteAction worst = CompleteAction::None;
    if (h.isLoad) {
        worst = detector_.checkComplete(StreamKind::LoadAddr, e.pc,
                                        e.effAddr, exempt());
    } else {
        worst = detector_.checkComplete(StreamKind::StoreAddr, e.pc,
                                        e.effAddr, exempt());
        CompleteAction value_action = detector_.checkComplete(
            StreamKind::StoreValue, e.pc, e.storeData, exempt());
        worst = std::max(worst, value_action);
    }

    if (worst == CompleteAction::Replay)
        triggerReplay(tid);
    else if (worst == CompleteAction::Rollback)
        faultRollback(tid);
}

// ---------------------------------------------------------------- issue

bool
Core::loadBlocked(unsigned tid, SeqNum seq, Addr addr) const
{
    const ThreadState &ts = threads_[tid];
    const Rob &rob = robs_[tid];
    for (u32 i = 0; i < ts.storeList.size(); ++i) {
        const unsigned slot = ts.storeList[i];
        const RobHot &sh = rob.hot(slot);
        if (!sh.valid || sh.seq >= seq)
            continue;
        const RobCold &s = rob.cold(slot);
        if (!s.addrValid)
            return true; // no memory-dependence speculation
        if (s.effAddr == addr && !s.dataValid)
            return true; // forwarding source not ready yet
    }
    return false;
}

u64
Core::loadValueFor(unsigned tid, SeqNum seq, Addr addr) const
{
    const ThreadState &ts = threads_[tid];
    const Rob &rob = robs_[tid];
    // Forward from the youngest older store to the same address (its
    // data is ready: loadBlocked gates issue otherwise).
    for (u32 i = ts.storeList.size(); i-- > 0;) {
        const unsigned slot = ts.storeList[i];
        const RobHot &sh = rob.hot(slot);
        if (!sh.valid || sh.seq >= seq)
            continue;
        const RobCold &s = rob.cold(slot);
        if (s.addrValid && s.effAddr == addr && s.dataValid)
            return s.storeData;
    }
    u64 value = 0;
    memory_.read(addr, value);
    return value;
}

void
Core::executeAtIssue(unsigned tid, unsigned slot)
{
    Rob &rob = robs_[tid];
    RobHot &h = rob.hot(slot);
    RobCold &entry = rob.cold(slot);
    ThreadState &ts = threads_[tid];
    const bool is_store = isa::classOf(entry.inst.op) ==
                          isa::OpClass::Store;
    u64 a = 0;
    u64 b = 0;
    if (h.src1Preg != invalidPreg) {
        a = regfile_.read(h.src1Preg);
        ++stats_.regReads;
    }
    if (h.src2Preg != invalidPreg && !is_store) {
        b = regfile_.read(h.src2Preg);
        ++stats_.regReads;
    }

    switch (isa::classOf(entry.inst.op)) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntMul:
        entry.result = isa::aluCompute(entry.inst, a, b);
        h.finishCycle = cycle_ + isa::execLatency(entry.inst.op);
        break;
      case isa::OpClass::Load: {
        entry.effAddr = isa::effectiveAddr(entry.inst, a);
        entry.addrValid = true;
        Cycle latency = hier_.params().l1d.hitLatency;
        if (!ts.opts.perfectDcache)
            latency = hier_.data(entry.effAddr, cycle_).latency;
        const mem::AccessResult chk = memory_.check(entry.effAddr);
        if (chk != mem::AccessResult::Ok) {
            entry.trap = chk == mem::AccessResult::Unmapped
                             ? isa::Trap::MemUnmapped
                             : isa::Trap::MemMisaligned;
            entry.result = 0;
        } else {
            entry.result = loadValueFor(tid, h.seq, entry.effAddr);
        }
        entry.loadValue = entry.result;
        h.finishCycle = cycle_ + 1 + latency;
        break;
      }
      case isa::OpClass::Store:
        // Split store-address / store-data: the address computes now;
        // the data is captured at completion once its operand is
        // ready (completeStage defers the store until then).
        entry.effAddr = isa::effectiveAddr(entry.inst, a);
        entry.addrValid = true;
        entry.dataValid = false;
        if (h.src2Preg == invalidPreg) {
            entry.storeData = 0;
            entry.dataValid = true;
        } else if (regfile_.ready(h.src2Preg)) {
            entry.storeData = regfile_.read(h.src2Preg);
            ++stats_.regReads;
            entry.dataValid = true;
        }
        if (!ts.opts.perfectDcache)
            hier_.data(entry.effAddr, cycle_);
        h.finishCycle = cycle_ + 1;
        break;
      case isa::OpClass::Branch:
        entry.result = isa::branchTaken(entry.inst.op, a, b) ? 1 : 0;
        h.finishCycle = cycle_ + 1;
        break;
      default:
        fh_panic("executeAtIssue on %s",
                 isa::nameOf(entry.inst.op).data());
    }
}

void
Core::issueStage()
{
    if (cycle_ < issueBlockedUntil_)
        return; // singleton re-execute owns the issue slots

    scanScratch_.clear();
    if (params_.scanIssue)
        collectCandidatesScan();
    else
        collectCandidatesWakeup();
    sortBySeq(scanScratch_);
    stats_.issueCandidates += scanScratch_.size();
    issueCandidates();
    scanScratch_.clear();
}

void
Core::collectCandidatesScan()
{
    RefList<SeqRef> &ready = scanScratch_;
    ++stats_.issueEvals;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        Rob &rob = robs_[tid];
        // Scan only the slots known to wait in the issue queue; stale
        // refs (squashed, issued, reused) fall out of the list here.
        // List order does not matter — the sort below puts candidates
        // in seq order, exactly as the full ROB walk produced them.
        // Rejections read only the hot headers and ready bytes; the
        // cold payload is touched for ready loads alone.
        RefList<SeqRef> &iq = iqLists_[tid];
        u32 keep = 0;
        for (u32 i = 0; i < iq.size(); ++i) {
            const SeqRef ref = iq[i];
            const RobHot &h = rob.hot(ref.slot);
            if (!h.valid || h.seq != ref.seq ||
                h.state != EntryState::Dispatched) {
                continue;
            }
            if (keep != i)
                iq[keep] = ref;
            ++keep;
            if (h.src1Preg != invalidPreg && !regfile_.ready(h.src1Preg))
                continue;
            // Stores wait only for the address operand; the data is
            // captured later (split store-address/store-data).
            if (!h.isStore && h.src2Preg != invalidPreg &&
                !regfile_.ready(h.src2Preg)) {
                continue;
            }
            if (h.isLoad) {
                const RobCold &e = rob.cold(ref.slot);
                const u64 base_val = h.src1Preg != invalidPreg
                                         ? regfile_.read(h.src1Preg)
                                         : 0;
                const Addr addr = isa::effectiveAddr(e.inst, base_val);
                if (loadBlocked(tid, h.seq, addr))
                    continue;
            }
            ready.push_back(ref);
        }
        iq.resize(keep);
    }
}

void
Core::collectCandidatesWakeup()
{
    RefList<SeqRef> &ready = scanScratch_;
    bool examined = false;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        Rob &rob = robs_[tid];

        // Slow path first: the overflow list holds waiters whose wake
        // row was full (including dangling rename-fault tags that may
        // never see a wake). They get the full scan predicate every
        // cycle, exactly like a scan-mode IQ ref; not-ready refs stay
        // parked here rather than bouncing back onto saturated rows.
        RefList<SeqRef> &ovfl = overflowLists_[tid];
        u32 keep = 0;
        for (u32 i = 0; i < ovfl.size(); ++i) {
            const SeqRef ref = ovfl[i];
            ++stats_.overflowRescans;
            examined = true;
            const RobHot &h = rob.hot(ref.slot);
            if (!h.valid || h.seq != ref.seq ||
                h.state != EntryState::Dispatched) {
                continue; // stale: squashed, issued, or slot reused
            }
            ovfl[keep++] = ref;
            if (h.src1Preg != invalidPreg && !regfile_.ready(h.src1Preg))
                continue;
            if (!h.isStore && h.src2Preg != invalidPreg &&
                !regfile_.ready(h.src2Preg)) {
                continue;
            }
            if (h.isLoad) {
                const RobCold &e = rob.cold(ref.slot);
                const u64 base_val = h.src1Preg != invalidPreg
                                         ? regfile_.read(h.src1Preg)
                                         : 0;
                const Addr addr = isa::effectiveAddr(e.inst, base_val);
                if (loadBlocked(tid, h.seq, addr))
                    continue;
            }
            ready.push_back(ref);
        }
        ovfl.resize(keep);

        // Ready pool: every ref re-proves the full scan predicate
        // before becoming a candidate. Readiness is non-monotonic
        // (triggerReplay re-marks producers not-ready), so a pooled
        // entry whose source went cold re-subscribes to a wake row and
        // leaves the pool; a load blocked on memory ordering stays
        // pooled (its store dependence has no wake edge) but yields no
        // candidate — identical to the scan's rejection.
        RefList<SeqRef> &pool = readyPools_[tid];
        keep = 0;
        for (u32 i = 0; i < pool.size(); ++i) {
            const SeqRef ref = pool[i];
            examined = true;
            const RobHot &h = rob.hot(ref.slot);
            if (!h.valid || h.seq != ref.seq ||
                h.state != EntryState::Dispatched) {
                continue; // stale ref, drop
            }
            if (h.src1Preg != invalidPreg &&
                !regfile_.ready(h.src1Preg)) {
                subscribeWaiter(h.src1Preg, ref);
                continue;
            }
            if (!h.isStore && h.src2Preg != invalidPreg &&
                !regfile_.ready(h.src2Preg)) {
                subscribeWaiter(h.src2Preg, ref);
                continue;
            }
            pool[keep++] = ref;
            if (h.isLoad) {
                const RobCold &e = rob.cold(ref.slot);
                const u64 base_val = h.src1Preg != invalidPreg
                                         ? regfile_.read(h.src1Preg)
                                         : 0;
                const Addr addr = isa::effectiveAddr(e.inst, base_val);
                if (loadBlocked(tid, h.seq, addr))
                    continue;
            }
            ready.push_back(ref);
        }
        pool.resize(keep);
    }
    if (examined)
        ++stats_.issueEvals;
}

void
Core::issueCandidates()
{
    unsigned total = 0;
    unsigned alu = 0;
    unsigned mul = 0;
    unsigned mem_ops = 0;
    for (const SeqRef &c : scanScratch_) {
        if (total >= params_.issueWidth)
            break;
        Rob &rob = robs_[c.tid];
        RobHot &h = rob.hot(c.slot);
        // Re-validate: the IQ list may briefly hold two refs to the
        // same entry (a replay re-append while issue was blocked), and
        // the first of the pair has issued it by the time the second
        // comes around.
        if (!h.valid || h.seq != c.seq ||
            h.state != EntryState::Dispatched) {
            continue;
        }
        switch (isa::classOf(rob.cold(c.slot).inst.op)) {
          case isa::OpClass::IntMul:
            if (mul >= params_.numMul)
                continue;
            ++mul;
            break;
          case isa::OpClass::Load:
          case isa::OpClass::Store:
            if (mem_ops >= params_.memPorts)
                continue;
            ++mem_ops;
            break;
          default:
            if (alu >= params_.numAlu)
                continue;
            ++alu;
            break;
        }
        executeAtIssue(c.tid, c.slot);
        h.state = EntryState::Issued;
        pushRef(issuedLists_[c.tid], EntryState::Issued,
                {h.finishCycle, c.seq, c.tid, c.slot});
        --iqCount_; // issued instructions vacate the scheduler
        ++total;
        ++stats_.issued;
    }
}

// The comment above issueStage's re-validation applies in wakeup mode
// too: the pool/overflow may briefly hold two refs to one entry (a
// replay re-dispatch while a stale ref still matches the reused
// seq/slot), so the candidate *multiplicity* can differ between modes
// — but duplicates past the first always fail the state check here,
// so the issued sequence is identical.

void
Core::enqueueForIssue(unsigned tid, unsigned slot, const RobHot &h)
{
    const SeqRef ref{h.seq, tid, slot};
    // Subscribe to the first not-ready source, probed in the exact
    // order the scan predicate checks them; the pool re-check catches
    // a second source that goes cold later.
    if (h.src1Preg != invalidPreg && !regfile_.ready(h.src1Preg)) {
        subscribeWaiter(h.src1Preg, ref);
        return;
    }
    if (!h.isStore && h.src2Preg != invalidPreg &&
        !regfile_.ready(h.src2Preg)) {
        subscribeWaiter(h.src2Preg, ref);
        return;
    }
    pushRef(readyPools_[tid], EntryState::Dispatched, ref);
}

void
Core::subscribeWaiter(unsigned preg, const SeqRef &ref)
{
    RefList<SeqRef> &row = wakeRows_[preg];
    if (row.full()) {
        // One row can hold waiters from several threads (dangling
        // rename-fault tags cross contexts), so staleness must consult
        // each ref's own ROB — unlike pushRef's single-list predicate.
        row.compact([&](const SeqRef &r) {
            const RobHot &h = robs_[r.tid].hot(r.slot);
            return h.valid && h.seq == r.seq &&
                   h.state == EntryState::Dispatched;
        });
    }
    if (!row.full()) {
        row.push_back(ref);
        return;
    }
    ++stats_.overflowParks;
    pushRef(overflowLists_[ref.tid], EntryState::Dispatched, ref);
}

void
Core::wakePreg(unsigned preg)
{
    RefList<SeqRef> &row = wakeRows_[preg];
    for (u32 i = 0; i < row.size(); ++i) {
        const SeqRef r = row[i];
        const RobHot &h = robs_[r.tid].hot(r.slot);
        if (h.valid && h.seq == r.seq &&
            h.state == EntryState::Dispatched) {
            pushRef(readyPools_[r.tid], EntryState::Dispatched, r);
            ++stats_.wakeupHits;
        }
    }
    row.clear();
}

void
Core::drainAllWakeRows()
{
    for (unsigned preg = 0; preg < params_.physRegs; ++preg)
        if (!wakeRows_[preg].empty())
            wakePreg(preg);
}

// -------------------------------------------------------------- dispatch

void
Core::dispatchStage()
{
    unsigned budget = params_.dispatchWidth;
    const unsigned n = numThreads();
    for (unsigned off = 0; off < n && budget > 0; ++off) {
        unsigned tid = (static_cast<unsigned>(cycle_) + off) % n;
        ThreadState &ts = threads_[tid];
        Rob &rob = robs_[tid];
        if (quiesceFrozen_ && ts.opts.stopAfterInsts != 0 &&
            ts.committed >= ts.opts.stopAfterInsts) {
            continue; // frozen thread: stop feeding the back end
        }
        while (budget > 0 && !ts.halted && !ts.fetchQ.empty()) {
            FetchedInst &f = ts.fetchQ.front();
            if (f.availAt > cycle_)
                break;
            if (rob.full())
                break;

            const isa::OpClass cls = isa::classOf(f.inst.op);
            const bool needs_iq = cls != isa::OpClass::Nop &&
                                  cls != isa::OpClass::Halt;
            const bool is_mem = cls == isa::OpClass::Load ||
                                cls == isa::OpClass::Store;

            if (needs_iq && iqCount_ >= params_.iqSize)
                break; // scheduler full
            // The LSQ is statically partitioned per provisioned SMT
            // context, like the ROB.
            if (is_mem && lsqCounts_[tid] >= params_.lsqSize / 2)
                break;

            unsigned dest = invalidPreg;
            const bool writes = isa::writesReg(f.inst.op) &&
                                f.inst.rd != 0;
            if (writes && !regfile_.allocate(dest))
                break;

            unsigned slot = rob.allocate();
            RobHot &h = rob.hot(slot);
            RobCold &e = rob.cold(slot);
            e.tid = tid;
            h.seq = nextSeq_++;
            e.pc = f.pc;
            e.inst = f.inst;
            e.predTaken = f.predTaken;
            e.usedTaken = f.predTaken;
            h.isLoad = isa::isLoad(f.inst.op);
            h.isStore = isa::isStore(f.inst.op);

            RenameMap &map = renames_[tid];
            if (f.inst.readsRs1())
                h.src1Preg = map.spec(f.inst.rs1);
            if (f.inst.readsRs2())
                h.src2Preg = map.spec(f.inst.rs2);
            if (writes) {
                e.destPreg = dest;
                e.oldPreg = map.rename(f.inst.rd, dest);
            }

            if (needs_iq) {
                ++iqCount_;
                if (params_.scanIssue) {
                    pushRef(iqLists_[tid], EntryState::Dispatched,
                            {h.seq, tid, slot});
                } else {
                    enqueueForIssue(tid, slot, h);
                }
            } else {
                h.state = EntryState::Completed;
                e.completedOnce = true;
            }
            if (is_mem) {
                ++lsqCounts_[tid];
                if (h.isStore)
                    ts.storeList.push_back(slot);
            }

            if (h.isLoad)
                ++stats_.loads;
            if (h.isStore)
                ++stats_.stores;
            if (isa::isBranch(f.inst.op))
                ++stats_.branches;

            ts.fetchQ.pop_front();
            ++stats_.dispatched;
            --budget;
        }
    }
}

// ----------------------------------------------------------------- fetch

bool
Core::fetchOne(unsigned tid)
{
    ThreadState &ts = threads_[tid];
    if (ts.fetchPc >= prog_->text.size()) {
        ts.fetchBlocked = true;
        return false;
    }

    const u64 pc = ts.fetchPc;
    const isa::Instruction &inst = prog_->text[pc];
    bool taken = false;
    bool pred = false;

    if (isa::isCondBranch(inst.op)) {
        if (ts.opts.oracleFetch) {
            pred = isa::branchTaken(inst.op, ts.oracle.regs[inst.rs1],
                                    ts.oracle.regs[inst.rs2]);
        } else {
            pred = predictor_.predict(tid, pc);
        }
        taken = pred;
    } else if (inst.op == isa::Op::Jmp) {
        pred = true;
        taken = true;
    }

    if (ts.opts.oracleFetch && !ts.oracle.halted)
        isa::stepArch(*prog_, memory_, ts.oracle);

    ts.fetchQ.push_back(
        {inst, pc, pred, cycle_ + params_.frontEndDepth});
    ++stats_.fetched;

    ts.fetchPc = taken ? inst.target : pc + 1;
    if (inst.op == isa::Op::Halt) {
        ts.fetchBlocked = true;
        return false;
    }
    return !taken;
}

void
Core::fetchStage()
{
    const unsigned n = numThreads();
    // Coarse round-robin: one thread fetches per cycle. A persistent
    // rotation pointer keeps the split fair when some threads are
    // stalled or halted.
    for (unsigned off = 1; off <= n; ++off) {
        unsigned tid = (fetchRotate_ + off) % n;
        ThreadState &ts = threads_[tid];
        if (ts.halted || ts.fetchBlocked || ts.fetchStallUntil > cycle_)
            continue;
        if (ts.opts.stopAfterInsts != 0 &&
            ts.committed >= ts.opts.stopAfterInsts) {
            continue; // frozen threads stop consuming fetch slots
        }
        if (ts.fetchQ.size() >= 4 * params_.fetchWidth)
            continue;
        if (ts.fetchPc >= prog_->text.size()) {
            ts.fetchBlocked = true;
            continue;
        }

        fetchRotate_ = tid;
        auto timing = hier_.fetch(prog_->fetchAddr(ts.fetchPc), cycle_);
        if (!timing.l1Hit) {
            ts.fetchStallUntil = cycle_ + timing.latency;
            return;
        }

        for (unsigned i = 0; i < params_.fetchWidth; ++i)
            if (!fetchOne(tid))
                break;
        return; // only one thread fetches per cycle
    }
}

// ------------------------------------------------- recovery machinery

void
Core::triggerReplay(unsigned tid)
{
    ThreadState &ts = threads_[tid];
    Rob &rob = robs_[tid];
    if (ts.delayBuffer.empty())
        return;
    ++stats_.replayTriggers;

    for (u32 i = 0; i < ts.delayBuffer.size(); ++i) {
        const unsigned slot = ts.delayBuffer[i];
        RobHot &h = rob.hot(slot);
        RobCold &e = rob.cold(slot);
        if (!h.valid || h.state != EntryState::Completed ||
            !e.inDelayBuffer) {
            continue;
        }
        // Re-acquire a scheduler slot for the re-execution (the
        // window may transiently exceed iqSize; dispatch stalls until
        // it drains, which is the replay's back-pressure).
        h.state = EntryState::Dispatched;
        ++iqCount_;
        // Mark the destination cold *before* routing the entry: the
        // delay buffer is oldest-first and producers complete before
        // their consumers, so a replayed consumer later in this loop
        // subscribes to the already-not-ready producer it depends on.
        e.inReplay = true;
        e.inDelayBuffer = false;
        if (e.destPreg != invalidPreg)
            regfile_.markNotReady(e.destPreg);
        if (params_.scanIssue) {
            pushRef(iqLists_[tid], EntryState::Dispatched,
                    {h.seq, tid, slot});
        } else {
            enqueueForIssue(tid, slot, h);
        }
        if (h.isLoad || h.isStore) {
            e.addrValid = false;
            e.dataValid = false;
        }
        ++stats_.replayMarked;
    }
    ts.delayBuffer.clear();
}

void
Core::undoRenameOf(RobCold &entry, unsigned tid)
{
    if (entry.destPreg != invalidPreg) {
        renames_[tid].restore(entry.inst.rd, entry.oldPreg);
        regfile_.release(entry.destPreg);
        // The freed preg reads as ready again; waiters holding it as a
        // (possibly dangling) source tag become issuable.
        if (!params_.scanIssue)
            wakePreg(entry.destPreg);
    }
}

void
Core::purgeFromQueues(ThreadState &ts, const RobHot &h, RobCold &e,
                      unsigned slot)
{
    // inDelayBuffer and isStore are exact residency invariants (the
    // ring insert/remove sites all maintain them), so entries outside
    // a queue skip its compaction scan entirely. The departing store
    // is the oldest at commit (front) and the youngest in a squash
    // walk-back (back); eraseValue stays as the general fallback.
    if (e.inDelayBuffer) {
        ts.delayBuffer.eraseValue(slot);
        e.inDelayBuffer = false;
    }
    if (h.isStore && !ts.storeList.empty()) {
        if (ts.storeList.front() == slot)
            ts.storeList.pop_front();
        else if (ts.storeList.back() == slot)
            ts.storeList.pop_back();
        else
            ts.storeList.eraseValue(slot);
    }
}

void
Core::squashYounger(unsigned tid, SeqNum seq)
{
    Rob &rob = robs_[tid];
    while (!rob.empty()) {
        unsigned slot = rob.tailSlot();
        RobHot &h = rob.hot(slot);
        if (h.seq <= seq)
            break;
        undoRenameOf(rob.cold(slot), tid);
        if (occupiesIq(h))
            --iqCount_;
        if (h.isLoad || h.isStore)
            --lsqCounts_[tid];
        purgeFromQueues(threads_[tid], h, rob.cold(slot), slot);
        rob.popTail();
        ++stats_.mispredictSquashed;
    }
}

void
Core::squashAllOf(unsigned tid)
{
    ThreadState &ts = threads_[tid];
    Rob &rob = robs_[tid];
    while (!rob.empty()) {
        unsigned slot = rob.tailSlot();
        const RobHot &h = rob.hot(slot);
        const RobCold &e = rob.cold(slot);
        if (e.destPreg != invalidPreg) {
            regfile_.release(e.destPreg);
            if (!params_.scanIssue)
                wakePreg(e.destPreg);
        }
        if (occupiesIq(h))
            --iqCount_;
        if (h.isLoad || h.isStore)
            --lsqCounts_[tid];
        rob.popTail();
    }
    renames_[tid].rollbackToRetire();
    ts.delayBuffer.clear();
    ts.storeList.clear();
    ts.fetchQ.clear();
}

void
Core::faultRollback(unsigned tid)
{
    ThreadState &ts = threads_[tid];
    fh_assert(!ts.opts.oracleFetch,
              "fault rollback on an oracle-fetch thread");
    ++stats_.faultRollbacks;

    u64 squashed = robs_[tid].size();
    u64 exempt = 0;
    Rob &rob = robs_[tid];
    for (unsigned i = 0; i < rob.size(); ++i) {
        const RobHot &h = rob.hot(rob.slotAt(i));
        if (h.isLoad)
            exempt += 1;
        else if (h.isStore)
            exempt += 2;
    }

    squashAllOf(tid);
    stats_.rollbackSquashed += squashed;

    // Map-based recovery: rebuild the free list from the surviving
    // rename state, repairing any free-list damage left by a faulty
    // rename tag (Section 3.4) if the wrongly-freed register has not
    // been reallocated yet.
    std::vector<bool> live(regfile_.size(), false);
    for (unsigned t = 0; t < numThreads(); ++t) {
        for (unsigned arch = 0; arch < isa::numArchRegs; ++arch) {
            live[renames_[t].retire(arch)] = true;
            live[renames_[t].spec(arch)] = true;
        }
        const Rob &other = robs_[t];
        for (unsigned i = 0; i < other.size(); ++i) {
            const unsigned slot = other.slotAt(i);
            const RobHot &h = other.hot(slot);
            if (!h.valid)
                continue;
            const RobCold &e = other.cold(slot);
            if (e.destPreg != invalidPreg)
                live[e.destPreg] = true;
            if (e.oldPreg != invalidPreg)
                live[e.oldPreg] = true;
        }
    }
    regfile_.resetFreeList(live);
    // The free-list rebuild may flip many ready bits at once (wrongly-
    // freed registers repaired back to ready). Conservatively drain
    // every wake row into the pools; the per-cycle pool re-check
    // re-subscribes anything still genuinely waiting. Rollbacks are
    // rare, so the mass drain costs nothing on the steady path.
    if (!params_.scanIssue)
        drainAllWakeRows();

    // Values recomputed by the rollback are deemed final: the next
    // checks of this thread update the filters without re-triggering.
    ts.exemptChecks += exempt;
    redirectFetch(tid, ts.nextCommitPc);
}

void
Core::redirectFetch(unsigned tid, u64 pc)
{
    ThreadState &ts = threads_[tid];
    ts.fetchPc = pc;
    ts.fetchQ.clear();
    ts.fetchBlocked = false;
    ts.fetchStallUntil =
        std::max(ts.fetchStallUntil, cycle_ + params_.redirectPenalty);
}

// --------------------------------------------------------- fault hooks

void
Core::injectRegfileBit(unsigned preg, unsigned bit)
{
    fh_assert(preg < regfile_.size() && bit < wordBits,
              "regfile injection out of range");
    regfile_.flipBit(preg, bit);
}

std::vector<unsigned>
Core::inflightDestPregs() const
{
    // A datapath/control fault corrupts a value *at production time*
    // (ALU output, writeback bus, bypass), so candidates are the
    // destinations of instructions that completed within the last few
    // cycles. (Not-yet-executed destinations would be overwritten by
    // their own writeback; long-completed ones model RF cell faults,
    // which the uniform register-file draw already covers.)
    constexpr Cycle window = 1;
    std::vector<unsigned> pregs;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        const Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const RobHot &h = rob.hot(slot);
            const RobCold &e = rob.cold(slot);
            if (h.valid && e.destPreg != invalidPreg &&
                h.state == EntryState::Completed &&
                h.finishCycle + window >= cycle_) {
                pregs.push_back(e.destPreg);
            }
        }
    }
    return pregs;
}

PregPhase
Core::pregPhase(unsigned preg) const
{
    if (regfile_.isFree(preg))
        return PregPhase::Free;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        const Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const RobHot &h = rob.hot(slot);
            if (h.valid && rob.cold(slot).destPreg == preg) {
                return h.state == EntryState::Completed
                           ? PregPhase::Completed
                           : PregPhase::InFlight;
            }
        }
    }
    for (unsigned tid = 0; tid < numThreads(); ++tid)
        for (unsigned arch = 0; arch < isa::numArchRegs; ++arch)
            if (renames_[tid].retire(arch) == preg)
                return PregPhase::Architectural;
    // Owned but unnamed: a previous architectural value still readable
    // by in-flight consumers.
    return PregPhase::Completed;
}

unsigned
Core::lsqOccupied() const
{
    unsigned n = 0;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        const Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const RobHot &h = rob.hot(slot);
            if (h.valid && (h.isLoad || h.isStore) &&
                rob.cold(slot).addrValid) {
                ++n;
            }
        }
    }
    return n;
}

bool
Core::injectLsqBit(unsigned nth, bool addr_field, unsigned bit)
{
    fh_assert(bit < wordBits, "LSQ injection bit out of range");
    unsigned n = 0;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const RobHot &h = rob.hot(slot);
            RobCold &e = rob.cold(slot);
            if (!h.valid || !(h.isLoad || h.isStore) || !e.addrValid)
                continue;
            if (n++ == nth) {
                if (addr_field || h.isLoad)
                    e.effAddr ^= 1ULL << bit;
                else
                    e.storeData ^= 1ULL << bit;
                return true;
            }
        }
    }
    return false;
}

u64
Core::pcOfDestPreg(unsigned preg) const
{
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        const Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            if (rob.hot(slot).valid &&
                rob.cold(slot).destPreg == preg) {
                return rob.cold(slot).pc;
            }
        }
    }
    return 0;
}

u64
Core::pcOfLsqNth(unsigned nth) const
{
    unsigned n = 0;
    for (unsigned tid = 0; tid < numThreads(); ++tid) {
        const Rob &rob = robs_[tid];
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const RobHot &h = rob.hot(slot);
            const RobCold &e = rob.cold(slot);
            if (!h.valid || !(h.isLoad || h.isStore) || !e.addrValid)
                continue;
            if (n++ == nth)
                return e.pc;
        }
    }
    return 0;
}

void
Core::injectRenameBit(unsigned tid, unsigned arch, unsigned bit)
{
    fh_assert(tid < numThreads() && arch < isa::numArchRegs,
              "rename injection out of range");
    renames_[tid].flipSpecBit(arch, bit, regfile_.size());
}

} // namespace fh::pipeline
