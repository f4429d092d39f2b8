#include "fault/golden_ledger.hh"

#include "sim/logging.hh"

namespace fh::fault
{

GoldenLedger::GoldenLedger(pipeline::Core &master)
    : master_(&master), watches_(master.numThreads())
{
}

bool
GoldenLedger::supports(const pipeline::Core &master,
                       const isa::Program &prog)
{
    const auto segs = master.memory().segments();
    const unsigned n = master.numThreads();
    if (segs.size() < n || prog.threadBases.size() < n)
        return false;
    for (unsigned tid = 0; tid < n; ++tid) {
        if (segs[tid].base != prog.baseOf(tid))
            return false;
    }
    return true;
}

void
GoldenLedger::finalizeThread(Entry &e, unsigned tid)
{
    e.archDigests[tid] = master_->archDigest(tid);
    e.digests[tid] = master_->memory().segmentDigest(tid);
    if (master_->committed(tid) < e.targets[tid])
        e.crossed = false; // halted / force-finalized short of target
    if (master_->trapOf(tid) != isa::Trap::None)
        e.trapped = true;
    fh_assert(e.remaining > 0, "ledger entry finalized twice");
    if (--e.remaining > 0)
        return;
    // open() sampled the unowned segments on the premise that a
    // fault-free run never writes them; refuse a program that does
    // rather than classify against a stale digest.
    const mem::Memory &m = master_->memory();
    for (size_t s = master_->numThreads(); s < e.digests.size(); ++s) {
        if (m.segmentDigest(s) != e.digests[s])
            fh_fatal("a fault-free run wrote memory segment %zu, which "
                     "no SMT thread owns; the golden ledger cannot "
                     "classify this program",
                     s);
    }
}

void
GoldenLedger::open(Entry &e)
{
    const unsigned n = master_->numThreads();
    const mem::Memory &m = master_->memory();
    fh_assert(e.targets.size() == n, "a ledger entry needs one target "
                                     "per SMT thread");
    e.archDigests.assign(n, 0);
    // Unowned segments keep this digest; owned ones are resampled when
    // their thread crosses.
    e.digests.resize(m.segmentCount());
    for (size_t s = 0; s < e.digests.size(); ++s)
        e.digests[s] = m.segmentDigest(s);
    e.trapped = false;
    e.crossed = true;
    e.remaining = n;

    for (unsigned tid = 0; tid < n; ++tid) {
        const u64 target = e.targets[tid];
        if (master_->halted(tid) || master_->committed(tid) >= target) {
            // A golden fork would freeze (or already be halted) here
            // without committing anything more on this thread.
            finalizeThread(e, tid);
            continue;
        }
        fh_assert(watches_[tid].empty() ||
                      watches_[tid].back().target <= target,
                  "ledger targets must be nondecreasing per thread");
        watches_[tid].push_back({&e, target});
    }
}

void
GoldenLedger::forceFinalizeAll()
{
    for (unsigned tid = 0; tid < watches_.size(); ++tid) {
        auto &dq = watches_[tid];
        while (!dq.empty()) {
            finalizeThread(*dq.front().entry, tid);
            dq.pop_front();
        }
    }
}

bool
GoldenLedger::matches(const Entry &e, const pipeline::Core &fork)
{
    for (unsigned tid = 0; tid < fork.numThreads(); ++tid) {
        // Recompute the fork side from materialized state: a faulty
        // fork's incremental digest can be stale (Core::archDigest).
        if (isa::archStateDigest(fork.archState(tid)) !=
            e.archDigests[tid]) {
            return false;
        }
    }
    const mem::Memory &m = fork.memory();
    for (size_t s = 0; s < e.digests.size(); ++s) {
        if (m.segmentDigest(s) != e.digests[s])
            return false;
    }
    return true;
}

void
GoldenLedger::onCommit(const pipeline::Core &core, unsigned tid)
{
    if (&core != master_)
        return; // a fork copied the observer pointer; ignore it
    auto &dq = watches_[tid];
    const u64 committed = core.committed(tid);
    while (!dq.empty() && dq.front().target <= committed) {
        finalizeThread(*dq.front().entry, tid);
        dq.pop_front();
    }
}

void
GoldenLedger::onThreadHalted(const pipeline::Core &core, unsigned tid)
{
    if (&core != master_)
        return;
    // The thread will never commit again; every pending watch on it
    // finalizes with the halted state — exactly what a golden fork
    // frozen short of its target would have sampled.
    auto &dq = watches_[tid];
    while (!dq.empty()) {
        finalizeThread(*dq.front().entry, tid);
        dq.pop_front();
    }
}

} // namespace fh::fault
