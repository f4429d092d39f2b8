/**
 * @file
 * Golden checkpoint ledger: the fault campaign's fault-free reference.
 *
 * A trial is classified against what a fault-free ("golden") fork of
 * its snapshot would look like at the trial's per-thread commit
 * targets. The serially advancing master *is* that fault-free
 * execution: every workload gives each SMT thread a private memory
 * segment (guard gaps, r1-relative addressing), so a thread's
 * committed values are a pure function of its own commit count —
 * independent of scheduling, of the other threads, and of whether the
 * detector is checking. The master crossing commit count N on thread t
 * therefore has exactly the architectural register state, trap status
 * and segment contents a frozen golden fork would show at target N.
 * Segments no thread owns (a 1-thread core running a program laid out
 * for 2) are never written by a fault-free run, so their digest at
 * any commit count is the one sampled when the entry opens; a faulty
 * fork that writes one still mismatches, and a program whose
 * fault-free run writes one is refused when the entry completes.
 *
 * The ledger rides the master's retirement stream (CommitObserver):
 * opening an entry registers one watch per thread at the trial's
 * commit target; when the master crosses a watch the ledger samples
 * that thread's ArchState, its segment's incremental content digest
 * (mem::Memory::segmentDigest) and its trap status into the entry.
 * Once every thread has crossed (or halted — a golden fork would
 * freeze halted at the same count), the entry is complete and a
 * worker can classify bare/protected forks against it with O(threads
 * + segments) compares — no golden execution, no memory sweeps.
 * tests/test_golden_ledger.cc holds the golden-fork oracle: every
 * entry must agree with a no-fault fork of its trial's snapshot.
 *
 * Thread ownership: the caller owns every entry and keeps it in place
 * while it is open; the ledger keeps only a pointer to each entry with
 * a thread still short of its target. One thread (the campaign's
 * producer) calls every member except the static matches(), and it
 * opens and finalizes entries. Fork executors read only *complete*
 * entries while the producer keeps opening and finalizing others.
 * That needs no lock: the ledger never touches a complete entry
 * again, and the producer reopens one only after its trial's result
 * is merged.
 */

#ifndef FH_FAULT_GOLDEN_LEDGER_HH
#define FH_FAULT_GOLDEN_LEDGER_HH

#include <deque>
#include <vector>

#include "isa/functional.hh"
#include "pipeline/core.hh"
#include "sim/types.hh"

namespace fh::fault
{

/** See file comment. */
class GoldenLedger final : public pipeline::CommitObserver
{
  public:
    /**
     * What a frozen golden fork of one trial would have looked like:
     * per-thread architectural state at the trial's commit targets,
     * per-segment memory digests (each sampled at its owner thread's
     * crossing), and whether any thread trapped at or before its
     * target.
     */
    struct Entry
    {
        std::vector<u64> targets; ///< per SMT thread
        /** Per thread, at crossing: isa::archStateDigest of the
         *  thread's ArchState, sampled from the master's O(1)
         *  incremental digest (Core::archDigest — trustworthy there
         *  because the master is fault-free). Fork-side compares
         *  recompute from the fork's materialized archState(). */
        std::vector<u64> archDigests;
        /** Per segment: an owned one at its thread's crossing, an
         *  unowned one at open(). */
        std::vector<u64> digests;
        bool trapped = false;
        /** True iff every thread finalized at a genuine commit-target
         *  crossing (not a halt, pre-halted open, or force-finalize).
         *  Exactly then a no-fault fork of the snapshot reaches its
         *  targets and samples this entry's state — the precondition
         *  for classifying provably-masked trials without forking. */
        bool crossed = true;
        unsigned remaining = 0; ///< threads not yet crossed

        /** Every thread crossed its target: the entry is readable. */
        bool complete() const { return remaining == 0; }
    };

    /** The ledger observes exactly this master (attach separately via
     *  master.setCommitObserver(&ledger)). */
    explicit GoldenLedger(pipeline::Core &master);

    /**
     * Swap the observed master. Used by CampaignSession's mid-campaign
     * drain: a non-final range closes its last windows by ticking a
     * *copy* of the master (so the injection-point schedule of later
     * ranges is untouched), and during those ticks the ledger must
     * sample the copy. The copy is machine-identical to the master, so
     * an entry finalized at commit count N on either holds the same
     * state — the master-as-golden argument is unchanged. Retarget
     * back to the real master before it ticks again.
     */
    void retarget(pipeline::Core &master) { master_ = &master; }

    /**
     * The master-as-golden argument needs each SMT thread to own a
     * memory segment: segment tid based at thread tid's r1 data base.
     * Further segments are allowed (see the file comment). Every
     * built-in workload is laid out this way; runCampaign refuses a
     * program that is not.
     */
    static bool supports(const pipeline::Core &master,
                         const isa::Program &prog);

    /**
     * Open e for a trial snapshotted at the master's current state, at
     * the per-thread commit targets already in e.targets
     * (nondecreasing across successive opens, since targets are
     * committed + window). Threads already halted or at their target
     * finalize here; the ledger finalizes the others as the master
     * crosses, so e must stay in place until e.complete().
     */
    void open(Entry &e);

    /**
     * Safety valve for a master that stops committing before the last
     * windows close (cannot happen with the built-in workloads, which
     * halt rather than hang): finalize every pending watch from the
     * master's current state, mirroring how a hung golden fork would
     * have been compared at its cycle bound.
     */
    void forceFinalizeAll();

    /**
     * Does a frozen fork match this golden checkpoint? Per-thread
     * arch-digest equality plus per-segment memory-digest equality —
     * the digest-based replacement for a full-memory sweep and a
     * full-ArchState compare. Digest equality is taken as content
     * equality (a collision needs ~2^64 trials; see DESIGN.md).
     */
    static bool matches(const Entry &e, const pipeline::Core &fork);

    // CommitObserver — fired by the master's commit stage.
    void onCommit(const pipeline::Core &core, unsigned tid) override;
    void onThreadHalted(const pipeline::Core &core,
                        unsigned tid) override;

  private:
    struct Watch
    {
        Entry *entry;
        u64 target;
    };

    /** Sample thread tid's state from the master into an entry. */
    void finalizeThread(Entry &e, unsigned tid);

    pipeline::Core *master_;
    /** Per-thread pending watches, FIFO by target (targets are
     *  nondecreasing across opens, so crossing pops from the front). */
    std::vector<std::deque<Watch>> watches_;
};

} // namespace fh::fault

#endif // FH_FAULT_GOLDEN_LEDGER_HH
