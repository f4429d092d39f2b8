#include "fault/tandem.hh"

#include <utility>

namespace fh::fault
{

void
windowTargetsInto(std::vector<u64> &out, const pipeline::Core &base,
                  u64 window)
{
    out.resize(base.numThreads());
    for (unsigned tid = 0; tid < base.numThreads(); ++tid)
        out[tid] = base.committed(tid) + window;
}

namespace
{

/** Shared tail of every fork flavor: out.core already holds the forked
 *  machine state; configure it, inject, and run the window. */
void
runPrepared(ForkOutcome &out, const InjectionPlan *plan,
            bool detector_enabled, const std::vector<u64> &targets,
            Cycle max_cycles, bool arm_regfile_watch)
{
    out.reachedTargets = false;
    out.trapped = false;
    out.earlyMasked = false;
    // The fork is a copy of a (possibly observed) campaign master;
    // the ledger must only ever see the master itself.
    out.core.setCommitObserver(nullptr);
    out.core.setDetectorEnabled(detector_enabled);
    // Classification forks (detector off) stop dead front-end work on
    // threads frozen at their commit target; the protected fork keeps
    // the full machine ticking so its detector statistics — which the
    // Figure 11 binning reads — are untouched.
    out.core.setQuiesceFrozen(!detector_enabled);
    // Freeze each thread at exactly its commit target so both tandem
    // copies sample architectural state at the same per-thread point.
    for (unsigned tid = 0; tid < out.core.numThreads(); ++tid)
        out.core.threadOptions(tid).stopAfterInsts = targets[tid];
    if (plan)
        apply(out.core, *plan);
    const bool watching = arm_regfile_watch && plan &&
                          plan->target == Target::RegFile;
    if (watching)
        out.core.armRegfileWatch(plan->preg);
    // The one bound: runUntilCommitted also ends the run when every
    // thread is frozen short of a target or the watched fault is
    // erased unread.
    out.reachedTargets = out.core.runUntilCommitted(targets, max_cycles);
    if (watching) {
        out.earlyMasked = out.core.regfileWatchErased();
        out.core.disarmRegfileWatch();
    }
    out.exitCycle = out.core.cycle();
    out.trapped = out.core.anyTrap();
}

} // namespace

void
runForkInto(ForkOutcome &out, const pipeline::Core &base,
            const InjectionPlan *plan, bool detector_enabled,
            const std::vector<u64> &targets, Cycle max_cycles,
            bool arm_regfile_watch)
{
    out.core = base;
    runPrepared(out, plan, detector_enabled, targets, max_cycles,
                arm_regfile_watch);
}

void
runForkInto(ForkOutcome &out, pipeline::Core &&base,
            const InjectionPlan *plan, bool detector_enabled,
            const std::vector<u64> &targets, Cycle max_cycles,
            bool arm_regfile_watch)
{
    std::swap(out.core, base);
    runPrepared(out, plan, detector_enabled, targets, max_cycles,
                arm_regfile_watch);
}

} // namespace fh::fault
