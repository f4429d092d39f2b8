#include "fault/tandem.hh"

#include <algorithm>
#include <utility>

#include "sim/error.hh"

namespace fh::fault
{

namespace
{

/**
 * Cycles per watchdog check: small enough that an expired deadline is
 * noticed within tens of microseconds, large enough that the clock
 * read is noise. Slicing runUntilCommitted is behavior-preserving —
 * its done/frozen checks are pure functions of machine state, so N
 * bounded calls tick exactly the same sequence as one call.
 */
constexpr Cycle kWatchdogSlice = 4096;

} // namespace

std::vector<u64>
windowTargets(const pipeline::Core &base, u64 window)
{
    std::vector<u64> targets;
    windowTargetsInto(targets, base, window);
    return targets;
}

void
windowTargetsInto(std::vector<u64> &out, const pipeline::Core &base,
                  u64 window)
{
    out.resize(base.numThreads());
    for (unsigned tid = 0; tid < base.numThreads(); ++tid)
        out[tid] = base.committed(tid) + window;
}

ForkOutcome
runFork(const pipeline::Core &base, const InjectionPlan *plan,
        bool detector_enabled, const std::vector<u64> &targets,
        Cycle max_cycles, const ForkDeadline *deadline,
        bool arm_regfile_watch)
{
    return runFork(pipeline::Core(base), plan, detector_enabled, targets,
                   max_cycles, deadline, arm_regfile_watch);
}

namespace
{

/** Shared tail of every fork flavor: out.core already holds the forked
 *  machine state; configure it, inject, and run the window. */
void
runPrepared(ForkOutcome &out, const InjectionPlan *plan,
            bool detector_enabled, const std::vector<u64> &targets,
            Cycle max_cycles, const ForkDeadline *deadline,
            bool arm_regfile_watch)
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
    if (!deadline) {
        out.reachedTargets =
            out.core.runUntilCommitted(targets, max_cycles);
    } else {
        // Watchdogged: run in bounded slices, checking the wall clock
        // between them. runUntilCommitted returning true (targets
        // crossed, no further ticks) ends the loop; a false return
        // with budget left just means the slice ran out — unless the
        // machine is frozen short of its targets, in which case more
        // ticking cannot help and we bail like the unsliced call.
        Cycle spent = 0;
        out.reachedTargets = out.core.runUntilCommitted(targets, 0);
        while (!out.reachedTargets && spent < max_cycles) {
            if (std::chrono::steady_clock::now() >= deadline->at)
                throw SimError(__FILE__, __LINE__,
                               "trial wall-clock budget exceeded "
                               "(trialTimeoutMs watchdog)");
            const Cycle slice =
                std::min(kWatchdogSlice, max_cycles - spent);
            const Cycle before = out.core.cycle();
            out.reachedTargets =
                out.core.runUntilCommitted(targets, slice);
            const Cycle ticked = out.core.cycle() - before;
            spent += slice;
            if (!out.reachedTargets && ticked < slice)
                break; // frozen short of a target: hung, bail now
            if (watching && out.core.regfileWatchErased())
                break; // fault erased unread: outcome is decided
        }
    }
    if (watching) {
        out.earlyMasked = out.core.regfileWatchErased();
        out.core.disarmRegfileWatch();
    }
    out.exitCycle = out.core.cycle();
    out.trapped = out.core.anyTrap();
}

} // namespace

ForkOutcome
runFork(pipeline::Core &&base, const InjectionPlan *plan,
        bool detector_enabled, const std::vector<u64> &targets,
        Cycle max_cycles, const ForkDeadline *deadline,
        bool arm_regfile_watch)
{
    ForkOutcome out{std::move(base), false, false};
    runPrepared(out, plan, detector_enabled, targets, max_cycles,
                deadline, arm_regfile_watch);
    return out;
}

void
runForkInto(ForkOutcome &out, const pipeline::Core &base,
            const InjectionPlan *plan, bool detector_enabled,
            const std::vector<u64> &targets, Cycle max_cycles,
            const ForkDeadline *deadline, bool arm_regfile_watch)
{
    out.core = base;
    runPrepared(out, plan, detector_enabled, targets, max_cycles,
                deadline, arm_regfile_watch);
}

void
runForkInto(ForkOutcome &out, pipeline::Core &&base,
            const InjectionPlan *plan, bool detector_enabled,
            const std::vector<u64> &targets, Cycle max_cycles,
            const ForkDeadline *deadline, bool arm_regfile_watch)
{
    std::swap(out.core, base);
    runPrepared(out, plan, detector_enabled, targets, max_cycles,
                deadline, arm_regfile_watch);
}

} // namespace fh::fault
