/**
 * @file
 * Fresh tandem forks for tests: a fork into a newly copied machine,
 * the reference the campaign's reused fork scratch (fault::runForkInto)
 * must equal, and the commit targets of a run window.
 */

#ifndef FH_TESTS_RUN_FORK_HH
#define FH_TESTS_RUN_FORK_HH

#include <vector>

#include "fault/tandem.hh"

namespace fh::fault
{

/** Per-thread commit targets for a run window starting at base. */
inline std::vector<u64>
windowTargets(const pipeline::Core &base, u64 window)
{
    std::vector<u64> targets;
    windowTargetsInto(targets, base, window);
    return targets;
}

/** As runForkInto, but on a fresh copy of base: the swap leaves a
 *  newly copy-constructed machine in the outcome, so no state of an
 *  earlier fork can reach this one. */
inline ForkOutcome
runFork(const pipeline::Core &base, const InjectionPlan *plan,
        bool detector_enabled, const std::vector<u64> &targets,
        Cycle max_cycles, bool arm_regfile_watch = false)
{
    ForkOutcome out{base};
    runForkInto(out, pipeline::Core(base), plan, detector_enabled, targets,
                max_cycles, arm_regfile_watch);
    return out;
}

} // namespace fh::fault

#endif // FH_TESTS_RUN_FORK_HH
