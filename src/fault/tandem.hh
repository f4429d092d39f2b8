/**
 * @file
 * Tandem execution (Section 4): fork the machine at an injection
 * point, run a golden and a fault-injected copy for a run window, and
 * compare architectural state. Any difference in raised exceptions
 * marks a noisy fault; identical state marks a masked fault; the rest
 * are silent data corruptions (SDC).
 */

#ifndef FH_FAULT_TANDEM_HH
#define FH_FAULT_TANDEM_HH

#include <vector>

#include "fault/injector.hh"
#include "pipeline/core.hh"
#include "sim/types.hh"

namespace fh::fault
{

/** Result of one forked run-window execution. */
struct ForkOutcome
{
    pipeline::Core core;
    bool reachedTargets = false; ///< false = hung within maxCycles
    bool trapped = false;
    /** Early termination (arm_regfile_watch flavors): the injected
     *  register value was overwritten without ever being read, so this
     *  fork is provably equivalent to a fault-free fork of the same
     *  snapshot — classification is decided without running the
     *  window out (DESIGN.md "Arch-digest early exit"). */
    bool earlyMasked = false;
    Cycle exitCycle = 0; ///< core cycle when the fork run ended
};

/** Per-thread commit targets for a run window starting at base, into
 *  a caller-owned vector (capacity reuse). */
void windowTargetsInto(std::vector<u64> &out, const pipeline::Core &base,
                       u64 window);

/**
 * Fork base into a caller-owned scratch outcome, optionally inject
 * plan, optionally enable the detector, and run until the per-thread
 * targets, bounded by max_cycles — the one bound on a fork, so its
 * outcome is a pure function of its inputs. When arm_regfile_watch is
 * set and the plan is a register-file flip, a fault watch is armed on
 * the flipped register so the run ends (out.earlyMasked) as soon as
 * the fault is provably erased — only sound for classification forks
 * whose golden reference reached its targets without trapping (see
 * DESIGN.md).
 *
 * The fork state is restored by copy-assignment. Between
 * same-parameter cores that is a flat-buffer memcpy reusing the
 * scratch's existing storage, so a thread that keeps one scratch per
 * fork kind allocates nothing in steady state.
 */
void runForkInto(ForkOutcome &out, const pipeline::Core &base,
                 const InjectionPlan *plan, bool detector_enabled,
                 const std::vector<u64> &targets, Cycle max_cycles,
                 bool arm_regfile_watch = false);

/**
 * Consuming flavor: swaps base's buffers into the scratch (and the
 * scratch's previous buffers back into base), so both stay warm and
 * no copy of the machine is made at all. base is left valid but
 * unspecified; the caller overwrites it before any reuse.
 */
void runForkInto(ForkOutcome &out, pipeline::Core &&base,
                 const InjectionPlan *plan, bool detector_enabled,
                 const std::vector<u64> &targets, Cycle max_cycles,
                 bool arm_regfile_watch = false);

} // namespace fh::fault

#endif // FH_FAULT_TANDEM_HH
