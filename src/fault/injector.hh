/**
 * @file
 * Single-bit fault injection (Section 4). Faults land in the physical
 * register file (72%, emulating back-end control/datapath faults), the
 * LSQ (8%), and the rename table (20%), with the proportions derived
 * from McPAT area estimates in the paper.
 */

#ifndef FH_FAULT_INJECTOR_HH
#define FH_FAULT_INJECTOR_HH

#include "pipeline/core.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fh::fault
{

/** Which structure a fault lands in. */
enum class Target : u8
{
    RegFile,
    Lsq,
    Rename,
    /** Datapath strike with no recently-produced value to corrupt:
     *  trivially masked (idle logic). */
    None
};

std::string to_string(Target target);

/** A fully-specified single-bit flip. */
struct InjectionPlan
{
    Target target = Target::RegFile;
    // RegFile
    unsigned preg = 0;
    // Lsq
    unsigned lsqNth = 0;
    bool lsqAddrField = true;
    // Rename
    unsigned tid = 0;
    unsigned arch = 1;
    // Common
    unsigned bit = 0;
    /** The regfile site was drawn from the in-flight destination pool
     *  (datapath-fault emulation) rather than uniformly — also set on
     *  Target::None, which only arises from an empty in-flight pool.
     *  Stratum labeling; set without consuming RNG. */
    bool inflightDraw = false;
    /** PC of the instruction whose value/address/tag the fault lands
     *  on (0 = no in-flight owner). Root-cause attribution for the
     *  vulnerability profile; set without consuming RNG. */
    u64 faultPc = 0;
};

/** Proportions of faults per structure. */
struct InjectionMix
{
    double renameFrac = 0.20;
    double lsqFrac = 0.08;
    // The remainder goes to the register file, which per Section 4
    // also emulates back-end datapath and control faults: that share
    // of the register-file faults is drawn from the destination
    // registers of instructions currently in flight.
    double inflightFrac = 0.85;
};

/**
 * The four site draws drawPlan and StratumSpace::draw share, each
 * against the core's current state. drawRenameSite draws a rename
 * entry and a bit of its tag; drawLsqSite an LSQ entry, its field and
 * a bit in [bit_lo, bit_lo + bits). A register-file plan's bit is
 * drawn first, by the caller: drawInflightRegSite then picks the
 * destination of an in-flight instruction (Target::None when none is
 * in flight), drawAnyRegSite any physical register.
 */
void drawRenameSite(const pipeline::Core &core, Rng &rng,
                    InjectionPlan &plan);
void drawLsqSite(const pipeline::Core &core, Rng &rng, unsigned bit_lo,
                 unsigned bits, InjectionPlan &plan);
void drawInflightRegSite(const pipeline::Core &core, Rng &rng,
                         InjectionPlan &plan);
void drawAnyRegSite(const pipeline::Core &core, Rng &rng,
                    InjectionPlan &plan);

/** Draw a random plan against the current core state. */
InjectionPlan drawPlan(const pipeline::Core &core, const InjectionMix &mix,
                       Rng &rng);

/** Fill plan.faultPc from the core's current state (no RNG use). */
void attributePlan(const pipeline::Core &core, InjectionPlan &plan);

/**
 * Apply the flip. Returns false when the plan targets an empty
 * structure (e.g. no occupied LSQ entry), in which case the fault is
 * trivially masked.
 */
bool apply(pipeline::Core &core, const InjectionPlan &plan);

} // namespace fh::fault

#endif // FH_FAULT_INJECTOR_HH
