#include "fault/injector.hh"

#include <bit>

namespace fh::fault
{

std::string
to_string(Target target)
{
    switch (target) {
      case Target::RegFile: return "regfile";
      case Target::Lsq: return "lsq";
      case Target::Rename: return "rename";
      case Target::None: return "idle";
    }
    return "?";
}

void
drawRenameSite(const pipeline::Core &core, Rng &rng, InjectionPlan &plan)
{
    plan.target = Target::Rename;
    plan.tid = static_cast<unsigned>(rng.below(core.numThreads()));
    plan.arch = 1 + static_cast<unsigned>(rng.below(isa::numArchRegs - 1));
    const unsigned tag_bits = static_cast<unsigned>(
        std::bit_width(core.numPhysRegs() - 1u));
    plan.bit = static_cast<unsigned>(rng.below(tag_bits));
}

void
drawLsqSite(const pipeline::Core &core, Rng &rng, unsigned bit_lo,
            unsigned bits, InjectionPlan &plan)
{
    plan.target = Target::Lsq;
    plan.lsqNth = static_cast<unsigned>(rng.below(core.params().lsqSize));
    plan.lsqAddrField = rng.chance(0.5);
    plan.bit = bit_lo + static_cast<unsigned>(rng.below(bits));
}

void
drawInflightRegSite(const pipeline::Core &core, Rng &rng,
                    InjectionPlan &plan)
{
    // Datapath-fault emulation: corrupt a just-produced value. If
    // nothing completed near this cycle the strike hits idle logic and
    // is trivially masked.
    plan.target = Target::RegFile;
    plan.inflightDraw = true;
    auto inflight = core.inflightDestPregs();
    if (inflight.empty())
        plan.target = Target::None;
    else
        plan.preg = inflight[rng.below(inflight.size())];
}

void
drawAnyRegSite(const pipeline::Core &core, Rng &rng, InjectionPlan &plan)
{
    plan.target = Target::RegFile;
    plan.preg = static_cast<unsigned>(rng.below(core.numPhysRegs()));
}

InjectionPlan
drawPlan(const pipeline::Core &core, const InjectionMix &mix, Rng &rng)
{
    InjectionPlan plan;
    const double r = rng.uniform();
    if (r < mix.renameFrac) {
        drawRenameSite(core, rng, plan);
    } else if (r < mix.renameFrac + mix.lsqFrac) {
        drawLsqSite(core, rng, 0, wordBits, plan);
    } else {
        plan.bit = static_cast<unsigned>(rng.below(wordBits));
        if (rng.chance(mix.inflightFrac))
            drawInflightRegSite(core, rng, plan);
        else
            drawAnyRegSite(core, rng, plan);
    }
    attributePlan(core, plan);
    return plan;
}

void
attributePlan(const pipeline::Core &core, InjectionPlan &plan)
{
    switch (plan.target) {
      case Target::RegFile:
        plan.faultPc = core.pcOfDestPreg(plan.preg);
        break;
      case Target::Lsq: {
        const unsigned occupied = core.lsqOccupied();
        plan.faultPc =
            occupied ? core.pcOfLsqNth(plan.lsqNth % occupied) : 0;
        break;
      }
      case Target::Rename:
        plan.faultPc = core.nextCommitPcOf(plan.tid);
        break;
      case Target::None:
        plan.faultPc = 0;
        break;
    }
}

bool
apply(pipeline::Core &core, const InjectionPlan &plan)
{
    switch (plan.target) {
      case Target::RegFile:
        core.injectRegfileBit(plan.preg, plan.bit);
        return true;
      case Target::Lsq: {
        unsigned occupied = core.lsqOccupied();
        if (occupied == 0)
            return false;
        return core.injectLsqBit(plan.lsqNth % occupied,
                                 plan.lsqAddrField, plan.bit);
      }
      case Target::Rename:
        core.injectRenameBit(plan.tid, plan.arch, plan.bit);
        return true;
      case Target::None:
        return false;
    }
    return false;
}

} // namespace fh::fault
