#include "fault/sampling.hh"

#include <cmath>

#include "fault/campaign.hh"
#include "sim/logging.hh"

namespace fh::fault
{

WilsonInterval
wilson(u64 successes, u64 n, double z)
{
    if (n == 0)
        return {0.0, 1.0};
    const double nn = static_cast<double>(n);
    const double p = static_cast<double>(successes) / nn;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    WilsonInterval w;
    w.center = (p + z2 / (2.0 * nn)) / denom;
    w.halfWidth =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
    return w;
}

StratumSpace::StratumSpace(const InjectionMix &mix)
{
    const double regFrac = 1.0 - mix.renameFrac - mix.lsqFrac;
    weights_[0] = mix.renameFrac;
    for (unsigned g = 0; g < kBitGroups; ++g) {
        weights_[1 + g] = mix.lsqFrac / kBitGroups;
        weights_[1 + kBitGroups + g] =
            regFrac * mix.inflightFrac / kBitGroups;
        weights_[1 + 2 * kBitGroups + g] =
            regFrac * (1.0 - mix.inflightFrac) / kBitGroups;
    }
}

u32
StratumSpace::stratumOf(const InjectionPlan &plan)
{
    const u32 group = plan.bit / kGroupBits;
    switch (plan.target) {
      case Target::Rename:
        return 0;
      case Target::Lsq:
        return 1 + group;
      case Target::RegFile:
      case Target::None:
        // None only arises from an empty in-flight pool, so both label
        // by the draw kind the mix selected.
        return 1 + (plan.inflightDraw ? 1 : 2) * kBitGroups + group;
    }
    return 0;
}

InjectionPlan
StratumSpace::draw(const pipeline::Core &core, unsigned s,
                   Rng &rng) const
{
    fh_assert(s < kCount, "stratum out of range");
    InjectionPlan plan;
    if (s == 0) {
        drawRenameSite(core, rng, plan);
    } else {
        // Strata past rename run in kBitGroups-long blocks: LSQ, then
        // in-flight registers, then any register.
        const unsigned block = (s - 1) / kBitGroups;
        const unsigned bit_lo = (s - 1) % kBitGroups * kGroupBits;
        if (block == 0) {
            drawLsqSite(core, rng, bit_lo, kGroupBits, plan);
        } else {
            plan.bit = bit_lo + static_cast<unsigned>(rng.below(kGroupBits));
            if (block == 1)
                drawInflightRegSite(core, rng, plan);
            else
                drawAnyRegSite(core, rng, plan);
        }
    }
    attributePlan(core, plan);
    return plan;
}

void
VulnProfile::addTrial(const CampaignResult &delta, const TrialMeta &meta)
{
    fh_assert(meta.stratum < StratumSpace::kCount,
              "trial meta stratum out of range");
    StratumCounts &s = strata[meta.stratum];
    s.trials += delta.injected;
    s.masked += delta.masked;
    s.noisy += delta.noisy;
    s.sdc += delta.sdc;
    s.covered += delta.recovered + delta.detected;
    s.skippedProvablyMasked += delta.skippedProvablyMasked;
    s.earlyTerminated += delta.earlyTerminated;
    if (delta.sdc != 0) {
        if (meta.structure < kStructures)
            sdcBits[meta.structure][meta.bit % wordBits] += delta.sdc;
        sdcPcs[meta.pc] += delta.sdc;
        sdcCycleBuckets[meta.cycleBucket % kCycleBuckets] += delta.sdc;
    }
}

double
pooledSdcHalfWidth(const VulnProfile &profile, const StratumSpace &space,
                   double z)
{
    double sum = 0.0;
    for (unsigned s = 0; s < StratumSpace::kCount; ++s) {
        const StratumCounts &c = profile.strata[s];
        const double hw = wilson(c.sdc, c.trials, z).halfWidth;
        const double whw = space.weight(s) * hw;
        sum += whw * whw;
    }
    return std::sqrt(sum);
}

} // namespace fh::fault
