/**
 * @file
 * The injection/tandem/campaign framework: plan distributions, fork
 * determinism, precise windows, classification accounting.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "fault/tandem.hh"
#include "workload/workload.hh"

using namespace fh;
using namespace fh::fault;

namespace
{

isa::Program
prog(const std::string &name = "400.perl")
{
    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    return workload::build(name, spec);
}

pipeline::CoreParams
fhParams()
{
    pipeline::CoreParams p;
    p.detector = filters::DetectorParams::faultHound();
    return p;
}

} // namespace

TEST(Injector, MixProportionsRoughlyHold)
{
    auto program = prog();
    pipeline::Core core(fhParams(), &program);
    for (int i = 0; i < 5000; ++i)
        core.tick();
    Rng rng(1);
    InjectionMix mix;
    int rename = 0;
    int lsq = 0;
    int reg = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        auto plan = drawPlan(core, mix, rng);
        switch (plan.target) {
          case Target::Rename: ++rename; break;
          case Target::Lsq: ++lsq; break;
          default: ++reg; break; // RegFile or idle None
        }
    }
    EXPECT_NEAR(rename / double(n), mix.renameFrac, 0.03);
    EXPECT_NEAR(lsq / double(n), mix.lsqFrac, 0.02);
    EXPECT_NEAR(reg / double(n),
                1.0 - mix.renameFrac - mix.lsqFrac, 0.03);
}

TEST(Injector, PlansStayInRange)
{
    auto program = prog();
    pipeline::Core core(fhParams(), &program);
    for (int i = 0; i < 3000; ++i)
        core.tick();
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        auto plan = drawPlan(core, {}, rng);
        EXPECT_LT(plan.bit, wordBits);
        if (plan.target == Target::RegFile) {
            EXPECT_LT(plan.preg, core.numPhysRegs());
        }
        if (plan.target == Target::Rename) {
            EXPECT_LT(plan.tid, core.numThreads());
            EXPECT_GE(plan.arch, 1u);
            EXPECT_LT(plan.arch, isa::numArchRegs);
        }
    }
}

TEST(Injector, ApplyFlipsExactlyOneRegfileBit)
{
    auto program = prog();
    pipeline::Core a(fhParams(), &program);
    pipeline::Core b = a;
    InjectionPlan plan;
    plan.target = Target::RegFile;
    plan.preg = 10;
    plan.bit = 5;
    EXPECT_TRUE(apply(b, plan));
    // Flipping twice restores the original state (pure XOR).
    apply(b, plan);
    for (unsigned t = 0; t < a.numThreads(); ++t)
        EXPECT_TRUE(a.archState(t) == b.archState(t));
}

TEST(Injector, IdleTargetAppliesNothing)
{
    auto program = prog();
    pipeline::Core core(fhParams(), &program);
    InjectionPlan plan;
    plan.target = Target::None;
    EXPECT_FALSE(apply(core, plan));
}

TEST(Injector, LsqInjectionRequiresOccupancy)
{
    auto program = prog();
    pipeline::Core core(fhParams(), &program);
    // At cycle 0 the LSQ is empty.
    InjectionPlan plan;
    plan.target = Target::Lsq;
    plan.lsqNth = 0;
    plan.bit = 1;
    EXPECT_FALSE(apply(core, plan));
    for (int i = 0; i < 3000; ++i)
        core.tick();
    if (core.lsqOccupied() > 0) {
        EXPECT_TRUE(apply(core, plan));
    }
}

TEST(Tandem, ForkWithoutFaultMatchesGolden)
{
    auto program = prog();
    pipeline::Core master(fhParams(), &program);
    for (int i = 0; i < 20000; ++i)
        master.tick();
    auto targets = windowTargets(master, 1000);
    auto a = runFork(master, nullptr, false, targets, 500000);
    auto b = runFork(master, nullptr, false, targets, 500000);
    ASSERT_TRUE(a.reachedTargets);
    EXPECT_TRUE(archEquals(a.core, b.core)) << "forks must be "
                                               "deterministic";
    for (unsigned t = 0; t < 2; ++t)
        EXPECT_EQ(a.core.committed(t), targets[t]);
}

TEST(Tandem, WindowTargetsAreRelative)
{
    auto program = prog();
    pipeline::Core master(fhParams(), &program);
    for (int i = 0; i < 10000; ++i)
        master.tick();
    auto targets = windowTargets(master, 123);
    for (unsigned t = 0; t < 2; ++t)
        EXPECT_EQ(targets[t], master.committed(t) + 123);
}

TEST(Campaign, AccountingAddsUp)
{
    auto program = prog("ocean");
    CampaignConfig cfg;
    cfg.injections = 40;
    cfg.window = 400;
    auto r = runCampaign(fhParams(), &program, cfg);
    EXPECT_EQ(r.injected, 40u);
    EXPECT_EQ(r.masked + r.noisy + r.sdc, r.injected);
    EXPECT_EQ(r.recovered + r.detected + r.uncovered, r.sdc);
    EXPECT_EQ(r.bins.covered + r.bins.secondLevelMasked +
                  r.bins.completedReg + r.bins.renameUncovered +
                  r.bins.noTrigger + r.bins.other,
              r.sdc);
    EXPECT_GT(r.maskedFrac(), 0.5) << "most faults mask";
}

TEST(Campaign, DeterministicForSameSeed)
{
    auto program = prog("ocean");
    CampaignConfig cfg;
    cfg.injections = 25;
    cfg.window = 300;
    cfg.seed = 77;
    auto a = runCampaign(fhParams(), &program, cfg);
    auto b = runCampaign(fhParams(), &program, cfg);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.noisy, b.noisy);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.covered(), b.covered());
}

TEST(Campaign, BaselineSchemeCoversNothing)
{
    auto program = prog("ocean");
    CampaignConfig cfg;
    cfg.injections = 30;
    cfg.window = 300;
    pipeline::CoreParams p;
    p.detector = filters::DetectorParams::none();
    auto r = runCampaign(p, &program, cfg);
    EXPECT_EQ(r.covered(), 0u);
    EXPECT_EQ(r.uncovered, r.sdc);
}
