/**
 * @file
 * Core pipeline behaviors beyond architectural equivalence: resource
 * occupancy invariants, branch prediction learning, precise per-thread
 * freezing, SMT fairness, and the replay/rollback plumbing statistics.
 */

#include <gtest/gtest.h>

#include "pipeline/branch_predictor.hh"
#include "pipeline/core.hh"
#include "pipeline/regfile.hh"
#include "pipeline/rename.hh"
#include "pipeline/rob.hh"
#include "workload/workload.hh"

using namespace fh;
using namespace fh::pipeline;

namespace
{

isa::Program
benchProgram(const std::string &name, u64 iterations = 1ull << 30)
{
    workload::WorkloadSpec spec;
    spec.iterations = iterations;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    return workload::build(name, spec);
}

} // namespace

TEST(PhysRegFile, AllocateReleaseCycle)
{
    PhysRegFile rf(8);
    EXPECT_EQ(rf.freeCount(), 8u);
    unsigned p = 0;
    ASSERT_TRUE(rf.allocate(p));
    EXPECT_FALSE(rf.isFree(p));
    EXPECT_FALSE(rf.ready(p));
    rf.write(p, 42);
    EXPECT_TRUE(rf.ready(p));
    EXPECT_EQ(rf.read(p), 42u);
    rf.release(p);
    EXPECT_TRUE(rf.isFree(p));
    EXPECT_EQ(rf.freeCount(), 8u);
}

TEST(PhysRegFile, ExhaustionFailsGracefully)
{
    PhysRegFile rf(2);
    unsigned a = 0;
    unsigned b = 0;
    unsigned c = 0;
    EXPECT_TRUE(rf.allocate(a));
    EXPECT_TRUE(rf.allocate(b));
    EXPECT_FALSE(rf.allocate(c));
}

TEST(PhysRegFile, DoubleReleaseIsBenign)
{
    PhysRegFile rf(4);
    unsigned p = 0;
    rf.allocate(p);
    rf.release(p);
    rf.release(p); // corrupted-rename-tag scenario
    EXPECT_EQ(rf.freeCount(), 4u);
    // The free list must not contain duplicates.
    unsigned a, b, c, d, e;
    EXPECT_TRUE(rf.allocate(a));
    EXPECT_TRUE(rf.allocate(b));
    EXPECT_TRUE(rf.allocate(c));
    EXPECT_TRUE(rf.allocate(d));
    EXPECT_FALSE(rf.allocate(e));
}

TEST(PhysRegFile, ResetFreeListFromLiveness)
{
    PhysRegFile rf(4);
    unsigned a = 0;
    unsigned b = 0;
    rf.allocate(a);
    rf.allocate(b);
    std::vector<bool> live(4, false);
    live[a] = true; // b was wrongly freed conceptually; only a lives
    rf.resetFreeList(live);
    EXPECT_FALSE(rf.isFree(a));
    EXPECT_TRUE(rf.isFree(b));
    EXPECT_EQ(rf.freeCount(), 3u);
}

TEST(RenameMap, RenameCommitRollback)
{
    RenameMap map;
    std::array<unsigned, isa::numArchRegs> init{};
    for (unsigned i = 0; i < isa::numArchRegs; ++i)
        init[i] = i;
    map.init(init);
    unsigned old = map.rename(5, 100);
    EXPECT_EQ(old, 5u);
    EXPECT_EQ(map.spec(5), 100u);
    EXPECT_EQ(map.retire(5), 5u);
    map.commit(5, 100);
    EXPECT_EQ(map.retire(5), 100u);
    map.rename(5, 101);
    map.rollbackToRetire();
    EXPECT_EQ(map.spec(5), 100u);
}

TEST(RenameMap, RestoreUndoesInReverse)
{
    RenameMap map;
    std::array<unsigned, isa::numArchRegs> init{};
    map.init(init);
    unsigned old1 = map.rename(3, 50);
    unsigned old2 = map.rename(3, 51);
    map.restore(3, old2);
    map.restore(3, old1);
    EXPECT_EQ(map.spec(3), 0u);
}

TEST(RenameMap, FlipSpecBitWrapsIntoRange)
{
    RenameMap map;
    std::array<unsigned, isa::numArchRegs> init{};
    init[4] = 300;
    map.init(init);
    map.flipSpecBit(4, 8, 400); // 300 ^ 256 = 44
    EXPECT_LT(map.spec(4), 400u);
    EXPECT_NE(map.spec(4), 300u);
}

TEST(Rob, CircularAllocateCommitSquash)
{
    Rob rob(4);
    EXPECT_TRUE(rob.empty());
    unsigned s0 = rob.allocate();
    unsigned s1 = rob.allocate();
    rob.hot(s0).seq = 1;
    rob.hot(s1).seq = 2;
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob.hot(rob.headSlot()).seq, 1u);
    EXPECT_EQ(rob.hot(rob.tailSlot()).seq, 2u);
    rob.popTail();
    EXPECT_EQ(rob.size(), 1u);
    rob.popHead();
    EXPECT_TRUE(rob.empty());
    // Wrap around the circular storage.
    for (int round = 0; round < 10; ++round) {
        unsigned s = rob.allocate();
        rob.hot(s).seq = 100 + round;
        rob.popHead();
    }
    EXPECT_TRUE(rob.empty());
}

TEST(BranchPredictor, LearnsABiasedBranch)
{
    BranchPredictor bp(256);
    for (int i = 0; i < 64; ++i)
        bp.update(0, 10, true);
    EXPECT_TRUE(bp.predict(0, 10));
    double acc = static_cast<double>(bp.correct()) / bp.lookups();
    EXPECT_GT(acc, 0.9);
}

struct OccCase
{
    std::string bench;
    filters::Scheme scheme;
};

class OccupancyInvariants : public testing::TestWithParam<OccCase>
{
};

TEST_P(OccupancyInvariants, TrackedCountsMatchRecounts)
{
    auto prog = benchProgram(GetParam().bench);
    CoreParams params;
    params.detector = GetParam().scheme == filters::Scheme::None
                          ? filters::DetectorParams::none()
                      : GetParam().scheme == filters::Scheme::PbfsBiased
                          ? filters::DetectorParams::pbfsBiased()
                          : filters::DetectorParams::faultHound();
    Core core(params, &prog);
    for (int cyc = 0; cyc < 30000; ++cyc) {
        core.tick();
        if (cyc % 7 == 0) {
            ASSERT_EQ(core.iqOccupancy(), core.computeIqOccupancy())
                << "IQ accounting leak at cycle " << cyc;
            ASSERT_EQ(core.lsqOccupancy(), core.computeLsqOccupancy())
                << "LSQ accounting leak at cycle " << cyc;
            ASSERT_LE(core.lsqOccupancy(), params.lsqSize);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mix, OccupancyInvariants,
    testing::Values(OccCase{"400.perl", filters::Scheme::None},
                    OccCase{"400.perl", filters::Scheme::FaultHound},
                    OccCase{"429.mcf", filters::Scheme::FaultHound},
                    OccCase{"437.leslie3d", filters::Scheme::PbfsBiased},
                    OccCase{"ocean", filters::Scheme::FaultHound}),
    [](const testing::TestParamInfo<OccCase> &pinfo) {
        std::string n = pinfo.param.bench + "_" +
                        filters::to_string(pinfo.param.scheme);
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Core, PerThreadFreezeIsExact)
{
    auto prog = benchProgram("ocean");
    CoreParams params;
    params.detector = filters::DetectorParams::none();
    Core core(params, &prog);
    core.runPerThreadBudget(5000, 10'000'000);
    EXPECT_EQ(core.committed(0), 5000u);
    EXPECT_EQ(core.committed(1), 5000u);
    // Further ticks change nothing architectural.
    auto s0 = core.archState(0);
    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_TRUE(core.archState(0) == s0);
    EXPECT_EQ(core.committed(0), 5000u);
}

TEST(Core, SmtThreadsShareFairly)
{
    auto prog = benchProgram("447.dealII");
    CoreParams params;
    params.detector = filters::DetectorParams::none();
    Core core(params, &prog);
    for (int i = 0; i < 40000; ++i)
        core.tick();
    double a = static_cast<double>(core.committed(0));
    double b = static_cast<double>(core.committed(1));
    EXPECT_GT(a, 0);
    EXPECT_GT(b, 0);
    EXPECT_NEAR(a / (a + b), 0.5, 0.1);
}

TEST(Core, MispredictsHappenAndAreBounded)
{
    auto prog = benchProgram("401.bzip2"); // data-dependent branches
    CoreParams params;
    params.detector = filters::DetectorParams::none();
    Core core(params, &prog);
    core.runPerThreadBudget(20000, 10'000'000);
    const auto &s = core.stats();
    EXPECT_GT(s.mispredicts, 100u);
    EXPECT_LT(s.mispredicts, s.branches);
}

TEST(Core, FaultHoundProducesReplaysNotManyRollbacks)
{
    auto prog = benchProgram("400.perl");
    CoreParams params;
    params.detector = filters::DetectorParams::faultHound();
    Core core(params, &prog);
    core.runPerThreadBudget(30000, 10'000'000);
    const auto &d = core.detector().stats();
    EXPECT_GT(d.replays, 50u) << "false positives should replay";
    EXPECT_LT(d.rollbacks, d.replays / 2)
        << "rollbacks must be the rare case";
    EXPECT_GT(core.stats().replaysExecuted, 0u);
}

TEST(Core, BaselineHasNoDetectorActivity)
{
    auto prog = benchProgram("ocean");
    CoreParams params;
    params.detector = filters::DetectorParams::none();
    Core core(params, &prog);
    core.runPerThreadBudget(10000, 10'000'000);
    EXPECT_EQ(core.detector().stats().checks, 0u);
    EXPECT_EQ(core.stats().replayTriggers, 0u);
    EXPECT_EQ(core.stats().faultRollbacks, 0u);
}

TEST(Core, DisabledDetectorKeepsArchitectureIdentical)
{
    auto prog = benchProgram("400.perl", 2000);
    CoreParams params;
    params.detector = filters::DetectorParams::faultHound();
    Core on(params, &prog);
    Core off(params, &prog);
    off.setDetectorEnabled(false);
    on.run(10'000'000);
    off.run(10'000'000);
    ASSERT_TRUE(on.allHalted());
    ASSERT_TRUE(off.allHalted());
    for (unsigned t = 0; t < 2; ++t)
        EXPECT_TRUE(on.archState(t) == off.archState(t));
    EXPECT_TRUE(on.memory().sameContents(off.memory()));
}

TEST(Core, InflightDestPregsAreRecentCompletions)
{
    auto prog = benchProgram("400.perl");
    CoreParams params;
    params.detector = filters::DetectorParams::none();
    Core core(params, &prog);
    for (int i = 0; i < 2000; ++i)
        core.tick();
    auto pregs = core.inflightDestPregs();
    for (unsigned p : pregs) {
        auto phase = core.pregPhase(p);
        EXPECT_EQ(phase, PregPhase::Completed);
    }
}
