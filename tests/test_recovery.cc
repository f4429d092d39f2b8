/**
 * @file
 * End-to-end fault recovery scenarios on a hand-built kernel whose
 * dataflow is fully understood: predecessor replay repairing a
 * corrupted producer, singleton re-execute detecting LSQ corruption,
 * squash-and-rollback repairing a rename fault, and trap
 * classification for wild addresses.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "pipeline/core.hh"
#include "reference_memory.hh"
#include "run_fork.hh"
#include "sim/rng.hh"

using namespace fh;
using namespace fh::fault;
using namespace fh::pipeline;
using namespace fh::isa;

namespace
{

/** r4 = i + K; st [r1 + (i&63)*8], r4; i++ — a store-checked chain. */
Program
tinyKernel()
{
    ProgramBuilder b("tiny");
    b.addSegment(0x20000000, 8192);
    b.addSegment(0x20010000, 8192);
    b.emit(makeLi(2, 0));
    u32 loop = b.here();
    b.emit(makeRRI(Op::Addi, 4, 2, 0x100000)); // pc=1: producer
    b.emit(makeRRI(Op::Andi, 5, 2, 255));
    b.emit(makeRRI(Op::Slli, 5, 5, 3));
    b.emit(makeRRR(Op::Add, 5, 5, 1));
    b.emit(makeSt(5, 4, 0)); // pc=5: checked consumer
    b.emit(makeRRI(Op::Addi, 2, 2, 1));
    b.emit(makeLi(3, 1 << 30));
    b.emit(makeBranch(Op::Blt, 2, 3, loop));
    Program p = b.take();
    p.threadBases = {0x20000000, 0x20010000};
    return p;
}

struct Scenario
{
    Program prog = tinyKernel();
    Core master;

    Scenario()
        : master(
              [] {
                  CoreParams p;
                  p.detector = filters::DetectorParams::faultHound();
                  return p;
              }(),
              &prog)
    {
        while (master.committedTotal() < 20000)
            master.tick();
    }
};

} // namespace

TEST(Recovery, ReplayRepairsFreshProducerCorruption)
{
    Scenario s;
    Rng rng(7);
    int sdc = 0;
    int covered = 0;
    for (int trial = 0; trial < 80 && sdc < 12; ++trial) {
        for (Cycle c = 0; c < 113; ++c)
            s.master.tick();
        // Flip a high bit of the freshest completed producer (pc=1).
        unsigned preg = invalidPreg;
        const auto &rob = s.master.rob(0);
        for (unsigned i = 0; i < rob.size(); ++i) {
            const unsigned slot = rob.slotAt(i);
            const auto &h = rob.hot(slot);
            if (h.valid && rob.cold(slot).pc == 1 &&
                h.state == EntryState::Completed) {
                preg = rob.cold(slot).destPreg;
            }
        }
        if (preg == invalidPreg)
            continue;
        InjectionPlan plan;
        plan.target = Target::RegFile;
        plan.preg = preg;
        plan.bit = 40;
        auto targets = windowTargets(s.master, 600);
        auto g = runFork(s.master, nullptr, false, targets, 500000);
        auto u = runFork(s.master, &plan, false, targets, 500000);
        if (u.trapped != g.trapped || !u.reachedTargets)
            continue;
        if (archEquals(u.core, g.core))
            continue; // masked
        ++sdc;
        auto f = runFork(s.master, &plan, true, targets, 500000);
        bool ok = f.core.faultDetected() ||
                  (f.reachedTargets && !f.trapped &&
                   archEquals(f.core, g.core));
        covered += ok ? 1 : 0;
    }
    ASSERT_GE(sdc, 4) << "scenario produced too few SDC faults";
    EXPECT_GE(covered * 2, sdc)
        << "replay must repair at least half of fresh producer faults";
}

TEST(Recovery, SingletonReexecDetectsLsqCorruption)
{
    Scenario s;
    int sdc = 0;
    int detected = 0;
    for (int trial = 0; trial < 120 && sdc < 10; ++trial) {
        for (Cycle c = 0; c < 101; ++c)
            s.master.tick();
        if (s.master.lsqOccupied() == 0)
            continue;
        InjectionPlan plan;
        plan.target = Target::Lsq;
        plan.lsqNth = trial % 4;
        plan.lsqAddrField = false; // store data
        plan.bit = 41;
        auto targets = windowTargets(s.master, 600);
        auto g = runFork(s.master, nullptr, false, targets, 500000);
        auto u = runFork(s.master, &plan, false, targets, 500000);
        if (u.trapped != g.trapped || !u.reachedTargets)
            continue;
        if (archEquals(u.core, g.core))
            continue;
        ++sdc;
        auto f = runFork(s.master, &plan, true, targets, 500000);
        bool ok = f.core.faultDetected() ||
                  (f.reachedTargets && !f.trapped &&
                   archEquals(f.core, g.core));
        detected += ok ? 1 : 0;
    }
    ASSERT_GE(sdc, 3);
    EXPECT_GE(detected * 2, sdc)
        << "the commit-time check must catch LSQ data corruption";
}

TEST(Recovery, WildAddressBecomesTrapNotSilentCorruption)
{
    Scenario s;
    // Corrupt the base register's high bit right at injection: the
    // next store's address leaves every segment and must trap.
    InjectionPlan plan;
    plan.target = Target::RegFile;
    // r1 is architectural: find its physical register via archState
    // equivalence — flip through the rename hook instead.
    auto targets = windowTargets(s.master, 400);
    Core f = s.master;
    for (unsigned t = 0; t < f.numThreads(); ++t)
        f.threadOptions(t).stopAfterInsts = targets[t];
    f.setDetectorEnabled(false);
    // Flip bit 35 of thread 0's architectural r1 value.
    auto pregs_before = f.archState(0).regs[1];
    (void)pregs_before;
    // Inject via direct memory of the regfile: use the rename map of
    // thread 0 through the public injection API.
    // (r1 is never renamed by the kernel, so spec(1) == retire(1).)
    // We locate it by flipping and checking the architectural view.
    bool flipped = false;
    for (unsigned p = 0; p < f.numPhysRegs() && !flipped; ++p) {
        Core probe = f;
        probe.injectRegfileBit(p, 35);
        if (probe.archState(0).regs[1] !=
            f.archState(0).regs[1]) {
            f.injectRegfileBit(p, 35);
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    f.runUntilCommitted(targets, 500000);
    EXPECT_TRUE(f.anyTrap())
        << "an out-of-segment store must raise a trap at commit";
}

TEST(Recovery, RenameFaultOftenRecoveredBySquash)
{
    Scenario s;
    Rng rng(13);
    int sdc = 0;
    int covered = 0;
    for (int trial = 0; trial < 200 && sdc < 12; ++trial) {
        for (Cycle c = 0; c < 97; ++c)
            s.master.tick();
        InjectionPlan plan;
        plan.target = Target::Rename;
        plan.tid = 0;
        plan.arch = 4; // the producer's architectural register
        plan.bit = static_cast<unsigned>(rng.below(8));
        auto targets = windowTargets(s.master, 800);
        auto g = runFork(s.master, nullptr, false, targets, 500000);
        auto u = runFork(s.master, &plan, false, targets, 500000);
        if (u.trapped != g.trapped || !u.reachedTargets)
            continue;
        if (archEquals(u.core, g.core))
            continue;
        ++sdc;
        auto f = runFork(s.master, &plan, true, targets, 500000);
        bool ok = f.core.faultDetected() ||
                  (f.reachedTargets && !f.trapped &&
                   archEquals(f.core, g.core));
        covered += ok ? 1 : 0;
    }
    if (sdc >= 4) {
        EXPECT_GT(covered, 0)
            << "some rename faults must be recovered by rollback";
    }
}

TEST(Recovery, ReplayAndRollbackAreArchitecturallyTransparent)
{
    // The protected fault-free fork must match the unprotected one
    // exactly — FaultHound's false positives never change results.
    Scenario s;
    auto targets = windowTargets(s.master, 2000);
    auto a = runFork(s.master, nullptr, true, targets, 500000);
    auto b = runFork(s.master, nullptr, false, targets, 500000);
    ASSERT_TRUE(a.reachedTargets);
    ASSERT_TRUE(b.reachedTargets);
    EXPECT_TRUE(archEquals(a.core, b.core));
}
