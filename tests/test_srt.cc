/**
 * @file
 * The idealized SRT / SRT-iso comparison model (Section 4): trailing
 * threads run with perfect branch direction and L1-hit loads, consume
 * resources, and halt after their coverage-scaled budget.
 */

#include <gtest/gtest.h>

#include "redundancy/srt.hh"
#include "reference_memory.hh"
#include "workload/workload.hh"

using namespace fh;
using namespace fh::redundancy;

namespace
{

isa::Program
prog4(const std::string &name = "ocean")
{
    workload::WorkloadSpec spec;
    spec.maxThreads = 4;
    spec.footprintDivider = 64;
    return workload::build(name, spec);
}

/** Redundant (trailing-thread) instructions committed so far. */
u64
redundantCommitted(const pipeline::Core &core, unsigned lead_threads)
{
    u64 n = 0;
    for (unsigned t = lead_threads; t < core.numThreads(); ++t)
        n += core.committed(t);
    return n;
}

} // namespace

TEST(Srt, ParamsDoubleThreadsAndDropDetector)
{
    pipeline::CoreParams base;
    base.detector = filters::DetectorParams::faultHound();
    auto params = srtParams(base);
    EXPECT_EQ(params.threads, base.threads * 2);
    EXPECT_EQ(params.detector.scheme, filters::Scheme::None);
}

TEST(Srt, TrailingThreadsHaltAtCoverageBudget)
{
    auto prog = prog4();
    pipeline::CoreParams base;
    base.detector = filters::DetectorParams::none();
    auto params = srtParams(base);
    pipeline::Core core(params, &prog);
    configureSrt(core, 2, {0.5}, 4000);
    std::vector<u64> targets{4000, 4000, 0, 0};
    for (unsigned t = 0; t < 2; ++t)
        core.threadOptions(t).stopAfterInsts = 4000;
    ASSERT_TRUE(core.runUntilCommitted(targets, 5'000'000));
    EXPECT_EQ(core.committed(2), 2000u);
    EXPECT_EQ(core.committed(3), 2000u);
    EXPECT_TRUE(core.halted(2));
    EXPECT_TRUE(core.halted(3));
    EXPECT_EQ(redundantCommitted(core, 2), 4000u);
}

TEST(Srt, TrailingOracleThreadsNeverMispredict)
{
    auto prog = prog4("401.bzip2"); // branchy workload
    pipeline::CoreParams base;
    base.detector = filters::DetectorParams::none();
    auto params = srtParams(base);

    // Run only the trailing contexts (leads frozen immediately).
    pipeline::Core core(params, &prog);
    configureSrt(core, 2, {1.0}, 3000);
    core.threadOptions(0).maxInsts = 1; // halt the leads immediately
    core.threadOptions(1).maxInsts = 1;
    std::vector<u64> targets{1, 1, 3000, 3000};
    ASSERT_TRUE(core.runUntilCommitted(targets, 5'000'000));
    EXPECT_EQ(core.stats().mispredicts, 0u)
        << "oracle-fetch threads must not mispredict";
}

TEST(Srt, TrailingThreadsComputeCorrectResults)
{
    // The idealized trailing thread is a timing shortcut, not a
    // semantic one: its architectural results must match the
    // functional model.
    workload::WorkloadSpec spec;
    spec.maxThreads = 4;
    spec.footprintDivider = 64;
    spec.iterations = 800;
    auto prog = workload::build("ocean", spec);

    pipeline::CoreParams base;
    base.detector = filters::DetectorParams::none();
    auto params = srtParams(base);
    pipeline::Core core(params, &prog);
    for (unsigned t = 2; t < 4; ++t) {
        core.threadOptions(t).oracleFetch = true;
        core.threadOptions(t).perfectDcache = true;
    }
    core.advance(30'000'000);
    ASSERT_TRUE(core.allHalted());
    ASSERT_FALSE(core.anyTrap());

    mem::Memory ref;
    prog.load(ref);
    for (unsigned t = 0; t < 4; ++t) {
        isa::ArchState s = isa::initialState(prog, t);
        while (!s.halted)
            ASSERT_EQ(isa::stepArch(prog, ref, s), isa::Trap::None);
        auto got = core.archState(t);
        for (unsigned r = 0; r < isa::numArchRegs; ++r)
            EXPECT_EQ(got.regs[r], s.regs[r])
                << "thread " << t << " r" << r;
    }
    EXPECT_TRUE(sameContents(core.memory(), ref));
}

TEST(Srt, FullRedundancySlowsTheLeads)
{
    auto prog = prog4("447.dealII");
    pipeline::CoreParams base;
    base.detector = filters::DetectorParams::none();

    pipeline::Core solo(base, &prog);
    Cycle base_cycles = solo.runPerThreadBudget(8000, 50'000'000);

    auto params = srtParams(base);
    pipeline::Core srt(params, &prog);
    configureSrt(srt, 2, {1.0}, 8000);
    std::vector<u64> targets{8000, 8000, 0, 0};
    for (unsigned t = 0; t < 2; ++t)
        srt.threadOptions(t).stopAfterInsts = 8000;
    ASSERT_TRUE(srt.runUntilCommitted(targets, 100'000'000));
    EXPECT_GT(srt.cycle(), base_cycles)
        << "running the redundant copies cannot be free";
}
