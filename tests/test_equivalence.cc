/**
 * @file
 * The master property test: for every benchmark, every thread count,
 * and every detection scheme, the timing core's final architectural
 * state must equal the functional executor's. This pins down (a) the
 * out-of-order pipeline's correctness (renaming, forwarding, squash,
 * commit) and (b) the architectural transparency of FaultHound's
 * recovery mechanisms — false-positive replays and rollbacks must
 * never change computed results.
 */

#include <gtest/gtest.h>

#include "filters/detector.hh"
#include "isa/functional.hh"
#include "pipeline/core.hh"
#include "reference_memory.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

isa::Program
smallProgram(const std::string &name, unsigned threads, u64 iterations)
{
    workload::WorkloadSpec spec;
    spec.iterations = iterations;
    spec.maxThreads = threads;
    spec.footprintDivider = 64; // small, fast, still multi-segment
    return workload::build(name, spec);
}

/** Run the program functionally for every thread in its own memory. */
std::vector<isa::ArchState>
functionalResult(const isa::Program &prog, unsigned threads,
                 mem::Memory &memory)
{
    std::vector<isa::ArchState> states;
    for (unsigned tid = 0; tid < threads; ++tid) {
        isa::ArchState state = isa::initialState(prog, tid);
        u64 guard = 0;
        while (!state.halted) {
            EXPECT_EQ(isa::stepArch(prog, memory, state),
                      isa::Trap::None)
                << prog.name << " trapped functionally";
            EXPECT_LT(++guard, 50'000'000u) << "functional run hung";
            if (testing::Test::HasFailure())
                break;
        }
        states.push_back(state);
    }
    return states;
}

struct Config
{
    std::string bench;
    unsigned threads;
    filters::Scheme scheme;
};

std::string
configName(const testing::TestParamInfo<Config> &info)
{
    std::string n = info.param.bench + "_t" +
                    std::to_string(info.param.threads) + "_" +
                    filters::to_string(info.param.scheme);
    for (auto &c : n)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

class EquivalenceTest : public testing::TestWithParam<Config>
{
};

} // namespace

TEST_P(EquivalenceTest, TimingMatchesFunctional)
{
    const Config &cfg = GetParam();
    isa::Program prog = smallProgram(cfg.bench, cfg.threads, 3000);

    pipeline::CoreParams params;
    params.threads = cfg.threads;
    switch (cfg.scheme) {
      case filters::Scheme::None:
        params.detector = filters::DetectorParams::none();
        break;
      case filters::Scheme::Pbfs:
        params.detector = filters::DetectorParams::pbfsSticky();
        break;
      case filters::Scheme::PbfsBiased:
        params.detector = filters::DetectorParams::pbfsBiased();
        break;
      case filters::Scheme::FaultHound:
        params.detector = filters::DetectorParams::faultHound();
        break;
    }

    pipeline::Core core(params, &prog);
    core.advance(30'000'000);
    ASSERT_TRUE(core.allHalted()) << "timing run did not finish";
    ASSERT_FALSE(core.anyTrap());

    mem::Memory ref_mem;
    prog.load(ref_mem);
    auto ref = functionalResult(prog, cfg.threads, ref_mem);

    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        isa::ArchState got = core.archState(tid);
        for (unsigned r = 0; r < isa::numArchRegs; ++r) {
            EXPECT_EQ(got.regs[r], ref[tid].regs[r])
                << "thread " << tid << " r" << r;
        }
        EXPECT_TRUE(got.halted);
    }
    EXPECT_TRUE(sameContents(core.memory(), ref_mem))
        << "memory contents diverged";
}

namespace
{

std::vector<Config>
allConfigs()
{
    std::vector<Config> out;
    for (const auto &info : workload::all()) {
        out.push_back({info.name, 1, filters::Scheme::None});
        out.push_back({info.name, 2, filters::Scheme::None});
        out.push_back({info.name, 2, filters::Scheme::FaultHound});
    }
    // Schemes beyond FaultHound: spot-check on representative kernels.
    out.push_back({"400.perl", 2, filters::Scheme::Pbfs});
    out.push_back({"429.mcf", 2, filters::Scheme::Pbfs});
    out.push_back({"400.perl", 2, filters::Scheme::PbfsBiased});
    out.push_back({"437.leslie3d", 2, filters::Scheme::PbfsBiased});
    out.push_back({"ocean", 4, filters::Scheme::FaultHound});
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EquivalenceTest,
                         testing::ValuesIn(allConfigs()), configName);
