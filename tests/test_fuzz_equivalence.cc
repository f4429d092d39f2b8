/**
 * @file
 * Randomized-program equivalence fuzzing: generate arbitrary (but
 * well-formed) FH-RISC programs — straight-line blocks, nested loops,
 * data-dependent branches, loads/stores over a scratch segment — and
 * require the out-of-order core's final architectural state to equal
 * the functional executor's, under every detection scheme. This is the
 * widest net for pipeline bugs (forwarding, squash, replay, rollback).
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "fault/tandem.hh"
#include "isa/functional.hh"
#include "pipeline/core.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

using namespace fh;
using namespace fh::isa;

namespace
{

constexpr Addr segBase = 0x30000000;
constexpr u64 segWords = 256; // power of two

/**
 * Emit a random basic block: ALU ops over r2..r12, masked loads and
 * stores over the scratch segment, using only in-range addresses.
 */
void
emitBlock(ProgramBuilder &b, Rng &rng, unsigned len)
{
    auto reg = [&] { return static_cast<u8>(2 + rng.below(11)); };
    for (unsigned i = 0; i < len; ++i) {
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {
            static const Op rrr[] = {Op::Add, Op::Sub, Op::And,
                                     Op::Or, Op::Xor, Op::Mul,
                                     Op::SltU};
            b.emit(makeRRR(rrr[rng.below(7)], reg(), reg(), reg()));
            break;
          }
          case 3:
          case 4: {
            static const Op rri[] = {Op::Addi, Op::Andi, Op::Ori,
                                     Op::Xori};
            b.emit(makeRRI(rri[rng.below(4)], reg(), reg(),
                           static_cast<i64>(rng.below(1024))));
            break;
          }
          case 5:
            b.emit(makeRRI(rng.chance(0.5) ? Op::Slli : Op::Srli,
                           reg(), reg(),
                           static_cast<i64>(rng.below(16))));
            break;
          case 6:
            b.emit(makeLi(reg(), static_cast<i64>(rng.next() >> 40)));
            break;
          case 7:
          case 8: {
            // addr = r1 + ((rX & mask) << 3): always in-segment.
            u8 idx = reg();
            b.emit(makeRRI(Op::Andi, 13, idx,
                           static_cast<i64>(segWords - 1)));
            b.emit(makeRRI(Op::Slli, 13, 13, 3));
            b.emit(makeRRR(Op::Add, 13, 13, 1));
            if (rng.chance(0.5))
                b.emit(makeLd(reg(), 13, 0));
            else
                b.emit(makeSt(13, reg(), 0));
            break;
          }
          default:
            b.emit(makeNop());
            break;
        }
    }
}

/** A random program: counted outer loop around random blocks with a
 *  data-dependent inner branch. */
Program
randomProgram(u64 seed, u64 iterations)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz");
    b.addSegment(segBase, segWords * 8);
    b.addSegment(segBase + 0x10000, segWords * 8);
    Rng init_rng = rng.fork();
    for (u64 w = 0; w < segWords; ++w) {
        u64 v = init_rng.next() & 0xffff;
        b.initWord(segBase + w * 8, v);
        b.initWord(segBase + 0x10000 + w * 8, v);
    }

    b.emit(makeLi(14, 0)); // loop counter
    const u32 loop = b.here();
    b.emit(makeLi(15, static_cast<i64>(iterations)));
    emitBlock(b, rng, 4 + static_cast<unsigned>(rng.below(12)));

    // A data-dependent diamond.
    b.emit(makeRRI(Op::Andi, 13, static_cast<u8>(2 + rng.below(11)),
                   3));
    u32 br = b.emit(makeBranch(Op::Bne, 13, 0, 0));
    emitBlock(b, rng, 2 + static_cast<unsigned>(rng.below(6)));
    u32 jmp = b.emit(makeJmp(0));
    b.patchTargetHere(br);
    emitBlock(b, rng, 2 + static_cast<unsigned>(rng.below(6)));
    b.patchTargetHere(jmp);

    b.emit(makeRRI(Op::Addi, 14, 14, 1));
    b.emit(makeBranch(Op::Blt, 14, 15, loop));
    Program p = b.take();
    p.threadBases = {segBase, segBase + 0x10000};
    return p;
}

struct FuzzCase
{
    u64 seed;
    filters::Scheme scheme;
};

class FuzzEquivalence : public testing::TestWithParam<FuzzCase>
{
};

} // namespace

TEST_P(FuzzEquivalence, TimingMatchesFunctional)
{
    const auto &c = GetParam();
    Program prog = randomProgram(c.seed, 400);

    pipeline::CoreParams params;
    switch (c.scheme) {
      case filters::Scheme::None:
        params.detector = filters::DetectorParams::none();
        break;
      case filters::Scheme::PbfsBiased:
        params.detector = filters::DetectorParams::pbfsBiased();
        break;
      default:
        params.detector = filters::DetectorParams::faultHound();
        break;
    }
    pipeline::Core core(params, &prog);
    core.run(20'000'000);
    ASSERT_TRUE(core.allHalted()) << "seed " << c.seed;
    ASSERT_FALSE(core.anyTrap()) << "seed " << c.seed;

    mem::Memory ref;
    prog.load(ref);
    for (unsigned tid = 0; tid < 2; ++tid) {
        ArchState s = initialState(prog, tid);
        u64 guard = 0;
        while (!s.halted) {
            ASSERT_EQ(stepArch(prog, ref, s), Trap::None)
                << "seed " << c.seed;
            ASSERT_LT(++guard, 5'000'000u);
        }
        auto got = core.archState(tid);
        for (unsigned r = 0; r < numArchRegs; ++r)
            EXPECT_EQ(got.regs[r], s.regs[r])
                << "seed " << c.seed << " tid " << tid << " r" << r;
    }
    EXPECT_TRUE(core.memory().sameContents(ref)) << "seed " << c.seed;
}

namespace
{

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    for (u64 seed = 1; seed <= 24; ++seed) {
        filters::Scheme scheme =
            seed % 3 == 0   ? filters::Scheme::None
            : seed % 3 == 1 ? filters::Scheme::FaultHound
                            : filters::Scheme::PbfsBiased;
        cases.push_back({seed, scheme});
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         testing::ValuesIn(fuzzCases()),
                         [](const testing::TestParamInfo<FuzzCase> &i) {
                             return "seed" +
                                    std::to_string(i.param.seed) + "_" +
                                    std::to_string(static_cast<int>(
                                        i.param.scheme));
                         });

namespace
{

/** Every observable a fork-based classification reads. */
void
expectSameOutcome(const fault::ForkOutcome &a, const fault::ForkOutcome &b,
                  u64 trial, const char *flavor)
{
    EXPECT_EQ(a.reachedTargets, b.reachedTargets)
        << flavor << " trial " << trial;
    EXPECT_EQ(a.trapped, b.trapped) << flavor << " trial " << trial;
    EXPECT_EQ(a.core.cycle(), b.core.cycle())
        << flavor << " trial " << trial;
    for (unsigned tid = 0; tid < a.core.numThreads(); ++tid)
        EXPECT_EQ(a.core.committed(tid), b.core.committed(tid))
            << flavor << " trial " << trial << " tid " << tid;
    EXPECT_TRUE(fault::archEquals(a.core, b.core))
        << flavor << " trial " << trial;
}

class ForkEquivalence : public testing::TestWithParam<unsigned>
{
};

} // namespace

/**
 * The campaign's scratch-fork reuse (runForkInto restoring into a
 * warm machine via flat-arena copy assignment, or swapping buffers
 * for the trial's last fork) must be indistinguishable from the
 * from-scratch copy constructor it replaced. Fuzz it over randomized
 * injection windows: a fresh runFork and a reused-scratch runForkInto
 * of the same snapshot must agree on every observable a classifier
 * reads. Parameterized over pool width so the per-worker scratch path
 * is exercised both single-threaded and with 4 workers racing.
 */
TEST_P(ForkEquivalence, ScratchForkMatchesFreshFork)
{
    const unsigned nthreads = GetParam();
    Program prog = randomProgram(11, 100'000);

    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();
    pipeline::Core master(params, &prog);
    while (master.committedTotal() < 3000 && !master.allHalted())
        master.tick();
    ASSERT_FALSE(master.allHalted());

    // Produce snapshots serially (randomized gaps and plans), then
    // fork them on the pool with per-worker scratch — the campaign's
    // exact memory-reuse pattern.
    struct Snap
    {
        pipeline::Core core;
        fault::InjectionPlan plan;
        std::vector<u64> targets;
    };
    constexpr u64 kTrials = 12;
    constexpr Cycle kMaxCycles = 200'000;
    constexpr u64 kWindow = 150;
    Rng rng(17);
    fault::InjectionMix mix;
    std::vector<Snap> snaps;
    snaps.reserve(kTrials);
    for (u64 t = 0; t < kTrials && !master.allHalted(); ++t) {
        const Cycle gap = rng.range(40, 160);
        for (Cycle c = 0; c < gap && !master.allHalted(); ++c)
            master.tick();
        if (master.allHalted())
            break;
        snaps.push_back({master, fault::drawPlan(master, mix, rng),
                         fault::windowTargets(master, kWindow)});
    }
    ASSERT_GE(snaps.size(), 8u);

    // One scratch pair per worker; reused across this worker's trials
    // so later restores hit genuinely dirty buffers.
    struct Scratch
    {
        std::optional<fault::ForkOutcome> bare;
        std::optional<fault::ForkOutcome> prot;
    };
    std::vector<Scratch> scratch(nthreads);
    exec::ThreadPool pool(nthreads);
    pool.parallelFor(snaps.size(), [&](u64 k) {
        Scratch &sc = scratch[exec::ThreadPool::currentWorker()];
        const Snap &s = snaps[k];

        // Bare fork (detector off): fresh copy vs copy-restored scratch.
        fault::ForkOutcome fresh = fault::runFork(
            s.core, &s.plan, false, s.targets, kMaxCycles);
        if (!sc.bare) {
            sc.bare.emplace(fault::runFork(s.core, &s.plan, false,
                                           s.targets, kMaxCycles));
        } else {
            fault::runForkInto(*sc.bare, s.core, &s.plan, false,
                               s.targets, kMaxCycles);
        }
        expectSameOutcome(fresh, *sc.bare, k, "bare");

        // Protected fork (detector on): fresh copy vs the consuming
        // swap flavor fed a throwaway copy of the snapshot.
        fault::ForkOutcome freshProt = fault::runFork(
            s.core, &s.plan, true, s.targets, kMaxCycles);
        pipeline::Core doomed(s.core);
        if (!sc.prot) {
            sc.prot.emplace(fault::runFork(std::move(doomed), &s.plan,
                                           true, s.targets, kMaxCycles));
        } else {
            fault::runForkInto(*sc.prot, std::move(doomed), &s.plan,
                               true, s.targets, kMaxCycles);
        }
        expectSameOutcome(freshProt, *sc.prot, k, "protected");
        EXPECT_EQ(freshProt.core.detector().stats().triggers,
                  sc.prot->core.detector().stats().triggers)
            << "trial " << k;
        EXPECT_EQ(freshProt.core.faultDetected(),
                  sc.prot->core.faultDetected())
            << "trial " << k;
    });
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, ForkEquivalence,
                         testing::Values(1u, 4u),
                         [](const testing::TestParamInfo<unsigned> &i) {
                             return "threads" + std::to_string(i.param);
                         });

namespace
{

class ScanOracleEquivalence : public testing::TestWithParam<unsigned>
{
};

} // namespace

/**
 * Wakeup-vs-scan issue-stage oracle: two masters over the same random
 * program, one on the event-driven wakeup scheduler (the default) and
 * one on the retired per-cycle scan (params.scanIssue, the scan
 * oracle), ticked in lockstep — then fault trials forked from both at
 * the same points must agree on every observable a classifier reads.
 * The mix is rename-heavy so plans routinely leave dangling source
 * tags (the wakeup overflow/park path), and the protected forks run
 * the FaultHound detector whose triggered replays re-dispatch
 * completed consumers (the non-monotonic markNotReady re-subscription
 * path). Parameterized over pool width to race per-worker forks at 1
 * and 4 threads.
 */
TEST_P(ScanOracleEquivalence, WakeupMatchesScanIssue)
{
    const unsigned nthreads = GetParam();
    Program prog = randomProgram(23, 100'000);

    pipeline::CoreParams wakeParams;
    wakeParams.detector = filters::DetectorParams::faultHound();
    wakeParams.scanIssue = false;
    pipeline::CoreParams scanParams = wakeParams;
    scanParams.scanIssue = true;

    pipeline::Core wakeMaster(wakeParams, &prog);
    pipeline::Core scanMaster(scanParams, &prog);
    while (wakeMaster.committedTotal() < 3000 &&
           !wakeMaster.allHalted()) {
        wakeMaster.tick();
        scanMaster.tick();
    }
    ASSERT_FALSE(wakeMaster.allHalted());
    ASSERT_EQ(wakeMaster.cycle(), scanMaster.cycle());

    struct Snap
    {
        pipeline::Core wake;
        pipeline::Core scan;
        fault::InjectionPlan plan;
        std::vector<u64> targets;
    };
    constexpr u64 kTrials = 10;
    constexpr Cycle kMaxCycles = 200'000;
    constexpr u64 kWindow = 150;
    Rng rng(29);
    fault::InjectionMix mix;
    mix.renameFrac = 0.6; // rename-heavy: dangling-tag parks
    std::vector<Snap> snaps;
    snaps.reserve(kTrials);
    for (u64 t = 0; t < kTrials && !wakeMaster.allHalted(); ++t) {
        const Cycle gap = rng.range(40, 160);
        for (Cycle c = 0; c < gap && !wakeMaster.allHalted(); ++c) {
            wakeMaster.tick();
            scanMaster.tick();
        }
        if (wakeMaster.allHalted())
            break;
        snaps.push_back({wakeMaster, scanMaster,
                         fault::drawPlan(wakeMaster, mix, rng),
                         fault::windowTargets(wakeMaster, kWindow)});
    }
    ASSERT_GE(snaps.size(), 6u);

    exec::ThreadPool pool(nthreads);
    pool.parallelFor(snaps.size(), [&](u64 k) {
        const Snap &s = snaps[k];

        // Bare forks: identical fault propagation without a detector.
        fault::ForkOutcome wb = fault::runFork(s.wake, &s.plan, false,
                                               s.targets, kMaxCycles);
        fault::ForkOutcome sb = fault::runFork(s.scan, &s.plan, false,
                                               s.targets, kMaxCycles);
        expectSameOutcome(wb, sb, k, "bare");

        // Protected forks: detector triggers and replay storms must
        // land on the same cycles in both schedulers.
        fault::ForkOutcome wp = fault::runFork(s.wake, &s.plan, true,
                                               s.targets, kMaxCycles);
        fault::ForkOutcome sp = fault::runFork(s.scan, &s.plan, true,
                                               s.targets, kMaxCycles);
        expectSameOutcome(wp, sp, k, "protected");
        EXPECT_EQ(wp.core.detector().stats().triggers,
                  sp.core.detector().stats().triggers)
            << "trial " << k;
        EXPECT_EQ(wp.core.faultDetected(), sp.core.faultDetected())
            << "trial " << k;
    });
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, ScanOracleEquivalence,
                         testing::Values(1u, 4u),
                         [](const testing::TestParamInfo<unsigned> &i) {
                             return "threads" + std::to_string(i.param);
                         });

namespace
{

/** One early-stop identity input: a labelled program and the
 *  campaign shape run on it. */
struct EarlyStopCase
{
    std::string label;
    std::function<Program()> program;
    u64 injections;
    u64 window;
    u64 seed;
};

void
PrintTo(const EarlyStopCase &c, std::ostream *os)
{
    *os << c.label;
}

EarlyStopCase
randomCase(u64 seed)
{
    return {"seed" + std::to_string(seed),
            [seed] { return randomProgram(seed, 100'000); }, 80, 200,
            seed};
}

/** A real workload at the paper's window, so the identity is also
 *  checked where most bare forks really are cut short. */
EarlyStopCase
perlCase()
{
    return {"perl400",
            [] {
                workload::WorkloadSpec spec;
                spec.maxThreads = 2;
                return workload::build("400.perl", spec);
            },
            200, 1000, 1};
}

class EarlyStopEquivalence : public testing::TestWithParam<EarlyStopCase>
{
};

} // namespace

/**
 * Arch-digest early termination must be classification-invariant: a
 * bare fork is cut short only when its injected fault was provably
 * erased (fault-watch disarm before any read), which implies the fork
 * is bit-equivalent to a fault-free run — masked. Run whole campaigns
 * over random programs and 400.perl with early stop forced on and off:
 * every classification counter, the SDC bins, and the per-stratum
 * profile rows must be identical. Only the earlyTerminated diagnostic
 * (and the trials' exit cycles, which no counter reads) may differ.
 */
TEST_P(EarlyStopEquivalence, ClassificationIdentical)
{
    const EarlyStopCase &c = GetParam();
    const Program prog = c.program();

    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();

    fault::CampaignConfig cfg;
    cfg.injections = c.injections;
    cfg.window = c.window;
    cfg.seed = c.seed;
    cfg.threads = 2;

    cfg.earlyStop = true;
    const fault::CampaignResult on =
        fault::runCampaign(params, &prog, cfg);
    cfg.earlyStop = false;
    const fault::CampaignResult off =
        fault::runCampaign(params, &prog, cfg);

    EXPECT_EQ(off.earlyTerminated, 0u);
    // Vacuous unless some bare fork was really cut short.
    EXPECT_GT(on.earlyTerminated, 0u);
    EXPECT_EQ(on.injected, off.injected);
    EXPECT_EQ(on.masked, off.masked);
    EXPECT_EQ(on.noisy, off.noisy);
    EXPECT_EQ(on.sdc, off.sdc);
    EXPECT_EQ(on.recovered, off.recovered);
    EXPECT_EQ(on.detected, off.detected);
    EXPECT_EQ(on.uncovered, off.uncovered);
    EXPECT_EQ(on.trialErrors, off.trialErrors);
    EXPECT_EQ(on.hungBare, off.hungBare);
    EXPECT_EQ(on.hungProtected, off.hungProtected);
    EXPECT_EQ(on.skippedProvablyMasked, off.skippedProvablyMasked);
    EXPECT_EQ(on.bins.covered, off.bins.covered);
    EXPECT_EQ(on.bins.secondLevelMasked, off.bins.secondLevelMasked);
    EXPECT_EQ(on.bins.completedReg, off.bins.completedReg);
    EXPECT_EQ(on.bins.archReg, off.bins.archReg);
    EXPECT_EQ(on.bins.renameUncovered, off.bins.renameUncovered);
    EXPECT_EQ(on.bins.noTrigger, off.bins.noTrigger);
    EXPECT_EQ(on.bins.other, off.bins.other);
    for (unsigned s = 0; s < fault::StratumSpace::kCount; ++s) {
        const fault::StratumCounts &a = on.profile.strata[s];
        const fault::StratumCounts &b = off.profile.strata[s];
        EXPECT_EQ(a.trials, b.trials) << "stratum " << s;
        EXPECT_EQ(a.masked, b.masked) << "stratum " << s;
        EXPECT_EQ(a.noisy, b.noisy) << "stratum " << s;
        EXPECT_EQ(a.sdc, b.sdc) << "stratum " << s;
        EXPECT_EQ(a.covered, b.covered) << "stratum " << s;
        EXPECT_EQ(a.skippedProvablyMasked, b.skippedProvablyMasked)
            << "stratum " << s;
    }
    EXPECT_EQ(on.profile.sdcBits, off.profile.sdcBits);
    EXPECT_EQ(on.profile.sdcPcs, off.profile.sdcPcs);
    EXPECT_EQ(on.profile.sdcCycleBuckets, off.profile.sdcCycleBuckets);
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, EarlyStopEquivalence,
    testing::Values(randomCase(7), randomCase(19), perlCase()),
    [](const testing::TestParamInfo<EarlyStopCase> &i) {
        return i.param.label;
    });
