/**
 * @file
 * The golden-fork oracle for the golden checkpoint ledger. A test-side
 * driver replays a campaign's fixed-mode schedule (warmup, gap draws,
 * per-trial plan streams) with a GoldenLedger on the master and checks
 * every trial against an explicit no-fault fork of its snapshot:
 *
 *  - the ledger entry matches the no-fault fork (GoldenLedger::matches),
 *    with equal trap status, and a crossed entry means the fork reached
 *    its targets;
 *  - GoldenLedger::matches on the bare and protected faulty forks
 *    agrees with the full archEquals compare against the no-fault fork;
 *  - the campaign classifies exactly as the golden-fork classifier
 *    would, at 1 and 4 worker threads.
 *
 * Runs at 2 SMT threads (one segment per thread) and at 1 SMT thread
 * on the 2-segment layout fhsim builds, where a segment has no owner,
 * and in each oracle mode (oracle_modes.hh): under the per-cycle issue
 * scan and with full-window bare forks the campaign must still
 * classify exactly as the golden-fork classifier.
 * Also pins the ledger's layout check on every built-in workload,
 * the completion order of the caller-owned entries, and the fork
 * runtime's no-post-freeze-ticks guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>

#include "campaign_compare.hh"
#include "fault/campaign.hh"
#include "fault/golden_ledger.hh"
#include "oracle_modes.hh"
#include "reference_memory.hh"
#include "run_fork.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace
{

using namespace fh;
using test::OracleMode;

struct LedgerCase
{
    const char *label;
    const char *bench;
    filters::DetectorParams detector;
    u64 seed;
    unsigned smtThreads;
};

/** Name the case in gtest failure messages instead of raw bytes. */
void
PrintTo(const LedgerCase &c, std::ostream *os)
{
    *os << c.label;
}

isa::Program
buildProgram(const char *bench, unsigned smt_threads)
{
    workload::WorkloadSpec spec;
    spec.maxThreads = std::max(2u, smt_threads);
    spec.footprintDivider = 64;
    return workload::build(bench, spec);
}

pipeline::CoreParams
coreParams(const LedgerCase &c, OracleMode mode)
{
    pipeline::CoreParams params;
    params.threads = c.smtThreads;
    params.detector = c.detector;
    test::applyOracleMode(mode, params);
    return params;
}

fault::CampaignConfig
campaignConfig(const LedgerCase &c, OracleMode mode, unsigned pool_threads)
{
    fault::CampaignConfig cfg;
    cfg.injections = 64;
    cfg.window = 250;
    cfg.seed = c.seed;
    cfg.threads = pool_threads;
    test::applyOracleMode(mode, cfg);
    return cfg;
}

/** What the oracle saw, and the golden-fork classification. */
struct OracleTally
{
    fault::CampaignResult result;
    u64 comparedForks = 0;
    u64 mismatchedForks = 0;
};

/** One produced trial; its golden entry stays put in the deque while
 *  the ledger fills it in. */
struct PendingTrial
{
    pipeline::Core snapshot;
    fault::InjectionPlan plan;
    fault::GoldenLedger::Entry golden;
};

/**
 * Check one trial against its no-fault fork and classify it the way
 * the retired golden-fork campaign did.
 */
void
checkTrial(const PendingTrial &t, const fault::CampaignConfig &cfg,
           bool protect, OracleTally &tally)
{
    fault::CampaignResult &r = tally.result;
    ++r.injected;
    const fault::GoldenLedger::Entry &e = t.golden;
    const fault::ForkOutcome golden = fault::runFork(
        t.snapshot, nullptr, false, e.targets, cfg.forkMaxCycles);
    EXPECT_TRUE(fault::GoldenLedger::matches(e, golden.core));
    EXPECT_EQ(e.trapped, golden.trapped);
    EXPECT_TRUE(!e.crossed || golden.reachedTargets);

    auto compare = [&](const fault::ForkOutcome &f) {
        const bool equal = fault::archEquals(f.core, golden.core);
        EXPECT_EQ(fault::GoldenLedger::matches(e, f.core), equal);
        ++tally.comparedForks;
        tally.mismatchedForks += equal ? 0 : 1;
        return equal;
    };

    const fault::ForkOutcome bare = fault::runFork(
        t.snapshot, &t.plan, false, e.targets, cfg.forkMaxCycles);
    const bool bare_matches = compare(bare);
    if (bare.trapped != golden.trapped || !bare.reachedTargets) {
        ++r.noisy;
        return;
    }
    if (bare_matches) {
        ++r.masked;
        return;
    }
    ++r.sdc;
    if (!protect) {
        ++r.uncovered;
        return;
    }

    const fault::ForkOutcome prot = fault::runFork(
        t.snapshot, &t.plan, true, e.targets, cfg.forkMaxCycles);
    const bool prot_matches = compare(prot);
    const bool det = prot.core.faultDetected() ||
                     (prot.trapped && !golden.trapped);
    if (det)
        ++r.detected;
    else if (prot.reachedTargets && !prot.trapped && prot_matches)
        ++r.recovered;
    else
        ++r.uncovered;
}

/**
 * Replay runCampaign's fixed-mode schedule (same warmup, gaps, plan
 * streams and end-of-campaign drain) with a ledger on the master, and
 * check every trial as its entry completes.
 */
OracleTally
runOracle(const LedgerCase &c, OracleMode mode)
{
    const isa::Program program = buildProgram(c.bench, c.smtThreads);
    const pipeline::CoreParams params = coreParams(c, mode);
    const fault::CampaignConfig cfg = campaignConfig(c, mode, 1);
    const bool protect =
        params.detector.scheme != filters::Scheme::None;

    pipeline::Core master(params, &program);
    while (master.committedTotal() < cfg.warmupInsts &&
           !master.allHalted()) {
        master.tick();
    }
    fault::GoldenLedger ledger(master);
    master.setCommitObserver(&ledger);

    OracleTally tally;
    std::deque<PendingTrial> inflight;
    auto checkCompleted = [&] {
        while (!inflight.empty() && inflight.front().golden.complete()) {
            checkTrial(inflight.front(), cfg, protect, tally);
            inflight.pop_front();
        }
    };

    Rng gaps(cfg.seed);
    for (u64 trial = 0; trial < cfg.injections; ++trial) {
        master.advance(gaps.range(cfg.minGap, cfg.maxGap));
        if (master.allHalted())
            break;
        Rng rng = Rng::stream(cfg.seed, trial);
        PendingTrial &t = inflight.emplace_back(
            PendingTrial{master, fault::drawPlan(master, cfg.mix, rng), {}});
        t.golden.targets = fault::windowTargets(master, cfg.window);
        ledger.open(t.golden);
        checkCompleted();
    }
    Cycle drained = 0;
    while (!inflight.empty() && !inflight.back().golden.complete() &&
           !master.allHalted() && drained < cfg.forkMaxCycles) {
        master.tick();
        ++drained;
    }
    if (!inflight.empty() && !inflight.back().golden.complete())
        ledger.forceFinalizeAll();
    checkCompleted();
    EXPECT_TRUE(inflight.empty());
    master.setCommitObserver(nullptr);
    return tally;
}

void
expectSameCounts(const fault::CampaignResult &a,
                 const fault::CampaignResult &b)
{
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.noisy, b.noisy);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.uncovered, b.uncovered);
}

class LedgerOracle
    : public testing::TestWithParam<std::tuple<LedgerCase, OracleMode>>
{
};

TEST_P(LedgerOracle, EveryTrialMatchesItsNoFaultFork)
{
    const auto &[c, mode] = GetParam();
    const OracleTally oracle = runOracle(c, mode);
    ASSERT_EQ(oracle.result.injected,
              campaignConfig(c, mode, 1).injections);
    // The compares must see both outcomes to mean anything.
    EXPECT_GT(oracle.mismatchedForks, 0u);
    EXPECT_GT(oracle.comparedForks, oracle.mismatchedForks);

    const isa::Program program = buildProgram(c.bench, c.smtThreads);
    const auto serial = fault::runCampaign(
        coreParams(c, mode), &program, campaignConfig(c, mode, 1));
    expectSameCounts(oracle.result, serial);
    test::expectOracleModeTookEffect(mode, serial);
    // The worker count shards wave execution differently but must not
    // change a single count either way.
    const auto pooled = fault::runCampaign(
        coreParams(c, mode), &program, campaignConfig(c, mode, 4));
    test::expectSameCampaign(serial, pooled);
    test::expectOracleModeTookEffect(mode, pooled);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LedgerOracle,
    testing::Combine(testing::Values(
        LedgerCase{"ocean_faulthound", "ocean",
                   filters::DetectorParams::faultHound(), 1234, 2},
        LedgerCase{"ocean_unprotected", "ocean",
                   filters::DetectorParams::none(), 42, 2},
        LedgerCase{"volrend_faulthound", "volrend",
                   filters::DetectorParams::faultHound(), 7, 2},
        LedgerCase{"gamess_pbfs_biased", "416.gamess",
                   filters::DetectorParams::pbfsBiased(), 99, 2},
        LedgerCase{"ocean_faulthound_1t", "ocean",
                   filters::DetectorParams::faultHound(), 7, 1},
        LedgerCase{"ocean_unprotected_1t", "ocean",
                   filters::DetectorParams::none(), 7, 1},
        LedgerCase{"mcf_pbfs_biased_1t", "429.mcf",
                   filters::DetectorParams::pbfsBiased(), 5, 1},
        LedgerCase{"perl_faulthound_1t", "400.perl",
                   filters::DetectorParams::faultHound(), 11, 1}),
                     test::oracleModes()),
    test::oracleCaseName<LedgerCase>);

TEST(GoldenLedger, SupportsBuiltInWorkloadLayout)
{
    for (const workload::BenchmarkInfo &info : workload::all()) {
        for (unsigned smt : {1u, 2u, 4u}) {
            const isa::Program program =
                buildProgram(info.name.c_str(), smt);
            pipeline::CoreParams params;
            params.threads = smt;
            pipeline::Core core(params, &program);
            EXPECT_TRUE(fault::GoldenLedger::supports(core, program))
                << info.name << " at " << smt << " SMT thread(s)";
            EXPECT_GE(core.memory().segmentCount(),
                      static_cast<size_t>(core.numThreads()))
                << info.name << " at " << smt << " SMT thread(s)";
        }
    }
}

// The ledger stores no entries: the caller's complete in open order. A
// thread already at its target finalizes at open; the master's
// crossings finalize the rest, and a halt or forceFinalizeAll
// finalizes whatever is still open, short of its targets.
TEST(GoldenLedger, CallerOwnedEntriesCompleteInOpenOrder)
{
    workload::WorkloadSpec spec;
    spec.footprintDivider = 64;
    spec.iterations = 200; // halts soon after the ticks below
    const isa::Program program = workload::build("ocean", spec);
    pipeline::CoreParams params;
    pipeline::Core core(params, &program);
    ASSERT_EQ(core.numThreads(), 2u);
    while (core.committed(0) < 100 || core.committed(1) < 100)
        core.tick();
    fault::GoldenLedger ledger(core);
    core.setCommitObserver(&ledger);

    // Thread 0 sits at its target already, thread 1 does not.
    std::deque<fault::GoldenLedger::Entry> entries(5);
    entries[0].targets = {core.committed(0), core.committed(1) + 50};
    ledger.open(entries[0]);
    EXPECT_EQ(entries[0].remaining, 1u);
    for (size_t i = 1; i < entries.size(); ++i) {
        const u64 step = i < 3 ? 100 * i : u64{1} << 40;
        entries[i].targets = {core.committed(0) + step,
                              core.committed(1) + step};
        ledger.open(entries[i]);
        EXPECT_FALSE(entries[i].complete());
    }

    auto completeInOrder = [&] {
        for (size_t i = 1; i < entries.size(); ++i)
            if (entries[i].complete() && !entries[i - 1].complete())
                return false;
        return true;
    };
    while (!entries[2].complete()) {
        core.tick();
        ASSERT_TRUE(completeInOrder());
        ASSERT_FALSE(core.allHalted());
    }
    for (size_t i = 0; i <= 2; ++i)
        EXPECT_TRUE(entries[i].crossed) << i;
    EXPECT_FALSE(entries[3].complete());

    // Thread 0 halts far short of entries 3 and 4: its watches
    // finalize at the halt; thread 1's wait for forceFinalizeAll.
    core.threadOptions(1).stopAfterInsts = core.committed(1);
    while (!core.halted(0))
        core.tick();
    EXPECT_EQ(entries[3].remaining, 1u);
    EXPECT_EQ(entries[4].remaining, 1u);
    ledger.forceFinalizeAll();
    for (size_t i = 3; i < entries.size(); ++i) {
        EXPECT_TRUE(entries[i].complete()) << i;
        EXPECT_FALSE(entries[i].crossed) << i;
    }
    core.setCommitObserver(nullptr);
}

// Regression: once every thread is frozen at its stopAfterInsts
// boundary (or halted), runUntilCommitted must return without ticking
// — fork cycle counts may not include post-freeze cycles.
TEST(GoldenLedger, NoTicksAfterAllThreadsFrozen)
{
    isa::Program program = buildProgram("ocean", 2);
    pipeline::CoreParams params;
    pipeline::Core core(params, &program);

    std::vector<u64> targets(core.numThreads());
    for (unsigned tid = 0; tid < core.numThreads(); ++tid) {
        targets[tid] = core.committed(tid) + 200;
        core.threadOptions(tid).stopAfterInsts = targets[tid];
    }
    ASSERT_TRUE(core.runUntilCommitted(targets, 1000000));
    const Cycle frozen_at = core.cycle();
    const u64 stat_cycles = core.stats().cycles;

    // Re-running against the same (met) targets must be a no-op.
    EXPECT_TRUE(core.runUntilCommitted(targets, 1000000));
    EXPECT_EQ(core.cycle(), frozen_at);
    EXPECT_EQ(core.stats().cycles, stat_cycles);

    // Raising the targets while the freeze points stay put can never
    // make progress; the runtime must bail immediately instead of
    // burning the whole cycle bound.
    std::vector<u64> beyond = targets;
    for (u64 &t : beyond)
        t += 100;
    EXPECT_FALSE(core.runUntilCommitted(beyond, 1000000));
    EXPECT_EQ(core.cycle(), frozen_at);
    EXPECT_EQ(core.stats().cycles, stat_cycles);
}

} // namespace
