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
 * the entries' stable addresses, and the fork runtime's
 * no-post-freeze-ticks guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>

#include "fault/campaign.hh"
#include "fault/golden_ledger.hh"
#include "fault/tandem.hh"
#include "oracle_modes.hh"
#include "reference_memory.hh"
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

/** One produced trial waiting for its ledger entry to complete. */
struct PendingTrial
{
    pipeline::Core snapshot;
    fault::InjectionPlan plan;
    std::vector<u64> targets;
    u32 slot;
};

/**
 * Check one trial against its no-fault fork and classify it the way
 * the retired golden-fork campaign did.
 */
void
checkTrial(const fault::GoldenLedger::Entry &e, const PendingTrial &t,
           const fault::CampaignConfig &cfg, bool protect,
           OracleTally &tally)
{
    fault::CampaignResult &r = tally.result;
    ++r.injected;
    const fault::ForkOutcome golden = fault::runFork(
        t.snapshot, nullptr, false, t.targets, cfg.forkMaxCycles);
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
        t.snapshot, &t.plan, false, t.targets, cfg.forkMaxCycles);
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
        t.snapshot, &t.plan, true, t.targets, cfg.forkMaxCycles);
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
        while (!inflight.empty() &&
               ledger.complete(inflight.front().slot)) {
            const PendingTrial &t = inflight.front();
            checkTrial(ledger.entry(t.slot), t, cfg, protect, tally);
            ledger.release(t.slot);
            inflight.pop_front();
        }
    };

    Rng gaps(cfg.seed);
    for (u64 trial = 0; trial < cfg.injections; ++trial) {
        master.advance(gaps.range(cfg.minGap, cfg.maxGap));
        if (master.allHalted())
            break;
        Rng rng = Rng::stream(cfg.seed, trial);
        const fault::InjectionPlan plan =
            fault::drawPlan(master, cfg.mix, rng);
        std::vector<u64> targets = fault::windowTargets(master, cfg.window);
        const u32 slot = ledger.open(targets);
        inflight.push_back({master, plan, std::move(targets), slot});
        checkCompleted();
    }
    Cycle drained = 0;
    while (!inflight.empty() && !ledger.complete(inflight.back().slot) &&
           !master.allHalted() && drained < cfg.forkMaxCycles) {
        master.tick();
        ++drained;
    }
    if (!inflight.empty() && !ledger.complete(inflight.back().slot))
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

void
expectSameBins(const fault::CampaignResult &a,
               const fault::CampaignResult &b)
{
    EXPECT_EQ(a.bins.covered, b.bins.covered);
    EXPECT_EQ(a.bins.secondLevelMasked, b.bins.secondLevelMasked);
    EXPECT_EQ(a.bins.completedReg, b.bins.completedReg);
    EXPECT_EQ(a.bins.archReg, b.bins.archReg);
    EXPECT_EQ(a.bins.renameUncovered, b.bins.renameUncovered);
    EXPECT_EQ(a.bins.noTrigger, b.bins.noTrigger);
    EXPECT_EQ(a.bins.other, b.bins.other);
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
    expectSameCounts(serial, pooled);
    expectSameBins(serial, pooled);
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

// Fork executors read complete entries while the producer keeps
// opening new ones, so open() may never move an existing entry.
TEST(GoldenLedger, EntriesStayPutAcrossOpens)
{
    isa::Program program = buildProgram("ocean", 2);
    pipeline::CoreParams params;
    pipeline::Core core(params, &program);
    fault::GoldenLedger ledger(core);
    core.setCommitObserver(&ledger);

    const std::vector<u64> targets(core.numThreads(), 100);
    const u32 first = ledger.open(targets);
    const fault::GoldenLedger::Entry *before = &ledger.entry(first);
    for (int i = 0; i < 1000; ++i)
        ledger.open(targets);
    EXPECT_EQ(&ledger.entry(first), before);
    EXPECT_EQ(ledger.entry(first).targets, targets);
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
