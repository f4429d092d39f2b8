/**
 * @file
 * Pins the exact `CampaignResult` of fixed (seed, injections) pairs
 * against recorded counts. The campaign is specified to be a pure
 * function of the seed — trial plans come from per-trial counter
 * streams and the master advances deterministically — so ANY change
 * to these numbers means a semantic change to the simulated machine,
 * the filters, or the classifier, not a refactor. The perf work on
 * the filter kernels, snapshot copies and pipeline scans must keep
 * every count bit-identical; update these constants only with a
 * deliberate, explained behavior change.
 *
 * The counts below were recorded from the seed revision of the
 * campaign runtime (pre-bit-sliced filters, pre-COW snapshots). Every
 * case runs in each oracle mode (oracle_modes.hh): the per-cycle issue
 * scan and full-window bare forks must reproduce the same counts.
 *
 * Each case also pins its work per oracle mode: the five scheduler
 * counters and the sum of the trials' bare-fork exit cycles. They
 * were recorded (with the 429.mcf case, whose memory-bound master and
 * forks skip the most quiet cycles) on the commit before the
 * quiet-cycle skip, so they hold the skip to the cycle-exact machine
 * that ticking gives.
 */

#include <gtest/gtest.h>

#include <array>
#include <ostream>

#include "fault/campaign.hh"
#include "oracle_modes.hh"
#include "workload/workload.hh"

namespace
{

using namespace fh;
using test::OracleMode;

/** Recorded work of one oracle mode. */
struct WorkPin
{
    u64 wakeupHits;
    u64 overflowParks;
    u64 overflowRescans;
    u64 issueEvals;
    u64 issueCandidates;
    u64 exitCycles; ///< sum of TrialMeta::exitCycle over the trials
};

struct PinnedCase
{
    const char *label;
    const char *bench;
    filters::DetectorParams detector;
    u64 seed;
    u64 injections;
    // Recorded classification.
    u64 masked;
    u64 noisy;
    u64 sdc;
    u64 recovered;
    u64 detected;
    u64 uncovered;
    // Recorded Figure 11 bins.
    u64 covered;
    u64 secondLevelMasked;
    u64 completedReg;
    u64 archReg;
    u64 renameUncovered;
    u64 noTrigger;
    u64 other;
    // Recorded work, indexed by OracleMode (wake, scan, full_window).
    std::array<WorkPin, 3> work;
};

/** Name the case in gtest output instead of raw bytes. */
void
PrintTo(const PinnedCase &c, std::ostream *os)
{
    *os << c.label;
}

class CampaignPinned
    : public testing::TestWithParam<std::tuple<PinnedCase, OracleMode>>
{
};

TEST_P(CampaignPinned, ResultsMatchRecordedCounts)
{
    const auto &[c, mode] = GetParam();

    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    isa::Program program = workload::build(c.bench, spec);

    pipeline::CoreParams params;
    params.detector = c.detector;
    test::applyOracleMode(mode, params);

    fault::CampaignConfig cfg;
    cfg.injections = c.injections;
    cfg.window = 300;
    cfg.seed = c.seed;
    test::applyOracleMode(mode, cfg);

    // The recorded counts must hold for any worker-thread count: the
    // golden-ledger waves shard trials differently at 1 and 4 threads
    // but merge results in trial order.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        cfg.threads = threads;

        // runCampaign's loop (runLocal), with a sink that also sums
        // the trials' exit cycles.
        fault::CampaignSession session(params, &program, cfg);
        fault::CampaignMerge merge(cfg, nullptr, nullptr);
        u64 exit_cycles = 0;
        const fault::TrialSink sink =
            [&](u64 trial, const fault::CampaignResult &delta,
                const fault::TrialMeta &meta) {
                exit_cycles += meta.exitCycle;
                merge.add(trial, delta, meta);
            };
        while (merge.next() < merge.end()) {
            const fault::RangeOutcome out =
                session.runRange(merge.next(), merge.rangeEnd(), sink);
            merge.addProducerCost(out);
            ASSERT_FALSE(out.halted || out.stopped);
        }
        const fault::CampaignResult r = merge.result();

        EXPECT_EQ(r.injected, c.injections);
        EXPECT_EQ(r.masked, c.masked);
        EXPECT_EQ(r.noisy, c.noisy);
        EXPECT_EQ(r.sdc, c.sdc);
        EXPECT_EQ(r.recovered, c.recovered);
        EXPECT_EQ(r.detected, c.detected);
        EXPECT_EQ(r.uncovered, c.uncovered);
        EXPECT_EQ(r.bins.covered, c.covered);
        EXPECT_EQ(r.bins.secondLevelMasked, c.secondLevelMasked);
        EXPECT_EQ(r.bins.completedReg, c.completedReg);
        EXPECT_EQ(r.bins.archReg, c.archReg);
        EXPECT_EQ(r.bins.renameUncovered, c.renameUncovered);
        EXPECT_EQ(r.bins.noTrigger, c.noTrigger);
        EXPECT_EQ(r.bins.other, c.other);
        test::expectOracleModeTookEffect(mode, r);

        const WorkPin &w = c.work[static_cast<size_t>(mode)];
        EXPECT_EQ(r.sched.wakeupHits, w.wakeupHits);
        EXPECT_EQ(r.sched.overflowParks, w.overflowParks);
        EXPECT_EQ(r.sched.overflowRescans, w.overflowRescans);
        EXPECT_EQ(r.sched.issueEvals, w.issueEvals);
        EXPECT_EQ(r.sched.issueCandidates, w.issueCandidates);
        EXPECT_EQ(exit_cycles, w.exitCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CampaignPinned,
    testing::Combine(testing::Values(
        PinnedCase{"faulthound", "ocean",
                   filters::DetectorParams::faultHound(),
                   1234, 48,
                   /*masked*/ 37, /*noisy*/ 3, /*sdc*/ 8,
                   /*recovered*/ 2, /*detected*/ 0, /*uncovered*/ 6,
                   /*covered*/ 2, /*slm*/ 0, /*creg*/ 4, /*areg*/ 1,
                   /*ren*/ 2, /*notrig*/ 0, /*other*/ 0,
                   {{{75980, 9, 54, 23387, 149984, 871808},
                     {0, 0, 0, 23861, 149984, 871808},
                     {84429, 9, 54, 26535, 162830, 874957}}}},
        PinnedCase{"pbfs_biased", "ocean",
                   filters::DetectorParams::pbfsBiased(),
                   99, 32,
                   /*masked*/ 24, /*noisy*/ 6, /*sdc*/ 2,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 2,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 1, /*areg*/ 0,
                   /*ren*/ 1, /*notrig*/ 0, /*other*/ 0,
                   {{{35033, 0, 0, 16458, 47507, 753619},
                     {0, 0, 0, 17204, 47507, 753619},
                     {41600, 0, 0, 18985, 56846, 756146}}}},
        PinnedCase{"pbfs_sticky", "ocean",
                   filters::DetectorParams::pbfsSticky(),
                   7, 32,
                   /*masked*/ 32, /*noisy*/ 0, /*sdc*/ 0,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 0,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 0, /*areg*/ 0,
                   /*ren*/ 0, /*notrig*/ 0, /*other*/ 0,
                   {{{33480, 0, 0, 12667, 50754, 420502},
                     {0, 0, 0, 12667, 50754, 420502},
                     {43435, 0, 0, 16431, 65840, 424266}}}},
        PinnedCase{"unprotected", "ocean",
                   filters::DetectorParams::none(),
                   42, 32,
                   /*masked*/ 28, /*noisy*/ 2, /*sdc*/ 2,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 2,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 0, /*areg*/ 0,
                   /*ren*/ 0, /*notrig*/ 0, /*other*/ 2,
                   {{{33292, 0, 0, 12721, 50312, 405959},
                     {0, 0, 0, 12819, 50312, 405959},
                     {41988, 0, 0, 16012, 63461, 409250}}}},
        PinnedCase{"mcf", "429.mcf",
                   filters::DetectorParams::faultHound(),
                   5, 32,
                   /*masked*/ 29, /*noisy*/ 1, /*sdc*/ 2,
                   /*recovered*/ 1, /*detected*/ 0, /*uncovered*/ 1,
                   /*covered*/ 1, /*slm*/ 0, /*creg*/ 0, /*areg*/ 0,
                   /*ren*/ 1, /*notrig*/ 0, /*other*/ 0,
                   {{{8749, 0, 0, 52133, 13459, 1330892},
                     {0, 0, 0, 52137, 13459, 1330892},
                     {9592, 0, 0, 58404, 14650, 1337163}}}}),
                     test::oracleModes()),
    test::oracleCaseName<PinnedCase>);

} // namespace
