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
 */

#include <gtest/gtest.h>

#include <ostream>

#include "fault/campaign.hh"
#include "oracle_modes.hh"
#include "workload/workload.hh"

namespace
{

using namespace fh;
using test::OracleMode;

struct PinnedCase
{
    const char *label;
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
    isa::Program program = workload::build("ocean", spec);

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

        const fault::CampaignResult r =
            fault::runCampaign(params, &program, cfg);

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
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CampaignPinned,
    testing::Combine(testing::Values(
        PinnedCase{"faulthound", filters::DetectorParams::faultHound(),
                   1234, 48,
                   /*masked*/ 37, /*noisy*/ 3, /*sdc*/ 8,
                   /*recovered*/ 2, /*detected*/ 0, /*uncovered*/ 6,
                   /*covered*/ 2, /*slm*/ 0, /*creg*/ 4, /*areg*/ 1,
                   /*ren*/ 2, /*notrig*/ 0, /*other*/ 0},
        PinnedCase{"pbfs_biased", filters::DetectorParams::pbfsBiased(),
                   99, 32,
                   /*masked*/ 24, /*noisy*/ 6, /*sdc*/ 2,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 2,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 1, /*areg*/ 0,
                   /*ren*/ 1, /*notrig*/ 0, /*other*/ 0},
        PinnedCase{"pbfs_sticky", filters::DetectorParams::pbfsSticky(),
                   7, 32,
                   /*masked*/ 32, /*noisy*/ 0, /*sdc*/ 0,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 0,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 0, /*areg*/ 0,
                   /*ren*/ 0, /*notrig*/ 0, /*other*/ 0},
        PinnedCase{"unprotected", filters::DetectorParams::none(),
                   42, 32,
                   /*masked*/ 28, /*noisy*/ 2, /*sdc*/ 2,
                   /*recovered*/ 0, /*detected*/ 0, /*uncovered*/ 2,
                   /*covered*/ 0, /*slm*/ 0, /*creg*/ 0, /*areg*/ 0,
                   /*ren*/ 0, /*notrig*/ 0, /*other*/ 2}),
                     test::oracleModes()),
    test::oracleCaseName<PinnedCase>);

} // namespace
