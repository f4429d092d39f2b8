/**
 * @file
 * Statistical campaign engine: Wilson interval closed forms, stratum
 * weights and draw/label consistency, the incremental architectural
 * digest invariant, vulnerability-profile attribution, journal meta
 * round-trips, and — the load-bearing property — adaptive (ciTarget)
 * campaigns stopping at the same wave with byte-identical profiles for
 * any worker-thread count, across a journal resume, and through the
 * distributed fabric, whose journal resumes in either user of the
 * campaign merge.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/spawner.hh"
#include "dist/spec.hh"
#include "dist/worker.hh"
#include "fabric_socket.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "fault/sampling.hh"
#include "isa/functional.hh"
#include "pipeline/core.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

/** Hand-evaluated Wilson score interval (the textbook formula). */
fault::WilsonInterval
wilsonReference(u64 successes, u64 n, double z)
{
    fault::WilsonInterval w;
    if (n == 0)
        return w;
    const double nn = static_cast<double>(n);
    const double p = static_cast<double>(successes) / nn;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    w.center = (p + z2 / (2.0 * nn)) / denom;
    w.halfWidth = z *
                  std::sqrt(p * (1.0 - p) / nn +
                            z2 / (4.0 * nn * nn)) /
                  denom;
    return w;
}

/** Trials a profile folded, over all strata. */
u64
trialsOf(const fault::VulnProfile &profile)
{
    u64 n = 0;
    for (const fault::StratumCounts &s : profile.strata)
        n += s.trials;
    return n;
}

} // namespace

TEST(Wilson, ClosedForm)
{
    // No observations: full prior width, so an unsampled stratum keeps
    // the pooled interval wide open.
    const fault::WilsonInterval empty = fault::wilson(0, 0);
    EXPECT_EQ(empty.halfWidth, 1.0);

    for (const auto &[k, n] : std::vector<std::pair<u64, u64>>{
             {0, 10}, {3, 10}, {5, 10}, {30, 100}, {999, 1000}}) {
        const fault::WilsonInterval got = fault::wilson(k, n);
        const fault::WilsonInterval want = wilsonReference(k, n, 1.96);
        EXPECT_NEAR(got.center, want.center, 1e-12) << k << "/" << n;
        EXPECT_NEAR(got.halfWidth, want.halfWidth, 1e-12)
            << k << "/" << n;
        // Symmetry: counting failures instead of successes mirrors
        // the interval around 1/2.
        const fault::WilsonInterval mirror = fault::wilson(n - k, n);
        EXPECT_NEAR(got.center + mirror.center, 1.0, 1e-12);
        EXPECT_NEAR(got.halfWidth, mirror.halfWidth, 1e-12);
    }

    // More evidence at the same rate always tightens the interval.
    double prev = fault::wilson(1, 4).halfWidth;
    for (u64 scale = 2; scale <= 64; scale *= 2) {
        const double hw = fault::wilson(scale, 4 * scale).halfWidth;
        EXPECT_LT(hw, prev) << "n=" << 4 * scale;
        prev = hw;
    }
}

TEST(StratumSpace, WeightsSumToOne)
{
    for (const fault::InjectionMix mix :
         {fault::InjectionMix{},
          fault::InjectionMix{0.6, 0.3, 0.1},
          fault::InjectionMix{0.0, 0.0, 1.0},
          fault::InjectionMix{0.0, 1.0, 0.5}}) {
        const fault::StratumSpace space(mix);
        double sum = 0.0;
        for (unsigned s = 0; s < fault::StratumSpace::kCount; ++s) {
            EXPECT_GE(space.weight(s), 0.0) << "stratum " << s;
            sum += space.weight(s);
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(StratumSpace, DrawLandsInItsStratum)
{
    workload::WorkloadSpec wspec;
    wspec.maxThreads = 2;
    wspec.footprintDivider = 64;
    isa::Program prog = workload::build("ocean", wspec);
    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();
    pipeline::Core core(params, &prog);
    while (core.committedTotal() < 2000 && !core.allHalted())
        core.tick();
    ASSERT_FALSE(core.allHalted());

    const fault::StratumSpace space{fault::InjectionMix{}};
    Rng rng(5);
    for (unsigned s = 0; s < fault::StratumSpace::kCount; ++s) {
        for (unsigned rep = 0; rep < 8; ++rep) {
            const fault::InjectionPlan plan = space.draw(core, s, rng);
            EXPECT_EQ(fault::StratumSpace::stratumOf(plan), s)
                << "stratum " << s << " rep " << rep << " target "
                << static_cast<int>(plan.target) << " bit "
                << plan.bit;
        }
    }

    // Fixed-count labeling covers every mix-drawn plan too.
    fault::InjectionMix mix;
    for (unsigned rep = 0; rep < 256; ++rep) {
        const fault::InjectionPlan plan =
            fault::drawPlan(core, mix, rng);
        EXPECT_LT(fault::StratumSpace::stratumOf(plan),
                  fault::StratumSpace::kCount);
    }
}

/**
 * The commit-time incremental digest must equal the bulk digest of the
 * drained architectural state on a fault-free core — that identity is
 * what lets GoldenLedger::matches compare digests instead of register
 * arrays, and what the early-termination soundness argument rests on.
 */
TEST(ArchDigest, IncrementalMatchesBulk)
{
    workload::WorkloadSpec wspec;
    wspec.maxThreads = 2;
    wspec.footprintDivider = 64;
    isa::Program prog = workload::build("ocean", wspec);
    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();
    pipeline::Core core(params, &prog);
    for (unsigned checkpoints = 0; checkpoints < 6; ++checkpoints) {
        u64 goal = core.committedTotal() + 500;
        while (core.committedTotal() < goal && !core.allHalted())
            core.tick();
        for (unsigned tid = 0; tid < core.numThreads(); ++tid)
            EXPECT_EQ(core.archDigest(tid),
                      isa::archStateDigest(core.archState(tid)))
                << "tid " << tid << " checkpoint " << checkpoints;
        if (core.allHalted())
            break;
    }
}

TEST(VulnProfile, AttributesSdcTrials)
{
    fault::CampaignResult delta;
    delta.injected = 1;
    delta.sdc = 1;
    delta.detected = 1;
    fault::TrialMeta meta;
    meta.stratum = 6;
    meta.structure = static_cast<u8>(fault::Target::RegFile);
    meta.bit = 17;
    meta.cycleBucket = 3;
    meta.pc = 0x1234;

    fault::VulnProfile p;
    p.addTrial(delta, meta);
    EXPECT_EQ(p.strata[6].trials, 1u);
    EXPECT_EQ(p.strata[6].sdc, 1u);
    EXPECT_EQ(p.strata[6].covered, 1u);
    EXPECT_EQ(p.sdcBits[0][17], 1u);
    EXPECT_EQ(p.sdcPcs.at(0x1234), 1u);
    EXPECT_EQ(p.sdcCycleBuckets[3], 1u);

    // Masked trials contribute trial counts but no SDC attribution.
    fault::CampaignResult maskedDelta;
    maskedDelta.injected = 1;
    maskedDelta.masked = 1;
    maskedDelta.skippedProvablyMasked = 1;
    fault::TrialMeta maskedMeta;
    maskedMeta.stratum = 2;
    maskedMeta.flags = fault::kMetaSkippedProvablyMasked;
    maskedMeta.pc = 0x9999;
    p.addTrial(maskedDelta, maskedMeta);
    EXPECT_EQ(p.strata[2].trials, 1u);
    EXPECT_EQ(p.strata[2].masked, 1u);
    EXPECT_EQ(p.strata[2].skippedProvablyMasked, 1u);
    EXPECT_EQ(p.sdcPcs.count(0x9999), 0u);
    EXPECT_EQ(trialsOf(p), 2u);
}

namespace
{

/** Small classification-diverse adaptive campaign over ocean. */
struct AdaptiveSetup
{
    isa::Program prog;
    pipeline::CoreParams params;
    fault::CampaignConfig cfg;
};

AdaptiveSetup
adaptiveSetup()
{
    workload::WorkloadSpec wspec;
    wspec.maxThreads = 2;
    wspec.footprintDivider = 64;
    AdaptiveSetup s{workload::build("ocean", wspec), {}, {}};
    s.params.detector = filters::DetectorParams::faultHound();
    s.cfg.injections = 400; // generous cap; the CI stop should fire
    s.cfg.window = 300;
    s.cfg.seed = 1234;
    s.cfg.ciTarget = 0.12;
    s.cfg.ciWave = 32;
    return s;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

/**
 * The adaptive stop is a pure function of the trial-order-merged
 * counter prefix at wave boundaries, so any worker-thread count must
 * stop at the same wave with the same counters and a byte-identical
 * profile — and a journal resume must land on the same stop.
 */
TEST(Adaptive, DeterministicAcrossThreadsAndResume)
{
    AdaptiveSetup s = adaptiveSetup();

    s.cfg.threads = 1;
    const fault::CampaignResult one =
        fault::runCampaign(s.params, &s.prog, s.cfg);
    ASSERT_TRUE(one.ciStopped)
        << "tune ciTarget: the adaptive stop never fired (injected="
        << one.injected << ")";
    EXPECT_FALSE(one.partial);
    EXPECT_LT(one.injected, s.cfg.injections);
    EXPECT_EQ(one.injected % s.cfg.ciWave, 0u);
    EXPECT_EQ(one.injected, trialsOf(one.profile));

    s.cfg.threads = 4;
    const fault::CampaignResult four =
        fault::runCampaign(s.params, &s.prog, s.cfg);
    EXPECT_EQ(four.injected, one.injected);
    EXPECT_EQ(four.ciStopped, one.ciStopped);
    EXPECT_EQ(four.masked, one.masked);
    EXPECT_EQ(four.noisy, one.noisy);
    EXPECT_EQ(four.sdc, one.sdc);
    EXPECT_EQ(four.recovered, one.recovered);
    EXPECT_EQ(four.detected, one.detected);
    EXPECT_EQ(four.uncovered, one.uncovered);
    EXPECT_EQ(four.profile, one.profile);

    // Journal round-trip: replaying the recorded trials reconstructs
    // the same profile and re-derives the same stop without running
    // a single new trial.
    const std::string journal = tempPath("fh_adaptive_journal.jsonl");
    s.cfg.threads = 2;
    s.cfg.journalPath = journal;
    const fault::CampaignResult live =
        fault::runCampaign(s.params, &s.prog, s.cfg);
    EXPECT_EQ(live.injected, one.injected);
    EXPECT_EQ(live.profile, one.profile);
    const fault::CampaignResult replay =
        fault::runCampaign(s.params, &s.prog, s.cfg);
    EXPECT_EQ(replay.replayedTrials, one.injected);
    EXPECT_EQ(replay.injected, one.injected);
    EXPECT_TRUE(replay.ciStopped);
    EXPECT_EQ(replay.profile, one.profile);
    std::remove(journal.c_str());
}

/**
 * The coordinator applies the same wave-boundary rule to the same
 * merged prefix, so a distributed adaptive campaign stops at the same
 * wave as a single process, with a byte-identical profile and journal
 * — even though workers may have speculatively executed trials past
 * the boundary by the time the stop is decided. Both users of the one
 * campaign merge then rerun over that finished journal: a second
 * coordinator and an in-process runCampaign each replay every trial
 * and report the same stop.
 */
TEST(Adaptive, DistributedMatchesSingleProcess)
{
    AdaptiveSetup s = adaptiveSetup();
    s.cfg.threads = 1;
    const std::string soloJournal = tempPath("fh_adaptive_solo.fhj");
    fault::CampaignConfig soloCfg = s.cfg;
    soloCfg.journalPath = soloJournal;
    const fault::CampaignResult solo =
        fault::runCampaign(s.params, &s.prog, soloCfg);
    ASSERT_TRUE(solo.ciStopped);

    dist::CampaignSpec spec;
    spec.bench = "ocean";
    spec.scheme = "faulthound";
    spec.coreThreads = 2;
    spec.workload.maxThreads = 2;
    spec.workload.footprintDivider = 64;
    spec.campaign = s.cfg;

    // A coordinator and two forked workers, merging into journal.
    const std::string journal = tempPath("fh_adaptive_dist.fhj");
    auto dispatch = [&](dist::DistStats &stats) {
        dist::CoordinatorOptions opts;
        opts.listen = test::fabricSocket("sampling");
        opts.workers = 2;
        dist::Coordinator coord(spec, opts);
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < 2; ++i) {
            const dist::Endpoint ep = coord.endpoint();
            pids.push_back(dist::spawnFn([ep] {
                dist::WorkerOptions w;
                w.endpoint = ep;
                w.jobs = 2;
                w.heartbeatMs = 50;
                return dist::runWorker(w);
            }));
        }
        fault::TrialJournal j(
            journal, spec.campaign,
            filters::to_string(spec.buildParams().detector.scheme));
        const fault::CampaignResult r = coord.run(&j);
        for (pid_t pid : pids)
            dist::reap(pid);
        stats = coord.stats();
        return r;
    };
    // A rerun over the finished journal: it replays every trial and
    // lands on the same stop without executing one.
    auto expectReplayed = [&](const fault::CampaignResult &r,
                              const char *who) {
        EXPECT_EQ(r.replayedTrials, solo.injected) << who;
        EXPECT_EQ(r.injected, solo.injected) << who;
        EXPECT_EQ(r.ciStopped, solo.ciStopped) << who;
        EXPECT_FALSE(r.partial) << who;
        EXPECT_EQ(r.profile, solo.profile) << who;
    };

    dist::DistStats stats;
    const fault::CampaignResult merged = dispatch(stats);
    EXPECT_TRUE(merged.ciStopped);
    EXPECT_FALSE(merged.partial);
    EXPECT_EQ(merged.injected, solo.injected);
    EXPECT_EQ(merged.masked, solo.masked);
    EXPECT_EQ(merged.noisy, solo.noisy);
    EXPECT_EQ(merged.sdc, solo.sdc);
    EXPECT_EQ(merged.recovered, solo.recovered);
    EXPECT_EQ(merged.detected, solo.detected);
    EXPECT_EQ(merged.uncovered, solo.uncovered);
    EXPECT_EQ(merged.profile, solo.profile);
    EXPECT_EQ(fileBytes(journal), fileBytes(soloJournal));

    expectReplayed(dispatch(stats), "coordinator");
    EXPECT_EQ(stats.rangesIssued, 0u);
    s.cfg.journalPath = journal;
    expectReplayed(fault::runCampaign(s.params, &s.prog, s.cfg),
                   "runCampaign");
    // Neither rerun appended a record.
    EXPECT_EQ(fileBytes(journal), fileBytes(soloJournal));
    std::remove(journal.c_str());
    std::remove(soloJournal.c_str());
}

/**
 * The coordinator may hear of a halt before its merged prefix reaches
 * the halt point, while a single process learns of it only when it
 * tries to produce the trial there — after the stop rule has seen the
 * prefix. The stop rule ignores the halt, so both orders stop at the
 * same wave with the same marker.
 */
TEST(CampaignMerge, HaltHeardFirstStopsAtTheSameWave)
{
    fault::CampaignConfig cfg;
    cfg.injections = 1000;
    cfg.ciWave = fault::StratumSpace::kCount;
    const u64 at = 3 * cfg.ciWave;
    auto meta = [](u64 t) {
        fault::TrialMeta m;
        m.stratum = static_cast<u32>(t % fault::StratumSpace::kCount);
        return m;
    };
    fault::CampaignResult masked;
    masked.injected = 1;
    masked.masked = 1;
    // One masked trial per stratum per wave: the pooled half-width
    // shrinks every wave, so a target equal to its value at `at`
    // fires there and at no earlier boundary.
    fault::VulnProfile profile;
    for (u64 t = 0; t < at; ++t)
        profile.addTrial(masked, meta(t));
    cfg.ciTarget = fault::pooledSdcHalfWidth(
        profile, fault::StratumSpace(cfg.mix));

    fault::CampaignMerge unaware(cfg, nullptr, nullptr);
    fault::CampaignMerge warned(cfg, nullptr, nullptr);
    warned.halt(at);
    for (u64 t = 0; t < at; ++t) {
        EXPECT_EQ(unaware.rangeEnd(), (t / cfg.ciWave + 1) * cfg.ciWave);
        unaware.add(t, masked, meta(t));
        warned.add(t, masked, meta(t));
    }
    for (const fault::CampaignMerge *m : {&unaware, &warned}) {
        EXPECT_EQ(m->next(), at);
        EXPECT_EQ(m->end(), at);
        const fault::CampaignResult r = m->result();
        EXPECT_TRUE(r.ciStopped);
        EXPECT_FALSE(r.partial);
        EXPECT_EQ(r.injected, at);
        EXPECT_EQ(r.profile, profile);
    }
}

/** ciTarget = 0 is the fixed-count legacy: no stop, full count, and
 *  the stratum labels are post-hoc only (schedule unchanged — pinned
 *  counts are guarded by test_campaign_pinned; here we check the cap
 *  and labeling side). */
TEST(Adaptive, ZeroTargetRunsFixedCount)
{
    AdaptiveSetup s = adaptiveSetup();
    s.cfg.ciTarget = 0.0;
    s.cfg.injections = 48;
    s.cfg.threads = 2;
    const fault::CampaignResult r =
        fault::runCampaign(s.params, &s.prog, s.cfg);
    EXPECT_FALSE(r.ciStopped);
    EXPECT_EQ(r.injected, 48u);
    EXPECT_EQ(trialsOf(r.profile), 48u);
}
