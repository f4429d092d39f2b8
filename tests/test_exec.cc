/**
 * @file
 * The exec runtime and its determinism contract: parallelFor covers
 * every index exactly once under concurrency, exceptions propagate,
 * the progress meter counts concurrent ticks, and — the property the
 * whole subsystem exists for — runCampaign produces bit-identical
 * CampaignResults no matter how many worker threads execute it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/progress.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

isa::Program
prog(const std::string &name = "ocean")
{
    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    return workload::build(name, spec);
}

pipeline::CoreParams
fhParams()
{
    pipeline::CoreParams p;
    p.detector = filters::DetectorParams::faultHound();
    return p;
}

void
expectIdentical(const fault::CampaignResult &a,
                const fault::CampaignResult &b)
{
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.noisy, b.noisy);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.uncovered, b.uncovered);
    EXPECT_EQ(a.bins.covered, b.bins.covered);
    EXPECT_EQ(a.bins.secondLevelMasked, b.bins.secondLevelMasked);
    EXPECT_EQ(a.bins.completedReg, b.bins.completedReg);
    EXPECT_EQ(a.bins.archReg, b.bins.archReg);
    EXPECT_EQ(a.bins.renameUncovered, b.bins.renameUncovered);
    EXPECT_EQ(a.bins.noTrigger, b.bins.noTrigger);
    EXPECT_EQ(a.bins.other, b.bins.other);
    EXPECT_EQ(a.trialErrors, b.trialErrors);
    EXPECT_EQ(a.hungBare, b.hungBare);
    EXPECT_EQ(a.hungProtected, b.hungProtected);
    EXPECT_EQ(a.partial, b.partial);
}

} // namespace

TEST(ThreadPool, ResolveThreadsNeverZero)
{
    EXPECT_GE(exec::hardwareThreads(), 1u);
    EXPECT_GE(exec::resolveThreads(0), 1u);
    EXPECT_EQ(exec::resolveThreads(3), 3u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    const u64 n = 10007; // prime, so no grain divides it evenly
    std::vector<std::atomic<unsigned>> hits(n);
    for (u64 grain : {u64{1}, u64{3}, u64{64}, u64{20000}}) {
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(n, grain, [&](u64 i) { hits[i].fetch_add(1); });
        for (u64 i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " grain " << grain;
    }
}

TEST(ThreadPool, ReusableAcrossManySmallLoops)
{
    exec::ThreadPool pool(3);
    std::atomic<u64> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(10, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 50u * 55u);
}

TEST(ThreadPool, EmptyAndSingletonLoops)
{
    exec::ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](u64) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](u64 i) { calls += static_cast<int>(i) + 1; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleThreadRunsInOrder)
{
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<u64> order;
    pool.parallelFor(100, [&](u64 i) { order.push_back(i); });
    std::vector<u64> want(100);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    exec::ThreadPool pool(4);
    std::atomic<u64> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](u64 i) {
                                      ran.fetch_add(1);
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // Once the failure is latched, the remaining chunks are skipped —
    // not silently counted as done — and every index is accounted for
    // as either executed (including the one that threw) or skipped.
    EXPECT_GE(ran.load(), 1u);
    EXPECT_LE(ran.load(), 64u);
    EXPECT_EQ(ran.load() + pool.lastSkipped(), 64u);
    // A clean loop resets the skip accounting.
    pool.parallelFor(8, [](u64) {});
    EXPECT_EQ(pool.lastSkipped(), 0u);
}

TEST(ThreadPool, SerialExceptionReportsSkipped)
{
    exec::ThreadPool pool(1);
    u64 ran = 0;
    EXPECT_THROW(pool.parallelFor(10,
                                  [&](u64 i) {
                                      ++ran;
                                      if (i == 3)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(ran, 4u);
    EXPECT_EQ(pool.lastSkipped(), 6u);
}

TEST(ThreadPool, OneShotHelper)
{
    std::atomic<u64> sum{0};
    exec::parallelFor(4, 1000, [&](u64 i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 999u * 1000u / 2);
}

TEST(ThreadPool, NestedPoolIndexesItsCallerAsZero)
{
    // Each outer index waits until all four outer threads hold one, so
    // outer workers 1..3 — not just the caller — run the inner pools.
    exec::ThreadPool outer(4);
    std::latch all_in(4);
    std::vector<unsigned> outer_index(4);
    std::atomic<unsigned> bad{0};
    outer.parallelFor(4, [&](u64 k) {
        all_in.arrive_and_wait();
        const unsigned mine = exec::ThreadPool::currentWorker();
        outer_index[k] = mine;
        for (unsigned inner_size : {1u, 2u}) {
            exec::ThreadPool inner(inner_size);
            inner.parallelFor(16, [&](u64) {
                if (exec::ThreadPool::currentWorker() >= inner_size)
                    bad.fetch_add(1);
            });
            if (exec::ThreadPool::currentWorker() != mine)
                bad.fetch_add(1);
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    std::sort(outer_index.begin(), outer_index.end());
    EXPECT_EQ(outer_index, (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(exec::ThreadPool::currentWorker(), 0u);
}

TEST(ProgressMeter, CountsConcurrentTicks)
{
    exec::ProgressMeter meter("test", 5000, /*interval_ms=*/1u << 30);
    exec::ThreadPool pool(4);
    pool.parallelFor(5000, [&](u64) { meter.tick(); });
    EXPECT_EQ(meter.done(), 5000u);
    EXPECT_EQ(meter.total(), 5000u);
    meter.finish();
}

TEST(CampaignParallel, BitIdenticalFor1And4Threads)
{
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 24;
    cfg.window = 300;
    cfg.seed = 77;

    cfg.threads = 1;
    auto serial = fault::runCampaign(fhParams(), &program, cfg);
    EXPECT_EQ(serial.injected, 24u);

    cfg.threads = 4;
    auto parallel = fault::runCampaign(fhParams(), &program, cfg);
    expectIdentical(serial, parallel);
}

TEST(CampaignParallel, NestedInOuterPoolWorkerMatchesSerial)
{
    // The paper harnesses split threads between scheme cells (outer
    // pool) and each cell's campaign (inner pool); a campaign on any
    // outer worker, at any inner size, must equal the serial run.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 16;
    cfg.window = 300;
    cfg.seed = 31;
    cfg.threads = 1;
    const auto serial = fault::runCampaign(fhParams(), &program, cfg);

    exec::ThreadPool outer(4);
    std::latch all_in(4);
    std::vector<fault::CampaignResult> nested(4);
    outer.parallelFor(4, [&](u64 k) {
        all_in.arrive_and_wait();
        fault::CampaignConfig inner = cfg;
        inner.threads = k % 2 ? 2 : 1;
        nested[k] = fault::runCampaign(fhParams(), &program, inner);
    });
    for (const fault::CampaignResult &r : nested)
        expectIdentical(serial, r);
}

TEST(CampaignParallel, BitIdenticalWithoutDetector)
{
    // The scheme=None early-out path shards identically too.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 16;
    cfg.window = 300;
    cfg.seed = 5;
    pipeline::CoreParams p;
    p.detector = filters::DetectorParams::none();

    cfg.threads = 1;
    auto serial = fault::runCampaign(p, &program, cfg);
    cfg.threads = 3;
    auto parallel = fault::runCampaign(p, &program, cfg);
    expectIdentical(serial, parallel);
}

TEST(CampaignParallel, AllHardwareThreadsMatchSerial)
{
    // threads = 0 sizes the pool from the host, the default fhsim and
    // the harnesses run with; the campaign must agree with the serial
    // reference whatever that size turns out to be.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 16;
    cfg.window = 300;
    cfg.seed = 123;

    cfg.threads = 1;
    auto serial = fault::runCampaign(fhParams(), &program, cfg);
    cfg.threads = 0;
    auto parallel = fault::runCampaign(fhParams(), &program, cfg);
    expectIdentical(serial, parallel);
}

TEST(CampaignParallel, ProgressTicksOncePerTrial)
{
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 12;
    cfg.window = 300;
    cfg.threads = 4;
    exec::ProgressMeter meter("campaign", cfg.injections,
                              /*interval_ms=*/1u << 30);
    cfg.progress = &meter;
    auto r = fault::runCampaign(fhParams(), &program, cfg);
    EXPECT_EQ(meter.done(), r.injected);
}
