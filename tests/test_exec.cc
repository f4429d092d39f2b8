/**
 * @file
 * The exec runtime and its determinism contract: a loop covers every
 * index exactly once under concurrency, post() returns while the
 * workers run it, exceptions propagate through wait(), the progress
 * meter counts concurrent ticks, and — the property the whole
 * subsystem exists for — runCampaign produces bit-identical
 * CampaignResults no matter how many worker threads execute it. A
 * session's sink runs on runRange's calling thread in trial order, an
 * exception from it unwinds safely, and no thread starts per range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
    const u64 n = 10007;
    std::vector<std::atomic<unsigned>> hits(n);
    pool.parallelFor(n, [&](u64 i) { hits[i].fetch_add(1); });
    for (u64 i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, PostReturnsWhileABodyRuns)
{
    // The body spins until the poster sets a flag after post()
    // returns: a post() that ran or waited for the body would never
    // return.
    exec::ThreadPool pool(2);
    EXPECT_TRUE(pool.idle());
    std::atomic<bool> go{false};
    std::atomic<bool> ran{false};
    pool.post(1, [&](u64) {
        while (!go.load())
            std::this_thread::yield();
        ran.store(true);
    });
    EXPECT_FALSE(pool.idle());
    go.store(true);
    pool.wait();
    EXPECT_TRUE(pool.idle());
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorWaitsForAPostedLoop)
{
    std::atomic<unsigned> ran{0};
    {
        exec::ThreadPool pool(2);
        pool.post(8, [&](u64) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ran.fetch_add(1);
        });
    }
    EXPECT_EQ(ran.load(), 8u);
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
    EXPECT_GE(ran.load(), 1u);
    EXPECT_LE(ran.load(), 64u);
    // The failure is consumed: the pool runs the next loop whole.
    std::atomic<u64> next{0};
    pool.parallelFor(8, [&](u64) { next.fetch_add(1); });
    EXPECT_EQ(next.load(), 8u);
}

TEST(ThreadPool, SerialExceptionReportsSkipped)
{
    // One worker claims indices in order, so the failure at 3 abandons
    // exactly the six after it; wait() rethrows it.
    exec::ThreadPool pool(1);
    u64 ran = 0;
    pool.post(10, [&](u64 i) {
        ++ran;
        if (i == 3)
            throw std::runtime_error("boom");
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran, 4u);
    EXPECT_TRUE(pool.idle());
}

namespace
{

/** The worker indices that run a loop of pool.size() bodies, each of
 *  which waits until every worker holds one. */
std::vector<unsigned>
workerIndices(exec::ThreadPool &pool)
{
    std::latch all_in(pool.size());
    std::vector<unsigned> seen(pool.size());
    pool.parallelFor(pool.size(), [&](u64 k) {
        all_in.arrive_and_wait();
        seen[k] = exec::ThreadPool::currentWorker();
    });
    std::sort(seen.begin(), seen.end());
    return seen;
}

std::vector<unsigned>
upTo(unsigned n)
{
    std::vector<unsigned> v(n);
    std::iota(v.begin(), v.end(), 0u);
    return v;
}

} // namespace

TEST(ThreadPool, NestedPoolIndexesItsOwnWorkers)
{
    // Worker indices are 0..size()-1 whichever thread posts: this
    // (no pool's) thread, or a worker of another pool, which keeps
    // its own index while its inner pool runs.
    exec::ThreadPool outer(4);
    EXPECT_EQ(workerIndices(outer), upTo(4));
    std::vector<std::vector<unsigned>> inner_seen(4);
    std::atomic<unsigned> bad{0};
    std::latch all_in(4);
    outer.parallelFor(4, [&](u64 k) {
        all_in.arrive_and_wait();
        const unsigned mine = exec::ThreadPool::currentWorker();
        exec::ThreadPool inner(k % 3 + 1);
        inner_seen[k] = workerIndices(inner);
        if (inner_seen[k] != upTo(inner.size()) ||
            exec::ThreadPool::currentWorker() != mine)
            bad.fetch_add(1);
    });
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(exec::ThreadPool::currentWorker(), 0u);
}

TEST(ProgressMeter, CountsConcurrentTicks)
{
    exec::ProgressMeter meter("test", 5000, /*interval_ms=*/1u << 30);
    meter.start();
    exec::ThreadPool pool(4);
    pool.parallelFor(5000, [&](u64) { meter.tick(); });
    EXPECT_EQ(meter.done(), 5000u);
    EXPECT_EQ(meter.total(), 5000u);
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

TEST(CampaignParallel, RateClockStartsAtTheFirstExecutedTrial)
{
    // Warmup and the skip-advance over a resumed run's replayed prefix
    // come before the meter's rate clock: the session starts it when
    // it begins the first trial it executes, before any trial merges.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 12;
    cfg.window = 300;
    cfg.threads = 1;
    exec::ProgressMeter meter("campaign", cfg.injections,
                              /*interval_ms=*/1u << 30);
    cfg.progress = &meter;
    fault::CampaignSession session(fhParams(), &program, cfg);
    const fault::TrialSink ignore = [](u64, const fault::CampaignResult &,
                                       const fault::TrialMeta &) {};
    session.runRange(6, 6, ignore); // skip-advance only
    EXPECT_EQ(session.position(), 6u);
    EXPECT_EQ(meter.executingSeconds(), 0.0);
    session.runRange(6, 12, ignore);
    EXPECT_GT(meter.executingSeconds(), 0.0);
    EXPECT_EQ(meter.done(), 0u);
}

namespace
{

/** Session tests at one fork thread and at four. */
class SessionSink : public testing::TestWithParam<unsigned>
{
  protected:
    fault::CampaignConfig config() const
    {
        fault::CampaignConfig cfg;
        cfg.injections = 40;
        cfg.window = 300;
        cfg.seed = 9;
        cfg.threads = GetParam();
        return cfg;
    }
};

} // namespace

TEST_P(SessionSink, RunsOnTheCallerInTrialOrder)
{
    // The pool's forks overlap the master's advance, but merging
    // stays the caller's: each range's trials reach the sink exactly
    // once, in order, on this thread, before runRange returns. The
    // first range starts past a skip-advanced prefix and ends with a
    // drain on a scratch master; the second is the campaign's tail.
    auto program = prog();
    const fault::CampaignConfig cfg = config();
    fault::CampaignSession session(fhParams(), &program, cfg);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> returned{false};
    std::atomic<u64> offThread{0}, afterReturn{0};
    std::vector<u64> seen;
    const fault::TrialSink sink = [&](u64 trial,
                                      const fault::CampaignResult &,
                                      const fault::TrialMeta &) {
        if (std::this_thread::get_id() != caller)
            offThread.fetch_add(1);
        if (returned.load())
            afterReturn.fetch_add(1);
        seen.push_back(trial);
    };
    for (const auto &[begin, end] :
         {std::pair<u64, u64>{5, 17}, std::pair<u64, u64>{17, 40}}) {
        seen.clear();
        returned.store(false);
        const fault::RangeOutcome out = session.runRange(begin, end, sink);
        returned.store(true);
        EXPECT_EQ(out.nextTrial, end);
        std::vector<u64> want(end - begin);
        std::iota(want.begin(), want.end(), begin);
        EXPECT_EQ(seen, want) << "range [" << begin << ", " << end << ")";
    }
    EXPECT_EQ(offThread.load(), 0u);
    EXPECT_EQ(afterReturn.load(), 0u);
}

TEST_P(SessionSink, ThrowingSinkPropagatesAndLeavesNoThread)
{
    // A sink failure escapes runRange on the calling thread while a
    // wave may still run on the pool; destroying the session below
    // must let that wave finish before its trial slots go away.
    auto program = prog();
    const fault::CampaignConfig cfg = config();
    auto session =
        std::make_unique<fault::CampaignSession>(fhParams(), &program, cfg);
    u64 calls = 0;
    const fault::TrialSink sink = [&](u64 trial,
                                      const fault::CampaignResult &,
                                      const fault::TrialMeta &) {
        if (++calls == 10)
            throw std::runtime_error("sink failed at trial " +
                                     std::to_string(trial));
    };
    EXPECT_THROW(session->runRange(0, cfg.injections, sink),
                 std::runtime_error);
    EXPECT_EQ(calls, 10u);
    session.reset();
}

namespace
{

unsigned
taskCount()
{
    unsigned n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

} // namespace

TEST_P(SessionSink, StartsNoThreadPerRange)
{
    // The pool's workers start with the session; a range posts its
    // waves to them and starts no thread of its own.
    auto program = prog();
    const fault::CampaignConfig cfg = config();
    fault::CampaignSession session(fhParams(), &program, cfg);
    const unsigned built = taskCount();
    unsigned most = 0;
    const fault::TrialSink sink = [&](u64, const fault::CampaignResult &,
                                      const fault::TrialMeta &) {
        most = std::max(most, taskCount());
    };
    session.runRange(0, 20, sink);
    session.runRange(20, cfg.injections, sink);
    EXPECT_EQ(most, built);
}

INSTANTIATE_TEST_SUITE_P(ForkThreads, SessionSink,
                         testing::Values(1u, 4u),
                         [](const testing::TestParamInfo<unsigned> &p) {
                             return "threads" + std::to_string(p.param);
                         });
