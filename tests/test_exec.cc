/**
 * @file
 * The exec runtime and its determinism contract: a stream runs every
 * appended item exactly once under concurrency, its push() returns
 * while the workers run its items, a stream with no workers runs every
 * item on its owner, its owner runs the oldest unclaimed item on its
 * own thread (index size()) when the stream is full, items retire
 * exactly once and in order however the workers finish, and a failure
 * on any thread propagates to the owner; the progress meter counts
 * concurrent ticks; and — the property the whole subsystem exists for
 * — runCampaign produces bit-identical CampaignResults and journals no
 * matter how many worker threads execute it. A session's sink runs on
 * runRange's calling thread in trial order, an exception from it
 * unwinds safely, and no thread starts per range. The paper harnesses'
 * cell runner returns its cells' results in cell order, the same for
 * any `jobs`, starts no thread for one job, and passes a cell's
 * exception on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/harness.hh"
#include "campaign_compare.hh"
#include "exec/progress.hh"
#include "exec/stream.hh"
#include "fault/campaign.hh"
#include "workload/workload.hh"

using namespace fh;
using exec::Stream;
using fh::test::expectSameCampaign;

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

/** This process's threads. */
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

/** Drive a stream as a campaign's producer does: append `items` more,
 *  retire what is done, and while the stream is full or draining,
 *  help. Returns the items in retire order. */
std::vector<u64>
produce(Stream &stream, u64 items)
{
    std::vector<u64> retired;
    auto retireDone = [&] {
        for (u64 k = stream.retired(); stream.retire(); ++k)
            retired.push_back(k);
    };
    for (u64 k = 0; k < items; ++k) {
        retireDone();
        while (stream.full()) {
            stream.help();
            retireDone();
        }
        stream.push();
    }
    for (retireDone(); !stream.empty(); retireDone())
        stream.help();
    return retired;
}

/** Append n items and wait, without helping, until the workers have
 *  run and the owner retired them all. */
void
pushAndAwait(Stream &stream, u64 n)
{
    for (u64 k = 0; k < n; ++k)
        stream.push();
    while (!stream.empty())
        if (!stream.retire())
            std::this_thread::yield();
}

std::vector<u64>
iota64(u64 n)
{
    std::vector<u64> v(n);
    std::iota(v.begin(), v.end(), u64{0});
    return v;
}

} // namespace

TEST(Stream, HardwareThreadsNeverZero)
{
    EXPECT_GE(exec::hardwareThreads(), 1u);
}

TEST(Stream, RunsEveryItemExactlyOnce)
{
    constexpr u64 kItems = 10007;
    std::vector<std::atomic<unsigned>> hits(kItems);
    Stream stream(4, 64, [&](u64 k, unsigned) { hits[k].fetch_add(1); });
    EXPECT_EQ(produce(stream, kItems), iota64(kItems));
    for (u64 k = 0; k < kItems; ++k)
        ASSERT_EQ(hits[k].load(), 1u) << "item " << k;
}

TEST(Stream, ZeroWorkersRunEveryItemOnTheOwner)
{
    // No thread starts: every item runs on the owner, in item order,
    // as worker size() = 0. A stream that gets no item runs nothing.
    const unsigned before = taskCount();
    { Stream idle(0, 1, [](u64, unsigned) { FAIL() << "ran an item"; }); }
    std::vector<u64> order;
    std::vector<unsigned> workers;
    u64 offOwner = 0;
    unsigned most = 0;
    const std::thread::id owner = std::this_thread::get_id();
    Stream stream(0, 8, [&](u64 k, unsigned worker) {
        order.push_back(k);
        workers.push_back(worker);
        offOwner += std::this_thread::get_id() != owner;
        most = std::max(most, taskCount());
    });
    EXPECT_EQ(stream.size(), 0u);
    EXPECT_EQ(produce(stream, 100), iota64(100));
    EXPECT_EQ(order, iota64(100));
    EXPECT_EQ(workers, std::vector<unsigned>(100, 0u));
    EXPECT_EQ(offOwner, 0u);
    EXPECT_EQ(most, before);
}

TEST(Stream, FailureAbandonsUnclaimedItems)
{
    // With no workers the owner runs items in order, so the failure at
    // 3 leaves the six after it unclaimed; help() rethrows it, and the
    // destructor runs none of them.
    u64 ran = 0;
    {
        Stream stream(0, 10, [&](u64 k, unsigned) {
            ++ran;
            if (k == 3)
                throw std::runtime_error("boom");
        });
        for (int k = 0; k < 10; ++k)
            stream.push();
        EXPECT_THROW(
            {
                while (!stream.empty())
                    if (!stream.retire())
                        stream.help();
            },
            std::runtime_error);
    }
    EXPECT_EQ(ran, 4u);
}

TEST(Stream, PushReturnsWhileABodyRuns)
{
    // The body spins until the owner sets a flag after push()
    // returns: a push() that ran or waited for the body would never
    // return, and the item cannot retire before the flag is set.
    std::atomic<bool> go{false};
    std::atomic<bool> ran{false};
    Stream stream(2, 4, [&](u64, unsigned) {
        while (!go.load())
            std::this_thread::yield();
        ran.store(true);
    });
    EXPECT_TRUE(stream.empty());
    stream.push();
    EXPECT_FALSE(stream.empty());
    EXPECT_FALSE(stream.retire());
    go.store(true);
    EXPECT_EQ(produce(stream, 0), std::vector<u64>{0});
    EXPECT_TRUE(stream.empty());
    EXPECT_TRUE(ran.load());
}

TEST(Stream, FullStreamOwnerRunsTheOldestUnclaimedItem)
{
    // The only worker holds item 0, so an owner that has produced past
    // the budget runs the oldest unclaimed item, item 1, itself: on
    // the calling thread, as worker size(). Nothing retires before
    // item 0 does.
    std::latch held(1), release(1);
    std::vector<unsigned> worker(3, ~0u);
    std::vector<std::thread::id> thread(3);
    Stream stream(1, 3, [&](u64 k, unsigned w) {
        worker[k] = w;
        thread[k] = std::this_thread::get_id();
        if (k == 0) {
            held.count_down();
            release.wait();
        }
    });
    stream.push();
    held.wait();
    stream.push();
    stream.push();
    ASSERT_TRUE(stream.full());
    stream.help();
    EXPECT_EQ(worker[1], stream.size());
    EXPECT_EQ(thread[1], std::this_thread::get_id());
    EXPECT_FALSE(stream.retire());
    stream.help();
    EXPECT_EQ(worker[2], stream.size());
    EXPECT_FALSE(stream.retire());
    release.count_down();
    EXPECT_EQ(produce(stream, 0), iota64(3));
    EXPECT_EQ(worker[0], 0u);
    EXPECT_NE(thread[0], std::this_thread::get_id());
}

TEST(Stream, RetiresInOrderWhenWorkersFinishOutOfOrder)
{
    // Item 0 finishes only after item 1 has, and the others take
    // uneven times; every item still runs once and retires once, in
    // item order, whether a worker or the owner ran it.
    constexpr u64 kItems = 200;
    std::vector<std::atomic<unsigned>> runs(kItems);
    std::latch oneDone(1);
    std::atomic<bool> zeroAfterOne{false};
    Stream stream(4, 8, [&](u64 k, unsigned) {
        if (k == 0) {
            oneDone.wait();
            zeroAfterOne.store(runs[1].load() == 1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(k * 37 % 300));
        runs[k].fetch_add(1);
        if (k == 1)
            oneDone.count_down();
    });
    EXPECT_EQ(produce(stream, kItems), iota64(kItems));
    EXPECT_TRUE(zeroAfterOne.load());
    for (u64 k = 0; k < kItems; ++k)
        EXPECT_EQ(runs[k].load(), 1u) << "item " << k;
}

TEST(Stream, WorkerFailureReachesTheOwner)
{
    // A body that throws on a worker: the owner's next retire() or
    // help() rethrows it, and no worker claims an item after it.
    std::latch claimed(1);
    std::atomic<unsigned> ran{0};
    {
        Stream stream(1, 4, [&](u64, unsigned) {
            ran.fetch_add(1);
            claimed.count_down();
            throw std::runtime_error("worker failed");
        });
        stream.push();
        claimed.wait();
        EXPECT_THROW(
            {
                while (!stream.retire())
                    stream.help();
            },
            std::runtime_error);
        stream.push();
        EXPECT_THROW(stream.help(), std::runtime_error);
    }
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Stream, OwnerFailurePropagatesAndRunningItemsFinish)
{
    // A body that throws on the owner propagates out of help() at
    // once. Destroying the stream then waits for the item a worker is
    // still running.
    std::latch held(1);
    std::atomic<bool> finished{false};
    {
        Stream stream(1, 2, [&](u64 k, unsigned) {
            if (k == 1)
                throw std::runtime_error("owner failed");
            held.count_down();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            finished.store(true);
        });
        stream.push();
        held.wait();
        stream.push();
        EXPECT_THROW(stream.help(), std::runtime_error);
    }
    EXPECT_TRUE(finished.load());
}

TEST(Stream, DestructorLetsAppendedItemsFinish)
{
    // With workers and without: the destructor runs what no worker
    // claimed on the owner.
    for (const unsigned workers : {0u, 2u}) {
        std::atomic<unsigned> ran{0};
        {
            Stream stream(workers, 8, [&](u64, unsigned) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                ran.fetch_add(1);
            });
            for (int i = 0; i < 8; ++i)
                stream.push();
        }
        EXPECT_EQ(ran.load(), 8u) << workers << " workers";
    }
}

namespace
{

/** The worker indices that run size() items, each of which waits
 *  until every worker holds one. */
std::vector<unsigned>
workerIndices(unsigned workers)
{
    std::latch all_in(workers);
    std::vector<unsigned> seen(workers);
    Stream stream(workers, workers, [&](u64 k, unsigned worker) {
        all_in.arrive_and_wait();
        seen[k] = worker;
    });
    pushAndAwait(stream, workers);
    std::sort(seen.begin(), seen.end());
    return seen;
}

/** The index a stream gives an item its owner runs: every worker
 *  holds an item while the owner runs the next. */
unsigned
ownerIndex(unsigned workers)
{
    std::latch held(workers), release(1);
    unsigned seen = ~0u;
    Stream stream(workers, workers + 1, [&](u64 k, unsigned worker) {
        if (k < workers) {
            held.count_down();
            release.wait();
        } else {
            seen = worker;
        }
    });
    for (unsigned k = 0; k < workers; ++k)
        stream.push();
    held.wait();
    stream.push();
    stream.help();
    release.count_down();
    produce(stream, 0);
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

TEST(Stream, NestedStreamIndexesItsOwnWorkers)
{
    // Worker indices are 0..size()-1, and a stream's owner runs its
    // items as size(), whichever thread built it: this (no stream's)
    // thread, or a worker of another stream — a campaign's producer
    // in a paper harness cell — whose inner stream's owner index is
    // the inner size(), not its own outer index.
    EXPECT_EQ(workerIndices(4), upTo(4));
    EXPECT_EQ(ownerIndex(4), 4u);
    std::vector<unsigned> outer_seen(4);
    std::atomic<unsigned> bad{0};
    std::latch all_in(4);
    Stream outer(4, 4, [&](u64 k, unsigned mine) {
        all_in.arrive_and_wait();
        outer_seen[k] = mine;
        const unsigned inner = k % 3 + 1;
        if (workerIndices(inner) != upTo(inner) ||
            ownerIndex(inner) != inner)
            bad.fetch_add(1);
    });
    pushAndAwait(outer, 4);
    EXPECT_EQ(bad.load(), 0u);
    std::sort(outer_seen.begin(), outer_seen.end());
    EXPECT_EQ(outer_seen, upTo(4));
}

TEST(ProgressMeter, CountsConcurrentTicks)
{
    exec::ProgressMeter meter("test", 5000, /*interval_ms=*/1u << 30);
    meter.start();
    Stream stream(4, 64, [&](u64, unsigned) { meter.tick(); });
    produce(stream, 5000);
    EXPECT_EQ(meter.done(), 5000u);
    EXPECT_EQ(meter.total(), 5000u);
}

namespace
{

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One input of the thread-count identity check. */
struct IdentityCase
{
    const char *bench;
    u64 injections;
    u64 window;
    u64 seed;
    bool journal;
};

} // namespace

TEST(CampaignParallel, BitIdenticalFor1And4Threads)
{
    // Small ocean windows, where production often keeps up with the
    // forks, and 429.mcf with the journal on: its master advances
    // cheaply beside 3000-instruction windows, so the stream fills and
    // the producer runs most forks itself at one and two fork threads
    // (27 and 25 of the 40 on a 4-vCPU host). The classification,
    // bins, profile and journal bytes must not depend on the thread
    // count.
    for (const IdentityCase &c :
         {IdentityCase{"ocean", 24, 300, 77, false},
          IdentityCase{"429.mcf", 40, 3000, 3, true}}) {
        SCOPED_TRACE(c.bench);
        const isa::Program program = prog(c.bench);
        fault::CampaignConfig cfg;
        cfg.injections = c.injections;
        cfg.window = c.window;
        cfg.seed = c.seed;
        const std::string journal =
            testing::TempDir() + "identity_" + c.bench + ".fhj";
        std::optional<fault::CampaignResult> serial;
        std::string serialJournal;
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;
            std::remove(journal.c_str());
            cfg.journalPath = c.journal ? journal : "";
            const fault::CampaignResult r =
                fault::runCampaign(fhParams(), &program, cfg);
            EXPECT_EQ(r.injected, c.injections);
            const std::string bytes = c.journal ? fileBytes(journal) : "";
            std::remove(journal.c_str());
            if (!serial) {
                serial = r;
                serialJournal = bytes;
                EXPECT_EQ(bytes.empty(), !c.journal);
                continue;
            }
            expectSameCampaign(*serial, r);
            EXPECT_EQ(serialJournal, bytes);
        }
    }
}

TEST(CampaignParallel, NestedInOuterStreamWorkerMatchesSerial)
{
    // The paper harnesses split threads between scheme cells (outer
    // stream) and each cell's campaign (its session's stream); a
    // campaign on any outer worker, at any inner size, must equal the
    // serial run.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 16;
    cfg.window = 300;
    cfg.seed = 31;
    cfg.threads = 1;
    const auto serial = fault::runCampaign(fhParams(), &program, cfg);

    std::latch all_in(4);
    std::vector<fault::CampaignResult> nested(4);
    Stream outer(4, 4, [&](u64 k, unsigned) {
        all_in.arrive_and_wait();
        fault::CampaignConfig inner = cfg;
        inner.threads = k % 2 ? 2 : 1;
        nested[k] = fault::runCampaign(fhParams(), &program, inner);
    });
    pushAndAwait(outer, 4);
    for (const fault::CampaignResult &r : nested)
        expectSameCampaign(serial, r);
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
    expectSameCampaign(serial, parallel);
}

TEST(CampaignParallel, DefaultForkThreadsLeaveOneForTheProducer)
{
    // The producer runs trials too, so 0 asks for one fork thread
    // fewer than the host has hardware threads, and never none.
    const unsigned hw = exec::hardwareThreads();
    EXPECT_EQ(fault::resolveForkThreads(0), std::max(1u, hw - 1));
    for (unsigned n : {1u, 3u, 4u, 64u})
        EXPECT_EQ(fault::resolveForkThreads(n), n);
}

TEST(CampaignParallel, AllHardwareThreadsMatchSerial)
{
    // threads = 0 sizes the stream from the host (one fork thread per
    // hardware thread but the producer's; fault::resolveForkThreads),
    // the default fhsim runs with; the campaign must
    // agree with the serial reference whatever that size turns out to
    // be.
    auto program = prog();
    fault::CampaignConfig cfg;
    cfg.injections = 16;
    cfg.window = 300;
    cfg.seed = 123;

    cfg.threads = 1;
    auto serial = fault::runCampaign(fhParams(), &program, cfg);
    cfg.threads = 0;
    auto parallel = fault::runCampaign(fhParams(), &program, cfg);
    expectSameCampaign(serial, parallel);
}

TEST(HarnessRunner, ReturnsResultsInCellOrder)
{
    // Cell 0 finishes last of the first four: it waits for cells 1-3,
    // which run on the other workers.
    bench::Options opts;
    opts.jobs = 4;
    std::latch later_cells(3);
    const auto out = bench::runCells(
        opts, 37, [&](u64 i, const fault::CampaignConfig &) {
            if (i == 0)
                later_cells.wait();
            else if (i <= 3)
                later_cells.count_down();
            return i * i;
        });
    ASSERT_EQ(out.size(), 37u);
    for (u64 i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(HarnessRunner, SplitsJobsBetweenCellsAndForks)
{
    // min(cells, jobs) cells at once, max(1, jobs / that) fork threads
    // for each cell's campaign.
    bench::Options opts;
    const auto forkThreads = [&](unsigned jobs, u64 cells) {
        opts.jobs = jobs;
        return bench::runCells(opts, cells,
                               [](u64, const fault::CampaignConfig &cfg) {
                                   return cfg.threads;
                               })
            .front();
    };
    EXPECT_EQ(forkThreads(1, 14), 1u);
    EXPECT_EQ(forkThreads(4, 14), 1u);
    EXPECT_EQ(forkThreads(8, 3), 2u);
    EXPECT_EQ(forkThreads(8, 1), 8u);
    EXPECT_EQ(forkThreads(0, 1), exec::hardwareThreads());
}

TEST(HarnessRunner, CampaignCellsAreIdenticalAt1And4Jobs)
{
    auto program = prog();
    bench::Options opts;
    opts.campaign.injections = 12;
    opts.campaign.window = 300;
    const auto run = [&](unsigned jobs) {
        opts.jobs = jobs;
        return bench::runCells(
            opts, 3, [&](u64 i, const fault::CampaignConfig &cfg) {
                fault::CampaignConfig cell = cfg;
                cell.seed = 40 + i;
                return fault::runCampaign(fhParams(), &program, cell);
            });
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    ASSERT_EQ(parallel.size(), 3u);
    for (u64 i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(serial[i].injected, 12u);
        expectSameCampaign(serial[i], parallel[i]);
    }
}

TEST(HarnessRunner, OneJobStartsNoThread)
{
    // One job, or one cell, streams every cell on the caller.
    bench::Options opts;
    const unsigned before = taskCount();
    const std::thread::id caller = std::this_thread::get_id();
    const auto onCaller = [&](unsigned jobs, u64 cells) {
        opts.jobs = jobs;
        const auto out = bench::runCells(
            opts, cells, [&](u64, const fault::CampaignConfig &) {
                return int{std::this_thread::get_id() == caller &&
                           taskCount() == before};
            });
        return std::all_of(out.begin(), out.end(),
                           [](int ok) { return ok == 1; });
    };
    EXPECT_TRUE(onCaller(1, 6));
    EXPECT_TRUE(onCaller(4, 1));
}

TEST(HarnessRunner, ACellsExceptionReachesTheCaller)
{
    bench::Options opts;
    opts.jobs = 4;
    EXPECT_THROW(bench::runCells(opts, 8,
                                 [](u64 i, const fault::CampaignConfig &) {
                                     if (i == 5)
                                         throw std::runtime_error("cell 5");
                                     return i;
                                 }),
                 std::runtime_error);
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
    // The stream's forks overlap the master's advance, but merging
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
    // A sink failure escapes runRange on the calling thread while
    // trials may still run on the stream's workers; destroying the
    // session below must let them finish before their trials go
    // away.
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

TEST_P(SessionSink, StartsNoThreadPerRange)
{
    // The stream's workers start with the session; a range appends its
    // trials to them and starts no thread of its own.
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
