/**
 * @file
 * Chaos hardening for the distributed fabric, oracle-checked against
 * its bit-identity guarantee: under ANY seeded network-fault schedule
 * (frame drops, truncations, bit flips, duplications, delays, connection
 * resets; tests/chaos_interposer.hh), after a coordinator SIGKILL +
 * restart, and with a fully dead fleet, a dispatched campaign's
 * counters, profile, and journal BYTES must equal the clean
 * single-process run. Also covers record-level journal corruption
 * (every single-bit flip either heals as a torn tail or refuses with
 * a precise error — never silently continues), and ChildGuard's
 * no-orphans promise on the fh_fatal / abort death paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign_compare.hh"
#include "chaos_interposer.hh"
#include "dist/coordinator.hh"
#include "dist/messages.hh"
#include "dist/spawner.hh"
#include "dist/spec.hh"
#include "dist/worker.hh"
#include "exec/progress.hh"
#include "fabric_campaign.hh"
#include "fabric_socket.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "workload/workload.hh"

using namespace fh;
using fh::test::expectSameCampaign;
using fh::test::fabricSocket;
using fh::test::fileBytes;
using fh::test::singleProcess;
using fh::test::tempPath;
using fh::test::testSpec;

namespace
{

std::string
schemeName(const dist::CampaignSpec &spec)
{
    return filters::to_string(spec.buildParams().detector.scheme);
}

/** A worker tuned for a hostile wire: fast heartbeats and fast stall
 *  detection. It inherits the storm's send hook and re-arms it under
 *  a seed of its own, so the fleet's workers do not all fail on the
 *  same frame ordinal. It sleeps delayMs before dialing. */
pid_t
spawnChaosWorker(const dist::Endpoint &ep,
                 const dist::chaos::Schedule &storm, unsigned index,
                 unsigned delayMs)
{
    return dist::spawnFn([ep, storm, index, delayMs] {
        if (delayMs)
            ::usleep(delayMs * 1000);
        dist::chaos::Schedule own = storm;
        own.seed ^= u64{index + 1} << 32;
        dist::chaos::arm(own);
        dist::WorkerOptions opts;
        opts.endpoint = ep;
        opts.jobs = 1;
        opts.heartbeatMs = 100;
        opts.stallTimeoutMs = 500;
        return dist::runWorker(opts);
    });
}

pid_t
spawnRealWorker(const dist::Endpoint &ep, unsigned delayMs = 0)
{
    return dist::spawnFn([ep, delayMs] {
        if (delayMs)
            ::usleep(delayMs * 1000);
        dist::WorkerOptions opts;
        opts.endpoint = ep;
        opts.jobs = 1;
        opts.heartbeatMs = 50;
        return dist::runWorker(opts);
    });
}

/** Non-blocking reap: true if the child has exited (status filled). */
bool
reapIfExited(pid_t pid, int &status)
{
    return ::waitpid(pid, &status, WNOHANG) == pid;
}

// ---------------------------------------------------------------------
// Chaos schedules: the oracle is bit-identity with the clean run.
// ---------------------------------------------------------------------

TEST(Chaos, AnyScheduleYieldsBitIdenticalResults)
{
    const dist::CampaignSpec spec = testSpec();
    const std::string refJournal = tempPath("chaos_ref.fhj");
    const fault::CampaignResult ref = singleProcess(spec, refJournal);
    ASSERT_GT(ref.injected, 0u);
    const std::string refBytes = fileBytes(refJournal);

    // Four very different storms: CRC-caught corruption, connection
    // churn, vanished/torn frames, and a mild mix of all six.
    const dist::chaos::Schedule schedules[] = {
        {.seed = 101, .flipPm = 60, .dupPm = 60},
        {.seed = 202, .delayPm = 20, .resetPm = 40},
        {.seed = 303, .dropPm = 25, .truncPm = 25},
        {.seed = 404,
         .dropPm = 2,
         .truncPm = 2,
         .flipPm = 4,
         .dupPm = 4,
         .delayPm = 8,
         .resetPm = 2},
    };
    // A disrupted worker exits and nothing replaces it, so the fleet
    // is two workers up front plus late joiners, one every
    // kJoinGapMs: the coordinator welcomes them and re-issues the
    // leases the storm took from their predecessors.
    constexpr unsigned kFleet = 12;
    constexpr unsigned kJoinGapMs = 150;
    u64 disruption = 0;
    u64 reissued = 0;
    unsigned finishedByFleet = 0;
    for (const dist::chaos::Schedule &schedule : schedules) {
        const dist::chaos::Storm storm(schedule);
        dist::CoordinatorOptions opts;
        opts.listen = fabricSocket("chaos");
        opts.workers = 2;
        opts.chunk = 6;
        opts.leaseTimeoutMs = 700;
        opts.noWorkerTimeoutMs = 2500; // degraded tail beats hanging
        dist::Coordinator coord(spec, opts);
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < kFleet; ++i)
            pids.push_back(spawnChaosWorker(
                coord.endpoint(), schedule, i,
                i < 2 ? 0 : (i - 1) * kJoinGapMs));

        const std::string journal = tempPath("chaos_run.fhj");
        fault::CampaignResult r;
        {
            fault::TrialJournal j(journal, spec.campaign,
                                  schemeName(spec));
            r = coord.run(&j);
        }
        // The campaign is over; stop whoever is still waiting to join.
        for (pid_t pid : pids) {
            ::kill(pid, SIGKILL);
            dist::reap(pid);
        }

        expectSameCampaign(ref, r);
        EXPECT_FALSE(r.partial) << "schedule " << schedule.seed;
        EXPECT_EQ(refBytes, fileBytes(journal))
            << "journal diverged under schedule " << schedule.seed;
        const dist::DistStats &ds = coord.stats();
        disruption += ds.crcErrors + ds.workersDied +
                      ds.rangesReissued + (ds.degraded ? 1 : 0);
        reissued += ds.rangesReissued;
        if (!ds.degraded)
            ++finishedByFleet;
        std::remove(journal.c_str());
    }
    // The storms must actually have hit something, or this test is
    // vacuously passing on a clean wire; they must have made the
    // coordinator re-issue leases; and the workers, not only the
    // degraded tail, must have finished at least one campaign.
    EXPECT_GT(disruption, 0u);
    EXPECT_GT(reissued, 0u);
    EXPECT_GT(finishedByFleet, 0u);
    std::remove(refJournal.c_str());
}

/** The storm reaches the wire while armed and is gone once disarmed. */
TEST(Chaos, StormInstallsAndClearsTheSendHook)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    dist::HeartbeatMsg hb;
    hb.position = 42;
    const size_t frameBytes =
        dist::encodeFrame(dist::MsgType::Heartbeat, hb.encode()).size();
    // Send one heartbeat and report whether it arrived intact.
    const auto roundTrip = [&] {
        EXPECT_TRUE(dist::sendFrame(sv[0], dist::MsgType::Heartbeat,
                                    hb.encode()));
        std::vector<u8> bytes(frameBytes);
        size_t got = 0;
        while (got < frameBytes) {
            const ssize_t n =
                ::recv(sv[1], bytes.data() + got, frameBytes - got, 0);
            if (n <= 0)
                return false;
            got += static_cast<size_t>(n);
        }
        dist::FrameReader reader;
        reader.feed(bytes.data(), bytes.size());
        dist::Frame f;
        return reader.next(f);
    };
    {
        const dist::chaos::Storm storm({.seed = 7, .flipPm = 1000});
        EXPECT_FALSE(roundTrip()) << "the storm never reached the wire";
    }
    EXPECT_TRUE(roundTrip()) << "the storm outlived its scope";
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------
// Coordinator crash recovery: SIGKILL mid-campaign, restart, resume.
// ---------------------------------------------------------------------

TEST(Chaos, CoordinatorSigkillRestartResumesBitIdentically)
{
    dist::CampaignSpec spec = testSpec();
    spec.campaign.injections = 48;
    const std::string refJournal = tempPath("crash_ref.fhj");
    const fault::CampaignResult ref = singleProcess(spec, refJournal);

    const std::string journal = tempPath("crash_run.fhj");
    const dist::Endpoint sock = fabricSocket("chaos_crash");

    // Phase 1: a coordinator process (own workers, journal enabled),
    // SIGKILLed once the journal shows a merged prefix — torn tail
    // and all, exactly what a crashed host leaves behind.
    const pid_t coordPid = dist::spawnFn([&]() -> int {
        dist::CoordinatorOptions opts;
        opts.workers = 2;
        opts.chunk = 6;
        opts.listen = sock;
        dist::Coordinator coord(spec, opts);
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < 2; ++i)
            pids.push_back(spawnRealWorker(coord.endpoint()));
        fault::TrialJournal j(journal, spec.campaign,
                              schemeName(spec));
        coord.run(&j);
        for (pid_t pid : pids)
            dist::reap(pid);
        return 0;
    });
    ASSERT_GT(coordPid, 0);

    // Wait for the header + at least 8 records, then kill -9.
    for (int spins = 0; spins < 10000; ++spins) {
        const std::string bytes = fileBytes(journal);
        const long lines =
            std::count(bytes.begin(), bytes.end(), '\n');
        if (lines >= 9)
            break;
        int status;
        if (reapIfExited(coordPid, status))
            break; // finished before we could kill it — still valid
        ::usleep(2000);
    }
    ::kill(coordPid, SIGKILL);
    dist::reap(coordPid);

    // Phase 2: same spec, same journal, fresh coordinator + fleet.
    // The merged prefix replays; the rest executes; bytes converge.
    {
        fault::TrialJournal j(journal, spec.campaign,
                              schemeName(spec));
        dist::CoordinatorOptions opts;
        opts.listen = fabricSocket("chaos");
        opts.workers = 2;
        dist::Coordinator coord(spec, opts);
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < 2; ++i)
            pids.push_back(spawnRealWorker(coord.endpoint()));
        const fault::CampaignResult r = coord.run(&j);
        for (pid_t pid : pids)
            dist::reap(pid);
        expectSameCampaign(ref, r);
        EXPECT_FALSE(r.partial);
    }
    EXPECT_EQ(fileBytes(refJournal), fileBytes(journal));
    std::remove(refJournal.c_str());
    std::remove(journal.c_str());
    std::remove(sock.path.c_str());
}

// ---------------------------------------------------------------------
// Dead fleet: degrade to in-process execution, never hang or die.
// ---------------------------------------------------------------------

TEST(Chaos, DeadFleetDegradesToInProcessIdentically)
{
    const dist::CampaignSpec spec = testSpec();
    const std::string refJournal = tempPath("degraded_ref.fhj");
    const fault::CampaignResult ref = singleProcess(spec, refJournal);

    exec::ProgressMeter meter("degraded", spec.campaign.injections,
                              /*interval_ms=*/1u << 30);
    dist::CoordinatorOptions opts;
    opts.listen = fabricSocket("chaos");
    opts.workers = 2;
    opts.noWorkerTimeoutMs = 200; // nobody is coming
    opts.progress = &meter;
    dist::Coordinator coord(spec, opts);
    const std::string journal = tempPath("degraded_run.fhj");
    fault::CampaignResult r;
    {
        fault::TrialJournal j(journal, spec.campaign,
                              schemeName(spec));
        r = coord.run(&j);
    }
    expectSameCampaign(ref, r);
    EXPECT_FALSE(r.partial);
    EXPECT_TRUE(coord.stats().degraded);
    EXPECT_EQ(fileBytes(refJournal), fileBytes(journal));
    // With no lease ever issued, the in-process tail starts the clock.
    EXPECT_EQ(meter.done(), r.injected);
    EXPECT_GT(meter.executingSeconds(), 0.0);
    // run() stopped listening: a late worker is refused at once rather
    // than queued in a backlog nobody accepts from.
    std::string error;
    EXPECT_LT(dist::connectTo(coord.endpoint(), error), 0);
    std::remove(refJournal.c_str());
    std::remove(journal.c_str());
}

/**
 * An adaptive campaign on a dead fleet: the tail runs it in-process
 * wave by wave through the coordinator's merge and must stop where a
 * single process stops, journal bytes included. A coordinator resumed
 * over that journal replays the prefix, sees the stop already reached
 * and issues no lease.
 */
TEST(Chaos, AdaptiveDeadFleetStopsAtTheSameWave)
{
    dist::CampaignSpec spec = testSpec();
    spec.campaign.injections = 400;
    spec.campaign.seed = 1234;
    spec.campaign.ciTarget = 0.12;
    spec.campaign.ciWave = 32;
    const std::string refJournal = tempPath("adaptive_ref.fhj");
    const fault::CampaignResult ref = singleProcess(spec, refJournal);
    ASSERT_TRUE(ref.ciStopped) << "the adaptive stop never fired";
    ASSERT_LT(ref.injected, spec.campaign.injections);

    dist::CoordinatorOptions opts;
    opts.listen = fabricSocket("chaos");
    opts.workers = 2;
    opts.noWorkerTimeoutMs = 200; // nobody is coming
    const std::string journal = tempPath("adaptive_degraded.fhj");
    {
        dist::Coordinator coord(spec, opts);
        fault::TrialJournal j(journal, spec.campaign, schemeName(spec));
        const fault::CampaignResult r = coord.run(&j);
        EXPECT_TRUE(coord.stats().degraded);
        EXPECT_TRUE(r.ciStopped);
        EXPECT_FALSE(r.partial);
        expectSameCampaign(ref, r);
    }
    EXPECT_EQ(fileBytes(refJournal), fileBytes(journal));

    {
        dist::Coordinator coord(spec, opts);
        fault::TrialJournal j(journal, spec.campaign, schemeName(spec));
        const fault::CampaignResult r = coord.run(&j);
        EXPECT_EQ(coord.stats().rangesIssued, 0u);
        EXPECT_FALSE(coord.stats().degraded);
        EXPECT_EQ(r.replayedTrials, ref.injected);
        EXPECT_TRUE(r.ciStopped);
        EXPECT_FALSE(r.partial);
        expectSameCampaign(ref, r);
    }
    EXPECT_EQ(fileBytes(refJournal), fileBytes(journal));
    std::remove(refJournal.c_str());
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// Journal corruption: every single-bit flip is either a healed torn
// tail or a precise refusal — never a silent wrong resume.
// ---------------------------------------------------------------------

TEST(Chaos, JournalBitFlipHealsOrRefusesNeverLies)
{
    dist::CampaignSpec spec = testSpec();
    spec.campaign.injections = 4; // tiny: the sweep forks per byte
    const std::string clean = tempPath("flip_clean.fhj");
    singleProcess(spec, clean);
    const std::string cleanBytes = fileBytes(clean);
    ASSERT_GT(cleanBytes.size(), 0u);

    // Capture the clean replay (packed, comparable across processes).
    std::vector<std::vector<u64>> want;
    {
        fault::TrialJournal j(clean, spec.campaign, schemeName(spec));
        for (u64 t = 0; t < j.replayCount(); ++t) {
            std::vector<u64> rec(fault::kTrialCounters +
                                 fault::kTrialMetaFields);
            u64 d[fault::kTrialCounters];
            u64 m[fault::kTrialMetaFields];
            fault::packTrialCounters(j.replayed(t), d);
            fault::packTrialMeta(j.replayedMeta(t), m);
            std::copy(d, d + fault::kTrialCounters, rec.begin());
            std::copy(m, m + fault::kTrialMetaFields,
                      rec.begin() + fault::kTrialCounters);
            want.push_back(std::move(rec));
        }
        ASSERT_EQ(want.size(), 4u);
    }

    const std::string flipped = tempPath("flip_damaged.fhj");
    size_t healed = 0, refused = 0;
    for (size_t off = 0; off < cleanBytes.size(); ++off) {
        std::string bytes = cleanBytes;
        bytes[off] = static_cast<char>(
            static_cast<u8>(bytes[off]) ^ (1u << (off % 8)));
        {
            std::ofstream out(flipped, std::ios::binary |
                                           std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        // Open in a throwaway process: fh_fatal is a refusal (exit 1);
        // exit 0 means the replayed prefix matched the clean records
        // exactly; exit 2 flags a silent lie.
        const pid_t child = dist::spawnFn([&]() -> int {
            std::FILE *sink = std::freopen("/dev/null", "w", stderr);
            (void)sink;
            sink = std::freopen("/dev/null", "w", stdout);
            (void)sink;
            fault::TrialJournal j(flipped, spec.campaign,
                                  schemeName(spec));
            if (j.replayCount() > want.size())
                return 2;
            for (u64 t = 0; t < j.replayCount(); ++t) {
                u64 d[fault::kTrialCounters];
                u64 m[fault::kTrialMetaFields];
                fault::packTrialCounters(j.replayed(t), d);
                fault::packTrialMeta(j.replayedMeta(t), m);
                for (size_t i = 0; i < fault::kTrialCounters; ++i)
                    if (d[i] != want[t][i])
                        return 2;
                for (size_t i = 0; i < fault::kTrialMetaFields; ++i)
                    if (m[i] != want[t][fault::kTrialCounters + i])
                        return 2;
            }
            return 0;
        });
        ASSERT_GT(child, 0);
        const int raw = dist::reap(child);
        const int status =
            WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
        ASSERT_TRUE(status == 0 || status == 1)
            << "flip at byte " << off << " produced exit " << status
            << " — a corrupted journal was neither healed nor "
               "refused";
        if (status == 0)
            ++healed;
        else
            ++refused;
    }
    // Both regimes must occur: header/mid-file flips refuse, final-
    // record flips heal as torn tails.
    EXPECT_GT(healed, 0u);
    EXPECT_GT(refused, 0u);
    std::remove(clean.c_str());
    std::remove(flipped.c_str());
}

// ---------------------------------------------------------------------
// ChildGuard: no orphans on the no-RAII death paths.
// ---------------------------------------------------------------------

void
expectGuardReaps(bool viaAbort)
{
    int pfd[2];
    ASSERT_EQ(::pipe(pfd), 0);
    const pid_t child = dist::spawnFn([&]() -> int {
        std::FILE *sink = std::freopen("/dev/null", "w", stderr);
        (void)sink;
        const pid_t g = dist::spawnFn([]() -> int {
            ::sleep(600);
            return 0;
        });
        dist::ChildGuard::add(g);
        const ssize_t w = ::write(pfd[1], &g, sizeof(g));
        (void)w;
        if (viaAbort)
            std::abort(); // the SIGABRT handler must clean up
        std::exit(1);     // the atexit hook must clean up (fh_fatal)
    });
    ASSERT_GT(child, 0);
    ::close(pfd[1]);
    pid_t g = -1;
    ASSERT_EQ(::read(pfd[0], &g, sizeof(g)),
              static_cast<ssize_t>(sizeof(g)));
    ::close(pfd[0]);
    ASSERT_GT(g, 0);
    dist::reap(child);
    // The grandchild must be gone shortly after the guard fired.
    bool dead = false;
    for (int spins = 0; spins < 2500; ++spins) {
        if (::kill(g, 0) != 0 && errno == ESRCH) {
            dead = true;
            break;
        }
        ::usleep(2000);
    }
    EXPECT_TRUE(dead) << "grandchild " << g << " survived the "
                      << (viaAbort ? "abort" : "exit") << " path";
}

TEST(Chaos, ChildGuardReapsOnExitPath)
{
    expectGuardReaps(false);
}

TEST(Chaos, ChildGuardReapsOnAbortPath)
{
    expectGuardReaps(true);
}

} // namespace
