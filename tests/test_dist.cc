/**
 * @file
 * The distributed campaign fabric end to end, against real worker
 * processes (fork) on Unix-domain sockets: bit-identical merge at 1/2/4
 * workers (counters AND journal bytes vs a single-process run),
 * elastic re-issue after a worker is SIGKILLed mid-lease (with a torn
 * trial frame on the wire), lease-timeout revocation of a hung
 * worker, deterministic early-halt agreement, and the shutdown-drain
 * -> journal-resume contract. A scripted coordinator drives a real
 * worker through the two paths a lost lease takes on the worker side:
 * losing the connection (it exits, never re-dials) and serving a
 * re-issued lease below its session's position (bit-identical), and
 * checks that a released worker exits at once, whatever its heartbeat
 * period.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign_compare.hh"
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

pid_t
spawnRealWorker(const dist::Endpoint &ep, unsigned delayMs = 0,
                u64 heartbeatMs = 50)
{
    return dist::spawnFn([ep, delayMs, heartbeatMs] {
        if (delayMs)
            ::usleep(delayMs * 1000);
        dist::WorkerOptions opts;
        opts.endpoint = ep;
        opts.jobs = 1;
        opts.heartbeatMs = heartbeatMs;
        return dist::runWorker(opts);
    });
}

/** Blocking read of the next frame (child-side helper). */
bool
recvFrame(int fd, dist::FrameReader &reader, dist::Frame &out)
{
    while (!reader.next(out)) {
        if (reader.corrupt())
            return false;
        u8 buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        reader.feed(buf, static_cast<size_t>(n));
    }
    return true;
}

/**
 * A worker that executes its first lease correctly for `goodTrials`
 * trials, then writes HALF of the next trial's frame and SIGKILLs
 * itself — the re-issue path plus the torn-write path in one: the
 * coordinator must merge the acknowledged prefix, discard the torn
 * tail, and re-run the rest elsewhere.
 */
pid_t
spawnSabotagedWorker(const dist::Endpoint &ep, u64 goodTrials)
{
    return dist::spawnFn([ep, goodTrials]() -> int {
        std::string error;
        const int fd = dist::connectTo(ep, error);
        if (fd < 0)
            return 1;
        dist::HelloMsg hello;
        hello.pid = static_cast<u64>(::getpid());
        dist::sendFrame(fd, dist::MsgType::Hello, hello.encode());

        dist::FrameReader reader;
        dist::Frame f;
        dist::CampaignSpec spec;
        // v3: the coordinator answers Hello with an explicit verdict.
        if (!recvFrame(fd, reader, f) ||
            static_cast<dist::MsgType>(f.type) !=
                dist::MsgType::HelloAck)
            return 1;
        if (!recvFrame(fd, reader, f) ||
            static_cast<dist::MsgType>(f.type) != dist::MsgType::Spec)
            return 1;
        dist::SpecMsg sm;
        if (!dist::SpecMsg::decode(f.payload, sm) ||
            !dist::CampaignSpec::decode(sm.text, spec, error))
            return 1;
        if (!recvFrame(fd, reader, f) ||
            static_cast<dist::MsgType>(f.type) !=
                dist::MsgType::Assign)
            return 0; // campaign ended without us; nothing to wreck
        dist::AssignMsg a;
        if (!dist::AssignMsg::decode(f.payload, a))
            return 1;

        isa::Program prog = spec.buildProgram();
        fault::CampaignConfig cfg = spec.campaign;
        cfg.threads = 1;
        fault::CampaignSession session(spec.buildParams(), &prog,
                                       cfg);
        u64 sent = 0;
        session.runRange(
            a.begin, a.end,
            [&](u64 trial, const fault::CampaignResult &delta,
                const fault::TrialMeta &meta) {
                dist::TrialMsg t;
                t.trial = trial;
                fault::packTrialCounters(delta, t.d);
                fault::packTrialMeta(meta, t.m);
                const auto frame = dist::encodeFrame(
                    dist::MsgType::Trial, t.encode());
                if (sent < goodTrials) {
                    dist::sendAll(fd, frame.data(), frame.size());
                    ++sent;
                } else {
                    // Torn write: half a frame, then die on the spot.
                    dist::sendAll(fd, frame.data(),
                                  frame.size() / 2);
                    ::raise(SIGKILL);
                }
            });
        return 0;
    });
}

/** A worker that takes a lease and then hangs without heartbeats —
 *  only the lease timeout can unstick the campaign. */
pid_t
spawnHungWorker(const dist::Endpoint &ep)
{
    return dist::spawnFn([ep]() -> int {
        std::string error;
        const int fd = dist::connectTo(ep, error);
        if (fd < 0)
            return 1;
        dist::HelloMsg hello;
        hello.pid = static_cast<u64>(::getpid());
        dist::sendFrame(fd, dist::MsgType::Hello, hello.encode());
        dist::FrameReader reader;
        dist::Frame f;
        while (recvFrame(fd, reader, f)) {
            if (static_cast<dist::MsgType>(f.type) ==
                dist::MsgType::Assign) {
                ::sleep(600); // hold the lease, say nothing
            }
        }
        return 0;
    });
}

struct DistRun
{
    fault::CampaignResult result;
    dist::DistStats stats;
};

DistRun
runDistributed(const dist::CampaignSpec &spec, unsigned workers,
               dist::CoordinatorOptions opts = {},
               const std::string &journal = "")
{
    opts.listen = fabricSocket("dist");
    dist::Coordinator coord(spec, opts);
    std::vector<pid_t> pids;
    for (unsigned i = 0; i < workers; ++i)
        pids.push_back(spawnRealWorker(coord.endpoint()));

    std::unique_ptr<fault::TrialJournal> j;
    if (!journal.empty())
        j = std::make_unique<fault::TrialJournal>(
            journal, spec.campaign,
            filters::to_string(spec.buildParams().detector.scheme));
    DistRun run;
    run.result = coord.run(j.get());
    run.stats = coord.stats();
    for (pid_t pid : pids)
        dist::reap(pid);
    return run;
}

TEST(Dist, BitIdenticalAtAnyWorkerCount)
{
    const dist::CampaignSpec spec = testSpec();
    const std::string refJournal = tempPath("dist_ref.fhj");
    const fault::CampaignResult ref = singleProcess(spec, refJournal);
    ASSERT_GT(ref.injected, 0u);

    for (unsigned workers : {1u, 2u, 4u}) {
        exec::ProgressMeter meter("dist", spec.campaign.injections,
                                  /*interval_ms=*/1u << 30);
        dist::CoordinatorOptions opts;
        opts.workers = workers;
        opts.progress = &meter;
        const std::string journal = tempPath("dist_w.fhj");
        const DistRun run =
            runDistributed(spec, workers, opts, journal);
        expectSameCampaign(ref, run.result);
        EXPECT_FALSE(run.result.partial);
        EXPECT_EQ(run.stats.workersJoined, workers);
        EXPECT_EQ(run.stats.workersDied, 0u);
        EXPECT_EQ(run.stats.trialsMerged, spec.campaign.injections);
        // Every merged trial ticked the meter, whose rate clock the
        // first lease started.
        EXPECT_EQ(meter.done(), spec.campaign.injections);
        EXPECT_GT(meter.executingSeconds(), 0.0);
        // The merged journal is byte-identical to the single-process
        // journal: same header, same records, same order.
        EXPECT_EQ(fileBytes(refJournal), fileBytes(journal))
            << "journal diverged at " << workers << " worker(s)";
        std::remove(journal.c_str());
    }
    std::remove(refJournal.c_str());
}

TEST(Dist, SigkilledWorkerMidLeaseIsReissuedIdentically)
{
    const dist::CampaignSpec spec = testSpec();
    const fault::CampaignResult ref = singleProcess(spec);

    dist::CoordinatorOptions opts;
    opts.listen = fabricSocket("dist");
    opts.workers = 2;
    opts.chunk = 12; // two leases over 24 trials
    dist::Coordinator coord(spec, opts);

    // The saboteur connects first (it leases the first chunk), runs
    // two trials honestly, tears the third's frame and SIGKILLs
    // itself; the real worker joins shortly after and must absorb
    // both its own lease and the re-issued remainder.
    const pid_t bad = spawnSabotagedWorker(coord.endpoint(), 2);
    const pid_t good = spawnRealWorker(coord.endpoint(), 100);

    const fault::CampaignResult r = coord.run(nullptr);
    dist::reap(bad);
    dist::reap(good);

    expectSameCampaign(ref, r);
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(coord.stats().workersDied, 1u);
    EXPECT_GE(coord.stats().rangesReissued, 1u);
    EXPECT_EQ(coord.stats().trialsMerged, spec.campaign.injections);
}

TEST(Dist, HungWorkerLeaseTimesOutAndReissues)
{
    const dist::CampaignSpec spec = testSpec();
    const fault::CampaignResult ref = singleProcess(spec);

    dist::CoordinatorOptions opts;
    opts.listen = fabricSocket("dist");
    opts.workers = 2;
    opts.chunk = 12;
    opts.leaseTimeoutMs = 400; // heartbeats are silent: revoke fast
    dist::Coordinator coord(spec, opts);

    const pid_t hung = spawnHungWorker(coord.endpoint());
    const pid_t good = spawnRealWorker(coord.endpoint(), 100);

    const fault::CampaignResult r = coord.run(nullptr);
    ::kill(hung, SIGKILL);
    dist::reap(hung);
    dist::reap(good);

    expectSameCampaign(ref, r);
    EXPECT_EQ(coord.stats().workersDied, 1u);
    EXPECT_GE(coord.stats().rangesReissued, 1u);
}

TEST(Dist, EarlyHaltAgreesWithSingleProcess)
{
    // A workload that runs out mid-campaign: the halt point is a pure
    // function of the schedule, so the distributed run must shrink to
    // exactly the single-process trial count.
    dist::CampaignSpec spec = testSpec();
    spec.workload.iterations = 800;
    spec.campaign.injections = 40;
    const fault::CampaignResult ref = singleProcess(spec);
    ASSERT_LT(ref.injected, 40u) << "halt never happened; the test "
                                    "needs a smaller workload";

    dist::CoordinatorOptions opts;
    opts.workers = 2;
    const DistRun run = runDistributed(spec, 2, opts);
    expectSameCampaign(ref, run.result);
    EXPECT_FALSE(run.result.partial);
}

TEST(Dist, ShutdownDrainsPartialAndJournalResumes)
{
    const dist::CampaignSpec spec = testSpec();
    const fault::CampaignResult ref = singleProcess(spec);
    const std::string journal = tempPath("dist_resume.fhj");

    // Stop after ~a third of the campaign: the coordinator drains the
    // live leases, the journal keeps the merged clean prefix. One
    // worker keeps the drain point deterministic — leases are granted
    // one at a time and the stop lands between two of them.
    dist::CoordinatorOptions opts;
    opts.workers = 1;
    opts.chunk = 4;
    opts.stopAfterMerged = 8;
    const DistRun first = runDistributed(spec, 1, opts, journal);
    EXPECT_TRUE(first.result.partial);
    EXPECT_GE(first.result.injected, 8u);
    EXPECT_LT(first.result.injected, spec.campaign.injections);

    // Resume: replay the journaled prefix, execute the rest, land on
    // the uninterrupted campaign's exact counters.
    dist::CoordinatorOptions opts2;
    opts2.workers = 2;
    const DistRun second = runDistributed(spec, 2, opts2, journal);
    EXPECT_FALSE(second.result.partial);
    EXPECT_EQ(second.result.replayedTrials, first.result.injected);
    expectSameCampaign(ref, second.result);
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// A real worker against a scripted coordinator.
// ---------------------------------------------------------------------

/** Accept one connection within timeoutMs, or -1. Its reads time out
 *  after 20 s, so a silent worker fails the test instead of hanging
 *  it. */
int
acceptWithin(int listenFd, int timeoutMs)
{
    pollfd pfd{listenFd, POLLIN, 0};
    if (::poll(&pfd, 1, timeoutMs) <= 0)
        return -1;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd >= 0) {
        timeval tv{20, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return fd;
}

/** The child's wait status once it exits within timeoutMs; otherwise
 *  -1, after killing it. */
int
exitStatusWithin(pid_t pid, int timeoutMs)
{
    for (int waited = 0; waited < timeoutMs; waited += 10) {
        int status;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return status;
        ::usleep(10000);
    }
    ::kill(pid, SIGKILL);
    dist::reap(pid);
    return -1;
}

/** The coordinator's side of the handshake: take the worker's Hello,
 *  accept its version and send the campaign spec. */
bool
greet(int fd, dist::FrameReader &reader, const dist::CampaignSpec &spec)
{
    dist::Frame f;
    if (!recvFrame(fd, reader, f) ||
        static_cast<dist::MsgType>(f.type) != dist::MsgType::Hello)
        return false;
    dist::HelloAckMsg ack;
    ack.accepted = true;
    dist::SpecMsg sm;
    sm.text = spec.encode();
    return dist::sendFrame(fd, dist::MsgType::HelloAck, ack.encode()) &&
           dist::sendFrame(fd, dist::MsgType::Spec, sm.encode());
}

TEST(Dist, WorkerThatLosesItsCoordinatorExits)
{
    const dist::Endpoint ep = fabricSocket("dist_scripted");
    std::string error;
    const int listenFd = dist::listenOn(ep, error);
    ASSERT_GE(listenFd, 0) << error;
    const pid_t worker = spawnRealWorker(ep);

    const int fd = acceptWithin(listenFd, 5000);
    EXPECT_GE(fd, 0);
    if (fd >= 0) {
        dist::FrameReader reader;
        EXPECT_TRUE(greet(fd, reader, testSpec()));
        ::close(fd);
    }

    // Not released by a Shutdown frame: the worker drains and exits 1,
    // and it does not dial the coordinator again.
    const int status = exitStatusWithin(worker, 5000);
    EXPECT_TRUE(status != -1 && WIFEXITED(status))
        << "the worker outlived its coordinator by 5 s";
    if (status != -1 && WIFEXITED(status)) {
        EXPECT_EQ(WEXITSTATUS(status), 1);
    }
    pollfd pfd{listenFd, POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "the worker dialed again";
    dist::closeFabricFd(listenFd);
    std::remove(ep.path.c_str());
}

TEST(Dist, ReleasedWorkerExitsWithoutSittingOutItsHeartbeat)
{
    const dist::Endpoint ep = fabricSocket("dist_scripted");
    std::string error;
    const int listenFd = dist::listenOn(ep, error);
    ASSERT_GE(listenFd, 0) << error;
    // A heartbeat period far longer than the exit may take.
    const pid_t worker = spawnRealWorker(ep, 0, 5000);

    const int fd = acceptWithin(listenFd, 5000);
    EXPECT_GE(fd, 0);
    if (fd >= 0) {
        dist::FrameReader reader;
        EXPECT_TRUE(greet(fd, reader, testSpec()));
        EXPECT_TRUE(dist::sendFrame(fd, dist::MsgType::Shutdown, {}));
    }
    const int status = exitStatusWithin(worker, 1000);
    if (fd >= 0)
        ::close(fd);
    dist::closeFabricFd(listenFd);
    std::remove(ep.path.c_str());
    EXPECT_TRUE(status != -1 && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0)
        << "a released worker at heartbeat_ms=5000 did not exit 0 "
           "within 1 s";
}

TEST(Dist, LeaseBelowSessionPositionIsServedBitIdentically)
{
    const dist::CampaignSpec spec = testSpec();
    // The single-process records, encoded as Trial payloads.
    std::vector<std::vector<u8>> want;
    {
        isa::Program prog = spec.buildProgram();
        fault::CampaignConfig cfg = spec.campaign;
        cfg.threads = 1;
        fault::CampaignSession session(spec.buildParams(), &prog, cfg);
        session.runRange(
            0, spec.campaign.injections,
            [&](u64 trial, const fault::CampaignResult &delta,
                const fault::TrialMeta &meta) {
                dist::TrialMsg t;
                t.trial = trial;
                fault::packTrialCounters(delta, t.d);
                fault::packTrialMeta(meta, t.m);
                want.push_back(t.encode());
            });
    }
    ASSERT_EQ(want.size(), 24u);

    const dist::Endpoint ep = fabricSocket("dist_scripted");
    std::string error;
    const int listenFd = dist::listenOn(ep, error);
    ASSERT_GE(listenFd, 0) << error;
    const pid_t worker = spawnRealWorker(ep);

    // Lease [12, 24), then [0, 12): the second lies below the position
    // the first leaves the worker's session at.
    std::vector<dist::TrialMsg> got;
    const int fd = acceptWithin(listenFd, 5000);
    EXPECT_GE(fd, 0);
    if (fd >= 0) {
        dist::FrameReader reader;
        EXPECT_TRUE(greet(fd, reader, spec));
        for (const dist::AssignMsg a :
             {dist::AssignMsg{12, 24}, dist::AssignMsg{0, 12}})
            EXPECT_TRUE(
                dist::sendFrame(fd, dist::MsgType::Assign, a.encode()));
        unsigned resolved = 0;
        dist::Frame f;
        while (resolved < 2 && recvFrame(fd, reader, f)) {
            const auto type = static_cast<dist::MsgType>(f.type);
            if (type == dist::MsgType::Trial) {
                dist::TrialMsg t;
                EXPECT_TRUE(dist::TrialMsg::decode(f.payload, t));
                got.push_back(t);
            } else if (type == dist::MsgType::RangeDone) {
                dist::RangeDoneMsg d;
                EXPECT_TRUE(dist::RangeDoneMsg::decode(f.payload, d));
                EXPECT_FALSE(d.stopped || d.halted);
                ++resolved;
            }
        }
        EXPECT_EQ(resolved, 2u);
        dist::sendFrame(fd, dist::MsgType::Shutdown, {});
    }
    const int status = exitStatusWithin(worker, 10000);
    if (fd >= 0)
        ::close(fd);
    dist::closeFabricFd(listenFd);
    std::remove(ep.path.c_str());
    EXPECT_TRUE(status != -1 && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0)
        << "a released worker exits 0";

    ASSERT_EQ(got.size(), 24u);
    for (size_t k = 0; k < got.size(); ++k) {
        const u64 trial = k < 12 ? k + 12 : k - 12;
        EXPECT_EQ(got[k].trial, trial);
        EXPECT_EQ(got[k].encode(), want[trial]) << "trial " << trial;
    }
}

} // namespace

