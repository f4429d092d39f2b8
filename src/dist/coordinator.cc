#include "dist/coordinator.hh"

#include <algorithm>
#include <cerrno>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dist/messages.hh"
#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "sim/logging.hh"

namespace fh::dist
{

Coordinator::Coordinator(const CampaignSpec &spec,
                         const CoordinatorOptions &opts)
    : spec_(spec), opts_(opts), listen_(opts.listen)
{
    std::string error;
    listenFd_ = listenOn(listen_, error);
    if (listenFd_ < 0)
        fh_fatal("coordinator: %s", error.c_str());
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);
}

Coordinator::~Coordinator()
{
    for (auto &c : conns_)
        if (c.fd >= 0)
            closeFabricFd(c.fd);
    if (listenFd_ >= 0)
        closeFabricFd(listenFd_);
    ::unlink(listen_.path.c_str());
}

void
Coordinator::addChild(pid_t pid)
{
    children_.push_back(pid);
}

void
Coordinator::requeue(Range r)
{
    r.end = std::min(r.end, merge_->end());
    if (r.begin >= r.end)
        return;
    // Keep the queue sorted by begin so leases are handed out lowest
    // first — a worker's successive leases then move forward and its
    // session never rebuilds except after stealing a revoked range.
    auto it = std::lower_bound(
        queue_.begin(), queue_.end(), r,
        [](const Range &a, const Range &b) { return a.begin < b.begin; });
    queue_.insert(it, r);
}

void
Coordinator::trimQueue()
{
    // The merge's end shrank (a halt or the adaptive stop): no trial at
    // or past it is merged, so queued chunks past it are dropped;
    // in-flight leases resolve normally (their stashed records beyond
    // the end are discarded at the end of run()).
    std::deque<Range> kept;
    for (Range r : queue_) {
        r.end = std::min(r.end, merge_->end());
        if (r.begin < r.end)
            kept.push_back(r);
    }
    queue_.swap(kept);
}

void
Coordinator::drainStash()
{
    fault::CampaignMerge &merge = *merge_;
    const u64 endBefore = merge.end();
    auto it = stash_.find(merge.next());
    while (it != stash_.end() && it->first == merge.next() &&
           merge.next() < merge.end()) {
        merge.add(it->first, it->second.delta, it->second.meta);
        ++stats_.trialsMerged;
        it = stash_.erase(it);
    }
    if (merge.end() != endBefore)
        trimQueue();
    if (opts_.stopAfterMerged && !shuttingDown_ &&
        stats_.trialsMerged >= opts_.stopAfterMerged) {
        beginShutdown();
    }
}

void
Coordinator::beginShutdown()
{
    if (shuttingDown_)
        return;
    shuttingDown_ = true;
    // Protocol-level drain for connected workers...
    for (auto &c : conns_)
        if (c.fd >= 0)
            sendFrame(c.fd, MsgType::Shutdown, {});
    // ...and signal-level forwarding for subprocesses that have not
    // connected (or wedged before their receiver ran). Forward the
    // same signal we got; SIGTERM for programmatic stops.
    const int sig =
        exec::shutdownSignal() ? exec::shutdownSignal() : SIGTERM;
    for (pid_t pid : children_)
        ::kill(pid, sig);
}

void
Coordinator::dropConn(Conn &c, const char *why)
{
    if (c.fd < 0)
        return;
    stats_.crcErrors += c.reader.crcErrors();
    closeFabricFd(c.fd);
    c.fd = -1;
    if (!c.helloed) {
        // Refused at Hello, or gone before sending one: it never
        // joined, so it is no worker that died and it held no lease.
        fh_warn("coordinator: peer dropped before joining (%s)", why);
        return;
    }
    fh_warn("coordinator: worker %llu dropped (%s)",
            static_cast<unsigned long long>(c.pid), why);
    ++stats_.workersDied;
    if (c.hasLease) {
        c.hasLease = false;
        // Everything at or past the acknowledged prefix re-executes
        // elsewhere; everything below it was already merged (or sits
        // in the stash), so nothing is lost and nothing duplicates.
        if (!shuttingDown_) {
            requeue({c.leaseNext, c.lease.end});
            ++stats_.rangesReissued;
        }
    }
}

bool
Coordinator::handleFrame(Conn &c, const Frame &f)
{
    switch (static_cast<MsgType>(f.type)) {
    case MsgType::Hello: {
        HelloMsg hello;
        if (!HelloMsg::decode(f.payload, hello) || c.helloed)
            return false;
        // Explicit verdict either way: a refused worker learns *why*
        // it can never join (version skew) instead of watching its
        // connection die and retrying forever.
        HelloAckMsg ack;
        ack.accepted = hello.version == kProtocolVersion;
        if (!sendFrame(c.fd, MsgType::HelloAck, ack.encode()))
            return false;
        if (!ack.accepted) {
            fh_warn("coordinator: refused a peer speaking protocol %u, "
                    "want %u",
                    hello.version, kProtocolVersion);
            return false;
        }
        c.helloed = true;
        c.pid = hello.pid;
        ++stats_.workersJoined;
        SpecMsg spec;
        spec.text = spec_.encode();
        if (!sendFrame(c.fd, MsgType::Spec, spec.encode()))
            return false;
        if (shuttingDown_)
            sendFrame(c.fd, MsgType::Shutdown, {});
        return true;
    }
    case MsgType::Trial: {
        TrialMsg t;
        if (!TrialMsg::decode(f.payload, t) || !c.hasLease ||
            t.trial != c.leaseNext) {
            return false; // out-of-order record: treat as dead
        }
        stash_.emplace(t.trial,
                       MergedTrial{fault::unpackTrialCounters(t.d),
                                   fault::unpackTrialMeta(t.m)});
        ++c.leaseNext;
        return true;
    }
    case MsgType::RangeDone: {
        RangeDoneMsg done;
        if (!RangeDoneMsg::decode(f.payload, done) || !c.hasLease)
            return false;
        if (done.halted) {
            // The workload can run out during the skip-advance before
            // the lease's first trial, so the halt point may land
            // below the acknowledged prefix — never above it.
            if (done.nextTrial > c.leaseNext)
                return false;
            c.hasLease = false;
            merge_->halt(done.nextTrial);
            trimQueue();
            return true;
        }
        if (done.nextTrial != c.leaseNext) {
            // A lease resolves exactly at its acknowledged prefix;
            // anything else means lost records.
            return false;
        }
        c.hasLease = false;
        if (done.nextTrial < c.lease.end && !shuttingDown_) {
            // The worker drained early (its own signal); give the
            // remainder to someone else.
            requeue({done.nextTrial, c.lease.end});
            ++stats_.rangesReissued;
        }
        return true;
    }
    case MsgType::Heartbeat: {
        HeartbeatMsg hb;
        return HeartbeatMsg::decode(f.payload, hb);
    }
    default:
        return false;
    }
}

void
Coordinator::readFrom(Conn &c)
{
    u8 buf[4096];
    while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.lastHeard = Clock::now();
            c.reader.feed(buf, static_cast<size_t>(n));
            Frame f;
            while (c.fd >= 0 && c.reader.next(f)) {
                if (!handleFrame(c, f)) {
                    dropConn(c, "protocol violation");
                    return;
                }
            }
            if (c.reader.corrupt()) {
                dropConn(c, c.reader.crcErrors() > 0
                                ? "crc mismatch"
                                : "corrupt stream");
                return;
            }
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // drained
        // EOF or hard error. A torn frame in the reader's tail is
        // dropped by design: its trial was never acknowledged, so the
        // re-issued range re-executes it.
        dropConn(c, n == 0 ? "connection closed" : "read error");
        return;
    }
}

void
Coordinator::acceptNew()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        adoptFabricFd(fd);
        Conn c;
        c.fd = fd;
        c.lastHeard = Clock::now();
        conns_.push_back(std::move(c));
    }
}

void
Coordinator::issueLeases()
{
    const auto now = Clock::now();
    for (auto &c : conns_) {
        if (queue_.empty())
            return;
        if (c.fd < 0 || !c.helloed || c.hasLease)
            continue;
        Range r = queue_.front();
        queue_.pop_front();
        c.hasLease = true;
        c.lease = r;
        c.leaseNext = r.begin;
        c.lastHeard = now;
        ++stats_.rangesIssued;
        // The first lease begins the executed trials, so the rate
        // clock starts here, after the journal replay. Not at the first
        // merge: records merge in bursts (a later chunk's records wait
        // in the stash), which would overstate a short run's rate.
        if (opts_.progress)
            opts_.progress->start();
        AssignMsg a;
        a.begin = r.begin;
        a.end = r.end;
        if (!sendFrame(c.fd, MsgType::Assign, a.encode()))
            dropConn(c, "send failed");
    }
}

/**
 * Dead-fleet fallback: execute the unmerged tail in-process. Because
 * each trial is a pure function of (spec, trial index), the local
 * session produces the same records a worker would have streamed, and
 * runLocal feeds them to the same merge — counters, journal bytes and
 * the adaptive stop point are identical to both the distributed and
 * the single-process run. Everything the fleet left behind (queued
 * chunks, stashed out-of-order records) is discarded first: the local
 * session regenerates it from the merged prefix.
 */
void
Coordinator::runDegradedTail()
{
    fault::CampaignMerge &merge = *merge_;
    stats_.degraded = true;
    fh_warn("coordinator: no live workers for %llu ms; degrading to "
            "in-process execution of %llu remaining trial(s)",
            static_cast<unsigned long long>(opts_.noWorkerTimeoutMs),
            static_cast<unsigned long long>(merge.end() - merge.next()));
    queue_.clear();
    stash_.clear();

    const isa::Program prog = spec_.buildProgram();
    fault::CampaignSession session(spec_.buildParams(), &prog,
                                   spec_.campaign);
    const u64 merged = merge.next();
    if (opts_.progress)
        opts_.progress->start(); // unless a lease started it
    fault::runLocal(session, merge);
    stats_.trialsMerged += merge.next() - merged;
}

bool
Coordinator::outstandingWork() const
{
    if (merge_->next() < merge_->end())
        return true;
    for (const auto &c : conns_)
        if (c.fd >= 0 && c.hasLease)
            return true;
    return false;
}

fault::CampaignResult
Coordinator::run(fault::TrialJournal *journal)
{
    // The merge replays the journaled prefix upfront, exactly like
    // runCampaign's (those trials' gaps are skip-advanced by whichever
    // worker draws the first unjournaled range), and a resumed
    // adaptive campaign whose prefix already satisfies the stop rule
    // leases nothing.
    merge_.emplace(spec_.campaign, journal, opts_.progress);
    const fault::CampaignMerge &merge = *merge_;

    // Chunking: ~4 leases per expected worker bounds both the lost
    // work on a death (one chunk) and the skip-advance overhead (a
    // worker's next lease starts near where its last one ended).
    if (merge.next() < merge.end()) {
        const u64 total = merge.end() - merge.next();
        u64 chunk = opts_.chunk;
        if (chunk == 0)
            chunk = std::max<u64>(
                1, total / std::max<u64>(1, u64{opts_.workers} * 4));
        for (u64 b = merge.next(); b < merge.end(); b += chunk)
            queue_.push_back({b, std::min(b + chunk, merge.end())});
    }

    auto lastWorkerSeen = Clock::now();
    while (outstandingWork()) {
        if (exec::shutdownRequested())
            beginShutdown();
        if (shuttingDown_) {
            // Only the resolution of live leases matters now; queued
            // chunks are abandoned (the journal holds a clean prefix
            // for a future resume).
            bool pending = false;
            for (const auto &c : conns_)
                if (c.fd >= 0 && c.hasLease)
                    pending = true;
            if (!pending)
                break;
        }

        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        for (auto &c : conns_)
            if (c.fd >= 0)
                fds.push_back({c.fd, POLLIN, 0});
        ::poll(fds.data(), fds.size(), 100);

        acceptNew();
        for (auto &c : conns_)
            if (c.fd >= 0)
                readFrom(c);
        drainStash();

        // Lease timeouts: heartbeat silence, not slow trials.
        const auto now = Clock::now();
        for (auto &c : conns_) {
            if (c.fd < 0 || !c.hasLease)
                continue;
            const u64 silentMs = static_cast<u64>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - c.lastHeard)
                    .count());
            if (silentMs > opts_.leaseTimeoutMs)
                dropConn(c, "lease timeout");
        }
        drainStash();

        if (!shuttingDown_)
            issueLeases();

        bool anyLive = false;
        for (const auto &c : conns_)
            if (c.fd >= 0)
                anyLive = true;
        if (anyLive)
            lastWorkerSeen = now;
        else if (outstandingWork() && !shuttingDown_ &&
                 static_cast<u64>(
                     std::chrono::duration_cast<
                         std::chrono::milliseconds>(now -
                                                    lastWorkerSeen)
                         .count()) > opts_.noWorkerTimeoutMs)
            runDegradedTail();
    }

    // Completion (or drained shutdown): release every worker.
    for (auto &c : conns_) {
        if (c.fd >= 0) {
            sendFrame(c.fd, MsgType::Shutdown, {});
            closeFabricFd(c.fd);
            c.fd = -1;
        }
    }
    // Stop listening too. A worker that connects late (spawned after
    // the campaign finished) is then refused at once and exits,
    // instead of sitting in an accept backlog nobody drains.
    closeFabricFd(listenFd_);
    listenFd_ = -1;

    // Merged counters past a halt cannot exist; past a shutdown they
    // were never merged (the stash beyond the contiguous prefix is
    // discarded, keeping the journal a resumable clean prefix).
    stash_.clear();
    return merge.result();
}

} // namespace fh::dist
