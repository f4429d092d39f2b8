#include "dist/coordinator.hh"

#include <algorithm>
#include <cerrno>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dist/chaos.hh"
#include "dist/messages.hh"
#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "sim/logging.hh"

namespace fh::dist
{

Coordinator::Coordinator(const CampaignSpec &spec,
                         const CoordinatorOptions &opts)
    : spec_(spec), opts_(opts), listen_(opts.listen),
      strata_(spec.campaign.mix)
{
    chaos::reload();
    std::string error;
    listenFd_ = listenOn(listen_, error);
    if (listenFd_ < 0)
        fh_fatal("coordinator: %s", error.c_str());
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);
    effectiveEnd_ = spec_.campaign.injections;
}

Coordinator::~Coordinator()
{
    for (auto &c : conns_)
        if (c.fd >= 0)
            closeFabricFd(c.fd);
    if (listenFd_ >= 0)
        closeFabricFd(listenFd_);
    if (listen_.unixDomain)
        ::unlink(listen_.host.c_str());
}

void
Coordinator::addChild(pid_t pid)
{
    children_.push_back(pid);
}

void
Coordinator::requeue(Range r)
{
    r.end = std::min(r.end, effectiveEnd_);
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
Coordinator::applyHalt(u64 haltTrial)
{
    // The workload ran out at haltTrial: deterministically, no process
    // can produce a trial at or past it. Shrink the campaign.
    if (haltTrial >= effectiveEnd_)
        return;
    effectiveEnd_ = haltTrial;
    std::deque<Range> kept;
    for (Range r : queue_) {
        r.end = std::min(r.end, effectiveEnd_);
        if (r.begin < r.end)
            kept.push_back(r);
    }
    queue_.swap(kept);
}

void
Coordinator::drainStash(fault::TrialJournal *journal)
{
    auto it = stash_.find(mergedNext_);
    while (it != stash_.end() && it->first == mergedNext_ &&
           mergedNext_ < effectiveEnd_) {
        result_ += it->second.delta;
        result_.profile.addTrial(it->second.delta, it->second.meta);
        if (journal)
            journal->record(mergedNext_, it->second.delta,
                            it->second.meta);
        if (opts_.progress)
            opts_.progress->tick();
        ++stats_.trialsMerged;
        it = stash_.erase(it);
        ++mergedNext_;
        // Adaptive wave barrier: the stop rule fires only on the
        // merged contiguous prefix at a wave boundary — the identical
        // decision point a single-process run evaluates — so further
        // stashed records (from leases already in flight) are simply
        // never merged.
        maybeCiStop();
    }
    if (opts_.stopAfterMerged && !shuttingDown_ &&
        stats_.trialsMerged >= opts_.stopAfterMerged) {
        beginShutdown();
    }
}

void
Coordinator::maybeCiStop()
{
    const fault::CampaignConfig &cc = spec_.campaign;
    if (cc.ciTarget <= 0.0 || result_.ciStopped ||
        mergedNext_ >= effectiveEnd_ || mergedNext_ == 0) {
        return;
    }
    const u64 wave = std::max<u64>(cc.ciWave, 1);
    if (mergedNext_ % wave != 0)
        return;
    if (fault::pooledSdcHalfWidth(result_.profile, strata_) >
        cc.ciTarget) {
        return;
    }
    // Same shrink-and-truncate as a halt report: no trial at or past
    // the boundary is merged, queued chunks past it are dropped, and
    // in-flight leases resolve normally (their stashed records beyond
    // the boundary are discarded at the end).
    result_.ciStopped = true;
    effectiveEnd_ = mergedNext_;
    std::deque<Range> kept;
    for (Range r : queue_) {
        r.end = std::min(r.end, effectiveEnd_);
        if (r.begin < r.end)
            kept.push_back(r);
    }
    queue_.swap(kept);
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
    fh_warn("coordinator: worker %llu dropped (%s)",
            static_cast<unsigned long long>(c.pid), why);
    closeFabricFd(c.fd);
    c.fd = -1;
    ++stats_.workersDied;
    if (c.hasLease) {
        c.hasLease = false;
        // Everything at or past the acknowledged prefix re-executes
        // elsewhere; everything below it was already merged (or sits
        // in the stash), so nothing is lost and nothing duplicates.
        if (!shuttingDown_) {
            requeue({c.leaseNext, c.lease.end});
            ++stats_.rangesReissued;
            // Strike the pid, not the connection: a worker that keeps
            // losing leases (flapping link, sick host) gets benched so
            // healthy workers stop paying the re-execution tax.
            Strikes &q = quarantine_[c.pid];
            if (++q.strikes >= opts_.quarantineStrikes) {
                q.strikes = 0;
                q.until = Clock::now() +
                          std::chrono::milliseconds(
                              opts_.quarantineCooloffMs);
                ++stats_.quarantined;
                fh_warn("coordinator: worker %llu quarantined for "
                        "%llu ms after repeated lease failures",
                        static_cast<unsigned long long>(c.pid),
                        static_cast<unsigned long long>(
                            opts_.quarantineCooloffMs));
            }
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
            fh_warn("coordinator: worker speaks protocol %u, want %u",
                    hello.version, kProtocolVersion);
            return false;
        }
        c.helloed = true;
        c.pid = hello.pid;
        ++stats_.workersJoined;
        if (hello.reconnect > 0)
            ++stats_.reconnects;
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
        quarantine_.erase(c.pid); // a finished lease clears strikes
        if (done.halted) {
            // The workload can run out during the skip-advance before
            // the lease's first trial, so the halt point may land
            // below the acknowledged prefix — never above it.
            if (done.nextTrial > c.leaseNext)
                return false;
            c.hasLease = false;
            applyHalt(done.nextTrial);
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
    // Pass 0 leases only to non-quarantined workers. Pass 1 is the
    // starvation fallback: if work remains, nothing is in flight, and
    // every idle worker is benched, a quarantined worker is still
    // better than stalling until the no-worker timeout degrades the
    // run — at worst it fails the lease again and the range requeues.
    for (int pass = 0; pass < 2; ++pass) {
        if (queue_.empty())
            return;
        if (pass == 1) {
            for (const auto &c : conns_)
                if (c.fd >= 0 && c.hasLease)
                    return;
        }
        for (auto &c : conns_) {
            if (queue_.empty())
                return;
            if (c.fd < 0 || !c.helloed || c.hasLease)
                continue;
            if (pass == 0) {
                const auto it = quarantine_.find(c.pid);
                if (it != quarantine_.end() && now < it->second.until)
                    continue;
            }
            Range r = queue_.front();
            queue_.pop_front();
            c.hasLease = true;
            c.lease = r;
            c.leaseNext = r.begin;
            c.lastHeard = now;
            ++stats_.rangesIssued;
            AssignMsg a;
            a.begin = r.begin;
            a.end = r.end;
            if (!sendFrame(c.fd, MsgType::Assign, a.encode()))
                dropConn(c, "send failed");
        }
    }
}

/**
 * Dead-fleet fallback: execute the unmerged tail in-process. Because
 * each trial is a pure function of (spec, trial index), the local
 * session produces the same records a worker would have streamed —
 * counters, journal bytes and the adaptive stop point are identical
 * to both the distributed and the single-process run. Everything the
 * fleet left behind (queued chunks, stashed out-of-order records) is
 * discarded first: the local session regenerates it from mergedNext_.
 */
void
Coordinator::runDegradedTail(fault::TrialJournal *journal)
{
    stats_.degraded = true;
    fh_warn("coordinator: no live workers for %llu ms; degrading to "
            "in-process execution of %llu remaining trial(s)",
            static_cast<unsigned long long>(opts_.noWorkerTimeoutMs),
            static_cast<unsigned long long>(effectiveEnd_ -
                                            mergedNext_));
    queue_.clear();
    stash_.clear();

    const isa::Program prog = spec_.buildProgram();
    const pipeline::CoreParams params = spec_.buildParams();
    fault::CampaignConfig ccfg = spec_.campaign;
    ccfg.journalPath.clear(); // the coordinator's journal, fed below
    ccfg.progress = nullptr;
    fault::CampaignSession session(params, &prog, ccfg);

    const u64 wave = std::max<u64>(ccfg.ciWave, 1);
    while (mergedNext_ < effectiveEnd_ && !exec::shutdownRequested()) {
        // Adaptive campaigns evaluate the stop rule only at wave
        // boundaries on the merged prefix; chunking each runRange at
        // the next boundary keeps the overshoot within one wave, the
        // same bound the lease path has.
        u64 end = effectiveEnd_;
        if (ccfg.ciTarget > 0.0)
            end = std::min(end, ((mergedNext_ / wave) + 1) * wave);
        const fault::RangeOutcome out = session.runRange(
            mergedNext_, end,
            [&](u64 trial, const fault::CampaignResult &delta,
                const fault::TrialMeta &meta) {
                if (trial != mergedNext_ || trial >= effectiveEnd_)
                    return;
                result_ += delta;
                result_.profile.addTrial(delta, meta);
                if (journal)
                    journal->record(trial, delta, meta);
                if (opts_.progress)
                    opts_.progress->tick();
                ++stats_.trialsMerged;
                ++mergedNext_;
                maybeCiStop();
            });
        if (out.halted) {
            applyHalt(out.nextTrial);
            break;
        }
        if (out.stopped)
            break;
    }
}

bool
Coordinator::outstandingWork() const
{
    if (mergedNext_ < effectiveEnd_)
        return true;
    for (const auto &c : conns_)
        if (c.fd >= 0 && c.hasLease)
            return true;
    return false;
}

fault::CampaignResult
Coordinator::run(fault::TrialJournal *journal)
{
    // Replay the journaled prefix upfront, exactly like runCampaign:
    // those trials' gaps are skip-advanced by whichever worker draws
    // the first unjournaled range.
    if (journal) {
        for (u64 t = 0; t < journal->replayCount(); ++t) {
            result_ += journal->replayed(t);
            result_.profile.addTrial(journal->replayed(t),
                                     journal->replayedMeta(t));
            ++result_.replayedTrials;
            if (opts_.progress)
                opts_.progress->tick();
        }
        mergedNext_ = journal->replayCount();
        // A resumed adaptive campaign whose journaled prefix already
        // satisfies the stop rule must stop at the same wave instead
        // of leasing more work.
        maybeCiStop();
    }

    // Chunking: ~4 leases per expected worker bounds both the lost
    // work on a death (one chunk) and the skip-advance overhead (a
    // worker's next lease starts near where its last one ended).
    if (mergedNext_ < effectiveEnd_) {
        const u64 total = effectiveEnd_ - mergedNext_;
        u64 chunk = opts_.chunk;
        if (chunk == 0)
            chunk = std::max<u64>(
                1, total / std::max<u64>(1, u64{opts_.workers} * 4));
        for (u64 b = mergedNext_; b < effectiveEnd_; b += chunk)
            queue_.push_back(
                {b, std::min(b + chunk, effectiveEnd_)});
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
        drainStash(journal);

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
        drainStash(journal);

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
            runDegradedTail(journal);
    }

    // Completion (or drained shutdown): release every worker.
    for (auto &c : conns_) {
        if (c.fd >= 0) {
            sendFrame(c.fd, MsgType::Shutdown, {});
            closeFabricFd(c.fd);
            c.fd = -1;
        }
    }
    // Stop listening too. A worker that missed its Shutdown (a reset
    // or a lost frame) is then refused on reconnect and gives up after
    // its backoff, instead of filling the accept backlog with
    // connections nobody accepts and blocking in connect() for minutes.
    closeFabricFd(listenFd_);
    listenFd_ = -1;

    // Merged counters past a halt cannot exist; past a shutdown they
    // were never merged (the stash beyond the contiguous prefix is
    // discarded, keeping the journal a resumable clean prefix).
    stash_.clear();
    result_.partial = mergedNext_ < effectiveEnd_;
    return result_;
}

} // namespace fh::dist
