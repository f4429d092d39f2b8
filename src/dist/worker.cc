#include "dist/worker.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dist/chaos.hh"
#include "dist/messages.hh"
#include "dist/spec.hh"
#include "exec/interrupt.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "sim/logging.hh"

namespace fh::dist
{

namespace
{

/** Shared state between the socket threads and the session loop,
 *  scoped to ONE connection. */
struct WorkerState
{
    int fd = -1;
    std::mutex sendMu; ///< trial/heartbeat/done frames never interleave
    std::atomic<u64> position{0};
    std::atomic<bool> done{false};
    /** This connection is gone (EOF, corrupt stream, stalled frame, or
     *  failed send). Latched per-connection — unlike the global
     *  shutdown flag, it permits a reconnect. The session aborts on it
     *  via CampaignConfig::abortFlag. */
    std::atomic<bool> connDead{false};

    std::mutex qMu;
    std::condition_variable qCv;
    std::deque<Frame> inbox;
    bool eof = false;

    void push(Frame f)
    {
        {
            std::lock_guard<std::mutex> lk(qMu);
            inbox.push_back(std::move(f));
        }
        qCv.notify_all();
    }

    void markEof()
    {
        {
            std::lock_guard<std::mutex> lk(qMu);
            eof = true;
        }
        qCv.notify_all();
    }
};

/**
 * Socket reads -> inbox, under poll so a partial frame that stops
 * making progress can be timed out (see WorkerOptions::stallTimeoutMs).
 * A Shutdown frame latches the process shutdown flag immediately so
 * the session's stop checks fire mid-range. EOF / corruption latch
 * only connDead: the coordinator may be restarting, and the outer
 * reconnect loop decides whether to re-dial.
 */
void
receiverLoop(WorkerState &st, u64 stallTimeoutMs)
{
    using Clock = std::chrono::steady_clock;
    FrameReader reader;
    u8 buf[4096];
    bool stalled = false;
    Clock::time_point stallStart{};
    while (true) {
        pollfd pfd{st.fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0 && errno != EINTR)
            break;
        if (st.done.load(std::memory_order_relaxed))
            break;
        if (pr > 0) {
            const ssize_t n = ::recv(st.fd, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            reader.feed(buf, static_cast<size_t>(n));
            Frame f;
            while (reader.next(f)) {
                if (static_cast<MsgType>(f.type) == MsgType::Shutdown)
                    exec::requestShutdown();
                st.push(std::move(f));
            }
            if (reader.corrupt()) {
                fh_warn("worker: coordinator stream corrupt "
                        "(%llu crc error(s)); dropping connection",
                        static_cast<unsigned long long>(
                            reader.crcErrors()));
                break;
            }
        }
        // Stall watchdog: a partial frame that never completes (e.g. a
        // flipped length field promising bytes that never come) would
        // otherwise hang here forever while our heartbeats keep the
        // lease alive on the coordinator.
        if (reader.pendingBytes() > 0) {
            const auto now = Clock::now();
            if (!stalled) {
                stalled = true;
                stallStart = now;
            } else if (std::chrono::duration_cast<
                           std::chrono::milliseconds>(now - stallStart)
                           .count() >=
                       static_cast<long long>(stallTimeoutMs)) {
                fh_warn("worker: partial frame stalled %llu ms; "
                        "dropping connection",
                        static_cast<unsigned long long>(
                            stallTimeoutMs));
                break;
            }
        } else {
            stalled = false;
        }
    }
    st.connDead.store(true, std::memory_order_relaxed);
    st.markEof();
}

void
heartbeatLoop(WorkerState &st, u64 periodMs)
{
    while (!st.done.load(std::memory_order_relaxed) &&
           !st.connDead.load(std::memory_order_relaxed)) {
        {
            std::lock_guard<std::mutex> lk(st.sendMu);
            HeartbeatMsg hb;
            hb.position = st.position.load(std::memory_order_relaxed);
            if (!sendFrame(st.fd, MsgType::Heartbeat, hb.encode())) {
                st.connDead.store(true, std::memory_order_relaxed);
                break;
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(periodMs));
    }
}

enum class ConnOutcome
{
    CleanShutdown, ///< Shutdown frame or local signal: exit 0
    Fatal,         ///< version rejected / bad spec: exit 1, no retry
    Lost,          ///< connection died: reconnect with backoff
};

/**
 * One connection's lifetime: dial, Hello/HelloAck, then serve leases
 * until shutdown or the connection dies. `progressed` is set once a
 * Spec or Assign arrives, resetting the caller's reconnect budget.
 */
ConnOutcome
runConnection(const WorkerOptions &opts, u32 reconnect,
              bool &progressed)
{
    WorkerState st;
    std::string error;
    st.fd = connectTo(opts.endpoint, error);
    if (st.fd < 0) {
        fh_warn("worker: %s", error.c_str());
        return exec::shutdownRequested() ? ConnOutcome::CleanShutdown
                                         : ConnOutcome::Lost;
    }

    {
        HelloMsg hello;
        hello.pid = static_cast<u64>(::getpid());
        hello.reconnect = reconnect;
        std::lock_guard<std::mutex> lk(st.sendMu);
        if (!sendFrame(st.fd, MsgType::Hello, hello.encode())) {
            closeFabricFd(st.fd);
            return ConnOutcome::Lost;
        }
    }

    std::thread receiver(
        [&st, &opts] { receiverLoop(st, opts.stallTimeoutMs); });
    std::thread heartbeat(
        [&st, &opts] { heartbeatLoop(st, opts.heartbeatMs); });

    // The session is built from the Spec frame once per connection; a
    // stolen (re-issued) lease behind the current position rewinds it
    // to the post-warmup snapshot instead of re-running warmup —
    // ranges must be visited forward within one pass. cfg.threads is
    // host-local; everything deterministic comes from the spec.
    CampaignSpec spec;
    bool haveSpec = false;
    bool acked = false;
    std::unique_ptr<isa::Program> prog;
    pipeline::CoreParams params;
    fault::CampaignConfig ccfg;
    std::unique_ptr<fault::CampaignSession> session;

    ConnOutcome outcome = ConnOutcome::Lost;
    while (true) {
        Frame f;
        {
            // Timed wait: a signal delivered straight to an idle
            // worker (process-group ^C) latches the flag without
            // notifying the cv, so poll it.
            std::unique_lock<std::mutex> lk(st.qMu);
            st.qCv.wait_for(lk, std::chrono::milliseconds(100),
                            [&st] {
                                return !st.inbox.empty() || st.eof;
                            });
            if (st.inbox.empty()) {
                if (exec::shutdownRequested()) {
                    outcome = ConnOutcome::CleanShutdown;
                    break;
                }
                if (st.eof)
                    break; // outcome stays Lost
                continue;
            }
            f = std::move(st.inbox.front());
            st.inbox.pop_front();
        }

        switch (static_cast<MsgType>(f.type)) {
        case MsgType::HelloAck: {
            HelloAckMsg ack;
            if (!HelloAckMsg::decode(f.payload, ack)) {
                fh_warn("worker: bad hello-ack frame");
                outcome = ConnOutcome::Lost;
            } else if (!ack.accepted) {
                fh_warn("worker: coordinator rejected protocol "
                        "version %u (wants %u); exiting",
                        kProtocolVersion, ack.version);
                outcome = ConnOutcome::Fatal;
            } else {
                acked = true;
                break;
            }
            st.done.store(true, std::memory_order_relaxed);
            ::shutdown(st.fd, SHUT_RDWR);
            receiver.join();
            heartbeat.join();
            closeFabricFd(st.fd);
            return outcome;
        }
        case MsgType::Spec: {
            SpecMsg msg;
            if (!SpecMsg::decode(f.payload, msg) ||
                !CampaignSpec::decode(msg.text, spec, error)) {
                fh_warn("worker: bad campaign spec: %s", error.c_str());
                st.done.store(true, std::memory_order_relaxed);
                ::shutdown(st.fd, SHUT_RDWR);
                receiver.join();
                heartbeat.join();
                closeFabricFd(st.fd);
                return ConnOutcome::Fatal;
            }
            prog = std::make_unique<isa::Program>(spec.buildProgram());
            params = spec.buildParams();
            ccfg = spec.campaign;
            ccfg.threads = opts.jobs;
            ccfg.abortFlag = &st.connDead;
            haveSpec = true;
            progressed = true;
            break;
        }
        case MsgType::Assign: {
            AssignMsg a;
            if (!AssignMsg::decode(f.payload, a) || !haveSpec ||
                !acked) {
                fh_warn("worker: bad assign frame");
                st.connDead.store(true, std::memory_order_relaxed);
                break;
            }
            progressed = true;
            if (!session) {
                session = std::make_unique<fault::CampaignSession>(
                    params, prog.get(), ccfg);
                st.position.store(0, std::memory_order_relaxed);
            } else if (a.begin < session->position()) {
                session->rewind();
                st.position.store(0, std::memory_order_relaxed);
            }
            fault::RangeOutcome out = session->runRange(
                a.begin, a.end,
                [&](u64 trial, const fault::CampaignResult &delta,
                    const fault::TrialMeta &meta) {
                    TrialMsg t;
                    t.trial = trial;
                    fault::packTrialCounters(delta, t.d);
                    fault::packTrialMeta(meta, t.m);
                    std::lock_guard<std::mutex> lk(st.sendMu);
                    if (!sendFrame(st.fd, MsgType::Trial, t.encode()))
                        st.connDead.store(true,
                                          std::memory_order_relaxed);
                    st.position.store(trial + 1,
                                      std::memory_order_relaxed);
                });
            if (!st.connDead.load(std::memory_order_relaxed)) {
                RangeDoneMsg doneMsg;
                doneMsg.nextTrial = out.nextTrial;
                doneMsg.halted = out.halted;
                doneMsg.stopped = out.stopped;
                std::lock_guard<std::mutex> lk(st.sendMu);
                if (!sendFrame(st.fd, MsgType::RangeDone,
                               doneMsg.encode()))
                    st.connDead.store(true,
                                      std::memory_order_relaxed);
            }
            break;
        }
        case MsgType::Shutdown:
            // The receiver already latched the flag; just fall out.
            break;
        default:
            fh_warn("worker: unexpected frame type %u",
                    static_cast<unsigned>(f.type));
            break;
        }

        if (exec::shutdownRequested()) {
            std::lock_guard<std::mutex> lk(st.qMu);
            if (st.inbox.empty()) {
                outcome = ConnOutcome::CleanShutdown;
                break;
            }
        }
    }

    st.done.store(true, std::memory_order_relaxed);
    // Unblock the receiver's poll/recv and stop further sends.
    ::shutdown(st.fd, SHUT_RDWR);
    receiver.join();
    heartbeat.join();
    closeFabricFd(st.fd);
    return outcome;
}

/** splitmix64, for backoff jitter — cheap and dependency-free. */
u64
jitterMix(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Interruptible sleep: returns early once shutdown is requested. */
void
sleepMs(u64 ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    while (!exec::shutdownRequested() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

int
runWorker(const WorkerOptions &opts)
{
    exec::installShutdownHandlers();
    chaos::reload();

    // Decorrelated jitter (sleep ~ uniform(base, prev*3), capped):
    // reconnecting workers spread out instead of thundering back into
    // a restarting coordinator in lockstep.
    u64 prevSleepMs = opts.backoffBaseMs;
    u64 jitterState =
        static_cast<u64>(::getpid()) * 0x9E3779B97F4A7C15ull;
    unsigned attempts = 0;
    u32 reconnects = 0;
    while (true) {
        bool progressed = false;
        const ConnOutcome out =
            runConnection(opts, reconnects, progressed);
        if (out == ConnOutcome::CleanShutdown)
            return 0;
        if (out == ConnOutcome::Fatal)
            return 1;
        if (exec::shutdownRequested())
            return 0;
        if (progressed)
            attempts = 0; // the fabric was alive; fresh budget
        if (++attempts > opts.maxReconnects) {
            fh_warn("worker: coordinator unreachable after %u "
                    "attempt(s); giving up",
                    opts.maxReconnects);
            return 1;
        }
        jitterState = jitterMix(jitterState);
        const u64 lo = opts.backoffBaseMs;
        const u64 hi = std::max<u64>(lo + 1, prevSleepMs * 3);
        const u64 sleep =
            std::min(opts.backoffCapMs, lo + jitterState % (hi - lo));
        fh_warn("worker: connection lost; reconnect %u in %llu ms",
                reconnects + 1,
                static_cast<unsigned long long>(sleep));
        sleepMs(sleep);
        prevSleepMs = sleep;
        ++reconnects;
        if (exec::shutdownRequested())
            return 0;
    }
}

} // namespace fh::dist
