#include "dist/worker.hh"

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

/** Shared state between the socket threads and the session loop. */
struct WorkerState
{
    int fd = -1;
    std::mutex sendMu; ///< trial/heartbeat/done frames never interleave
    std::atomic<u64> position{0};
    /** The session loop is over; set under doneMu (see finish). */
    std::atomic<bool> done{false};
    std::mutex doneMu;
    std::condition_variable doneCv; ///< wakes the heartbeat at done
    /** A Shutdown frame arrived: the coordinator released this worker,
     *  as opposed to the connection dying under it. */
    std::atomic<bool> released{false};

    std::mutex qMu;
    std::condition_variable qCv;
    std::deque<Frame> inbox;

    void push(Frame f)
    {
        {
            std::lock_guard<std::mutex> lk(qMu);
            inbox.push_back(std::move(f));
        }
        qCv.notify_all();
    }

    /** This worker is done with the connection: latch the process
     *  shutdown flag, which drains the session's range, and wake the
     *  session loop so it exits once the inbox is empty. */
    void hangUp()
    {
        {
            std::lock_guard<std::mutex> lk(qMu);
            exec::requestShutdown();
        }
        qCv.notify_all();
    }

    /** The session loop is over: end the heartbeat's wait at once,
     *  so a released worker does not sit out the rest of its period. */
    void finish()
    {
        {
            std::lock_guard<std::mutex> lk(doneMu);
            done.store(true, std::memory_order_relaxed);
        }
        doneCv.notify_all();
    }

    /** Send one frame; a failed send loses the connection. */
    bool send(MsgType type, const std::vector<u8> &payload)
    {
        bool sent;
        {
            std::lock_guard<std::mutex> lk(sendMu);
            sent = sendFrame(fd, type, payload);
        }
        if (!sent)
            hangUp();
        return sent;
    }
};

/**
 * Socket reads -> inbox, under poll so a partial frame that stops
 * making progress can be timed out (see WorkerOptions::stallTimeoutMs).
 * A Shutdown frame hangs up at once so the session's stop checks fire
 * mid-range; so does EOF or a corrupt or stalled stream, on its way
 * out.
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
                if (static_cast<MsgType>(f.type) == MsgType::Shutdown) {
                    st.released.store(true, std::memory_order_relaxed);
                    st.hangUp();
                } else {
                    st.push(std::move(f));
                }
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
    st.hangUp();
}

void
heartbeatLoop(WorkerState &st, u64 periodMs)
{
    while (!st.done.load(std::memory_order_relaxed)) {
        HeartbeatMsg hb;
        hb.position = st.position.load(std::memory_order_relaxed);
        if (!st.send(MsgType::Heartbeat, hb.encode()))
            break;
        std::unique_lock<std::mutex> lk(st.doneMu);
        st.doneCv.wait_for(lk, std::chrono::milliseconds(periodMs), [&st] {
            return st.done.load(std::memory_order_relaxed);
        });
    }
}

/**
 * The connection's lifetime: Hello/HelloAck, then serve leases until
 * the shutdown flag is up and the inbox is empty. True when the
 * coordinator released the worker with a Shutdown frame.
 */
bool
serve(int fd, const WorkerOptions &opts)
{
    WorkerState st;
    st.fd = fd;
    {
        HelloMsg hello;
        hello.pid = static_cast<u64>(::getpid());
        st.send(MsgType::Hello, hello.encode());
    }

    std::thread receiver(
        [&st, &opts] { receiverLoop(st, opts.stallTimeoutMs); });
    std::thread heartbeat(
        [&st, &opts] { heartbeatLoop(st, opts.heartbeatMs); });

    // The session is built from the Spec frame when the first lease
    // arrives. cfg.threads is host-local; everything deterministic
    // comes from the spec.
    CampaignSpec spec;
    std::string error;
    bool haveSpec = false;
    bool acked = false;
    std::unique_ptr<isa::Program> prog;
    pipeline::CoreParams params;
    fault::CampaignConfig ccfg;
    std::unique_ptr<fault::CampaignSession> session;

    while (true) {
        Frame f;
        {
            // Timed wait: a signal delivered straight to an idle
            // worker (process-group ^C) latches the flag without
            // notifying the cv, so poll it.
            std::unique_lock<std::mutex> lk(st.qMu);
            st.qCv.wait_for(lk, std::chrono::milliseconds(100), [&st] {
                return !st.inbox.empty() || exec::shutdownRequested();
            });
            if (st.inbox.empty()) {
                if (exec::shutdownRequested())
                    break;
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
                st.hangUp();
            } else if (!ack.accepted) {
                fh_warn("worker: coordinator rejected protocol "
                        "version %u (wants %u); exiting",
                        kProtocolVersion, ack.version);
                st.hangUp();
            } else {
                acked = true;
            }
            break;
        }
        case MsgType::Spec: {
            SpecMsg msg;
            if (!SpecMsg::decode(f.payload, msg) ||
                !CampaignSpec::decode(msg.text, spec, error)) {
                fh_warn("worker: bad campaign spec: %s", error.c_str());
                st.hangUp();
                break;
            }
            prog = std::make_unique<isa::Program>(spec.buildProgram());
            params = spec.buildParams();
            ccfg = spec.campaign;
            ccfg.threads = opts.jobs;
            haveSpec = true;
            break;
        }
        case MsgType::Assign: {
            AssignMsg a;
            if (!AssignMsg::decode(f.payload, a) || !haveSpec ||
                !acked) {
                fh_warn("worker: bad assign frame");
                st.hangUp();
                break;
            }
            // Ranges run forward within one session, so a lease below
            // its position (a re-issued range) gets a fresh session.
            if (session && a.begin < session->position())
                session.reset();
            if (!session) {
                session = std::make_unique<fault::CampaignSession>(
                    params, prog.get(), ccfg);
                st.position.store(0, std::memory_order_relaxed);
            }
            const fault::RangeOutcome out = session->runRange(
                a.begin, a.end,
                [&](u64 trial, const fault::CampaignResult &delta,
                    const fault::TrialMeta &meta) {
                    TrialMsg t;
                    t.trial = trial;
                    fault::packTrialCounters(delta, t.d);
                    fault::packTrialMeta(meta, t.m);
                    st.send(MsgType::Trial, t.encode());
                    st.position.store(trial + 1,
                                      std::memory_order_relaxed);
                });
            RangeDoneMsg doneMsg;
            doneMsg.nextTrial = out.nextTrial;
            doneMsg.halted = out.halted;
            doneMsg.stopped = out.stopped;
            st.send(MsgType::RangeDone, doneMsg.encode());
            break;
        }
        default:
            fh_warn("worker: unexpected frame type %u",
                    static_cast<unsigned>(f.type));
            break;
        }
    }

    st.finish();
    // Unblock the receiver's poll/recv and stop further sends.
    ::shutdown(st.fd, SHUT_RDWR);
    receiver.join();
    heartbeat.join();
    closeFabricFd(st.fd);
    return st.released.load(std::memory_order_relaxed);
}

} // namespace

int
runWorker(const WorkerOptions &opts)
{
    exec::installShutdownHandlers();
    std::string error;
    const int fd = connectTo(opts.endpoint, error);
    if (fd < 0)
        fh_warn("worker: %s", error.c_str());
    const bool released = fd >= 0 && serve(fd, opts);
    return (released || exec::shutdownSignal() != 0) ? 0 : 1;
}

} // namespace fh::dist
