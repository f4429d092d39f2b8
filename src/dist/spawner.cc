#include "dist/spawner.hh"

#include "dist/wire.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace fh::dist
{

namespace ChildGuard
{
/** Clears the inherited pid table in a freshly forked child; without
 *  this a child dying via std::exit/abort would kill its *siblings*
 *  (the table and the hooks survive fork). Internal to spawnFn —
 *  deliberately not in the header. */
void resetInChild();
} // namespace ChildGuard

pid_t
spawnFn(const std::function<int()> &fn)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ChildGuard::resetInChild();
    // An inherited fabric socket keeps the stream alive after its real
    // owner dies — the peer never sees EOF (see wire.hh).
    closeFabricFdsInChild();
    _exit(fn());
}

int
reap(pid_t pid)
{
    int status = 0;
    pid_t r;
    do {
        r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    return r == pid ? status : -1;
}

namespace ChildGuard
{

namespace
{

// Fixed-size lock-free table: the SIGABRT handler may only touch
// async-signal-safe state, and fh_fatal's std::exit path must not
// allocate either. Slots hold 0 when empty; adds scan for a free
// slot, removes scan for the pid.
constexpr size_t kMaxGuarded = 256;
std::atomic<pid_t> gPids[kMaxGuarded];
std::once_flag gInstallOnce;

void
killAll(int sig)
{
    for (auto &slot : gPids) {
        const pid_t pid = slot.load(std::memory_order_relaxed);
        if (pid > 0)
            ::kill(pid, sig);
    }
}

/** Reap whatever already exited; true when the table drained. */
bool
reapExited()
{
    bool allGone = true;
    for (auto &slot : gPids) {
        const pid_t pid = slot.load(std::memory_order_relaxed);
        if (pid <= 0)
            continue;
        int status;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            slot.store(0, std::memory_order_relaxed);
        else
            allGone = false;
    }
    return allGone;
}

void
atExitHook()
{
    killAll(SIGTERM);
    // Grace period for a clean drain, polled so a prompt exit stays
    // prompt; then the hammer.
    for (int i = 0; i < 100; ++i) {
        if (reapExited())
            return;
        struct timespec ts{0, 20 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    killAll(SIGKILL);
    for (auto &slot : gPids) {
        const pid_t pid = slot.load(std::memory_order_relaxed);
        if (pid > 0) {
            int status;
            ::waitpid(pid, &status, 0);
            slot.store(0, std::memory_order_relaxed);
        }
    }
}

void
abortHandler(int sig)
{
    // Async-signal-safe only: kill(2), waitpid(2), sigaction(2).
    // No grace period — the process is aborting right now.
    killAll(SIGKILL);
    for (auto &slot : gPids) {
        const pid_t pid = slot.load(std::memory_order_relaxed);
        if (pid > 0) {
            int status;
            ::waitpid(pid, &status, 0);
        }
    }
    struct sigaction sa{};
    sa.sa_handler = SIG_DFL;
    ::sigaction(sig, &sa, nullptr);
    ::raise(sig);
}

} // namespace

void
resetInChild()
{
    for (auto &slot : gPids)
        slot.store(0, std::memory_order_relaxed);
}

void
add(pid_t pid)
{
    if (pid <= 0)
        return;
    std::call_once(gInstallOnce, [] {
        std::atexit(atExitHook);
        struct sigaction sa{};
        sa.sa_handler = abortHandler;
        ::sigaction(SIGABRT, &sa, nullptr);
    });
    for (auto &slot : gPids) {
        pid_t expect = 0;
        if (slot.compare_exchange_strong(expect, pid,
                                         std::memory_order_relaxed))
            return;
    }
    // Table full: nothing guards this pid. 256 concurrent local
    // workers is far past any real campaign; don't fail the spawn.
}

void
remove(pid_t pid)
{
    for (auto &slot : gPids) {
        pid_t expect = pid;
        if (slot.compare_exchange_strong(expect, 0,
                                         std::memory_order_relaxed))
            return;
    }
}

} // namespace ChildGuard

} // namespace fh::dist
