#include "exec/interrupt.hh"

#include <atomic>
#include <csignal>

namespace fh::exec
{

namespace
{

/** sig_atomic_t for the handler, mirrored into an atomic for readers
 *  on other threads. */
volatile std::sig_atomic_t g_signalled = 0;
volatile std::sig_atomic_t g_signal_no = 0;
std::atomic<bool> g_shutdown{false};

extern "C" void
onShutdownSignal(int sig)
{
    g_signal_no = sig;
    g_signalled = 1;
    g_shutdown.store(true, std::memory_order_relaxed);
    // One polite request only: restore the default disposition so a
    // second ^C kills a campaign that wedged during its drain.
    std::signal(sig, SIG_DFL);
}

} // namespace

void
installShutdownHandlers()
{
    std::signal(SIGINT, onShutdownSignal);
    std::signal(SIGTERM, onShutdownSignal);
}

bool
shutdownRequested()
{
    return g_signalled != 0 ||
           g_shutdown.load(std::memory_order_relaxed);
}

void
requestShutdown()
{
    g_shutdown.store(true, std::memory_order_relaxed);
}

int
shutdownSignal()
{
    return static_cast<int>(g_signal_no);
}

} // namespace fh::exec
