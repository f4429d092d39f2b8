/**
 * @file
 * Graceful-shutdown plumbing for long campaigns: a SIGINT/SIGTERM
 * handler latches a process-wide flag that fault::runCampaign polls
 * between trials. On the first signal the campaign stops opening new
 * trials, drains the ones already in flight, flushes its journal, and
 * returns a CampaignResult marked partial; a second signal falls back
 * to the default disposition (immediate kill) for a wedged run.
 *
 * The flag can also be set programmatically (requestShutdown), which
 * the resilience tests use to simulate a kill at a chosen trial and a
 * dist worker uses to drain when it loses its coordinator.
 */

#ifndef FH_EXEC_INTERRUPT_HH
#define FH_EXEC_INTERRUPT_HH

namespace fh::exec
{

/**
 * Install the SIGINT/SIGTERM handlers described above. Idempotent;
 * call once from a driver before starting a long campaign.
 */
void installShutdownHandlers();

/** True once a signal arrived or requestShutdown() was called. */
bool shutdownRequested();

/** Latch the shutdown flag without a signal (tests, embedders). */
void requestShutdown();

/**
 * The signal that latched the flag, or 0 when none did (programmatic
 * request, or no shutdown yet). The campaign coordinator uses this
 * to forward the *same* signal to its worker subprocesses, so a
 * session-level SIGTERM and an interactive ^C propagate faithfully.
 */
int shutdownSignal();

} // namespace fh::exec

#endif // FH_EXEC_INTERRUPT_HH
