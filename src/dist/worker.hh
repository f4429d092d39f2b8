/**
 * @file
 * Campaign worker: connects to a coordinator, receives the campaign
 * spec, and executes leased trial ranges through a CampaignSession,
 * streaming each completed trial's counter deltas back in trial order.
 *
 * Threads: the main thread runs the session (and owns the socket for
 * ordered sends); a receiver thread polls the socket so a Shutdown
 * frame latches the process shutdown flag even mid-range — the
 * session's own stop checks then drain the range; a heartbeat thread
 * proves liveness independently of trial completion, so a worker
 * grinding one slow fork is distinguishable from a hung one. All
 * sends go through one mutex: frames never interleave.
 *
 * A worker serves exactly one connection. When it dies — EOF, a
 * corrupt or CRC-failed stream, a stalled partial frame, a failed
 * send, or the coordinator dropping it — the worker latches the same
 * process shutdown flag, drains its range and exits; the coordinator
 * re-issues the unacknowledged rest of its lease to a live worker, as
 * it does for a killed one. Because the flag is process-wide,
 * runWorker must run in a process of its own, as every spawnFn child
 * does.
 */

#ifndef FH_DIST_WORKER_HH
#define FH_DIST_WORKER_HH

#include "dist/wire.hh"

namespace fh::dist
{

struct WorkerOptions
{
    Endpoint endpoint;
    /** Host threads for the per-trial forks (CampaignConfig::threads);
     *  0 = fault::resolveForkThreads' default. */
    unsigned jobs = 1;
    u64 heartbeatMs = 300;

    /**
     * How long a partial frame may sit in the receive buffer without
     * completing before the connection is declared corrupt. Guards
     * against a flipped *length* field on the coordinator->worker
     * path: the mis-sized frame never completes, yet the worker's own
     * heartbeats would keep its lease alive forever — a livelock no
     * timeout on the coordinator side can see.
     */
    u64 stallTimeoutMs = 2000;
};

/**
 * Run a worker to completion in this process (see the file comment).
 * Returns a process exit code: 0 after a Shutdown frame or a local
 * SIGINT/SIGTERM, 1 otherwise (connection refused or lost, protocol
 * failure, version rejection, bad spec).
 */
int runWorker(const WorkerOptions &opts);

} // namespace fh::dist

#endif // FH_DIST_WORKER_HH
