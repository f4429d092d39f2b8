/**
 * @file
 * Local worker spawner: fork+fn for the tests and benchmarks that want
 * a real worker *process* (its own shutdown flag, its own sockets,
 * killable with signal 9), and ChildGuard, which keeps such a process
 * from outliving its parent.
 */

#ifndef FH_DIST_SPAWNER_HH
#define FH_DIST_SPAWNER_HH

#include <functional>

#include <sys/types.h>

namespace fh::dist
{

/** fork; the child runs fn() and _exit()s with its return value (no
 *  atexit handlers, no flushing parent-inherited buffers twice).
 *  Returns the child pid, or -1 on failure. */
pid_t spawnFn(const std::function<int()> &fn);

/** Blocking reap; returns the exit status (or -1 on waitpid error). */
int reap(pid_t pid);

/**
 * Last-resort orphan prevention for spawned worker processes.
 *
 * fh_fatal std::exit()s and fh_panic (strict mode) aborts — neither
 * unwinds, so no RAII cleanup ever runs on those paths, and a
 * coordinator dying mid-campaign used to leave its forked workers
 * running forever. ChildGuard registers every spawned pid in a
 * process-global table; the first add() installs an atexit hook
 * (SIGTERM, short grace, then SIGKILL + reap) and a SIGABRT handler
 * (async-signal-safe SIGKILL + reap, then re-raise). Normal-path code
 * should still reap children itself and remove() them — the guard only
 * fires for pids still registered when the process dies.
 */
namespace ChildGuard
{
/** Register a child for at-death cleanup (first call installs the
 *  exit/abort hooks). */
void add(pid_t pid);
/** Deregister after a normal reap; unknown pids are ignored. */
void remove(pid_t pid);
} // namespace ChildGuard

} // namespace fh::dist

#endif // FH_DIST_SPAWNER_HH
