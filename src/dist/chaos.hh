/**
 * @file
 * Deterministic network-fault interposer for the distributed fabric —
 * FaultHound turned on its own infrastructure. When armed (via
 * `FH_CHAOS=seed[:rates]` in the environment), every outbound frame is
 * routed through chaos::send(), which consults a seeded counter-mode
 * PRNG to decide whether to deliver the frame clean or to perturb it:
 *
 *   drop   — frame never sent; the connection is then shut down.
 *   trunc  — a random prefix is sent, then the connection is shut down.
 *   flip   — one random bit anywhere in the frame is inverted.
 *   dup    — the frame is sent twice back-to-back.
 *   delay  — the send is stalled 1–20 ms, then delivered clean.
 *   reset  — the frame is sent, then the connection is shut down.
 *
 * Drop and trunc deliberately kill the connection rather than letting
 * the stream continue: on a healthy TCP/unix stream, bytes do not
 * vanish from the middle — partial delivery only happens when the
 * connection itself dies. Silently swallowing a frame while keeping
 * the stream alive would model a failure TCP cannot produce, and would
 * livelock the fabric (a dropped Assign with live heartbeats stalls a
 * lease forever). Flip and dup keep the connection alive; the
 * receiver's CRC / protocol checks are what must catch them.
 *
 * Decisions are a pure function of (seed, global frame ordinal), so a
 * chaos schedule is reproducible for a fixed interleaving and — more
 * importantly — the *oracle* is deterministic regardless: whatever the
 * schedule does, the campaign result must be bit-identical to the
 * clean run (see tests/test_chaos.cc).
 *
 * The rates string is `key=per-mille` pairs joined by commas, e.g.
 * `FH_CHAOS=42:drop=5,flip=10`. Omitted keys are zero; a bare seed
 * (`FH_CHAOS=42`) uses a default mixed schedule. Unknown keys are a
 * fatal config error, not a silent no-op.
 */

#ifndef FH_DIST_CHAOS_HH
#define FH_DIST_CHAOS_HH

#include <cstddef>

#include "sim/types.hh"

namespace fh::dist::chaos
{

/**
 * Re-read FH_CHAOS from the environment and reset the frame ordinal.
 * Called by the coordinator constructor and runWorker() so
 * each fabric process arms itself exactly once per run; tests call it
 * after setenv/unsetenv to flip chaos on and off mid-process.
 */
void reload();

/** True when FH_CHAOS is armed for this process. */
bool enabled();

/**
 * Chaos-mediated frame transmission (called by sendFrame when
 * enabled). Returns false when the frame was not (fully) delivered —
 * the connection has then already been shut down and the caller should
 * treat the peer as lost.
 */
bool send(int fd, const u8 *frame, size_t n);

} // namespace fh::dist::chaos

#endif // FH_DIST_CHAOS_HH
