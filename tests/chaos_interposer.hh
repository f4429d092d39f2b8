/**
 * @file
 * Deterministic network-fault interposer for the distributed fabric's
 * chaos suite — FaultHound turned on its own infrastructure. Armed
 * with a Schedule, it becomes the wire's send hook
 * (dist::setSendHook): every frame this process sends afterwards —
 * and every frame of the workers it then forks, which inherit the
 * hook — goes through send() below, which consults a seeded
 * counter-mode PRNG to deliver the frame clean or to perturb it:
 *
 *   drop   — frame never sent; the connection is then shut down.
 *   trunc  — a random prefix is sent, then the connection is shut down.
 *   flip   — one random bit anywhere in the frame is inverted.
 *   dup    — the frame is sent twice back-to-back.
 *   delay  — the send is stalled 1–20 ms, then delivered clean.
 *   reset  — the frame is sent, then the connection is shut down.
 *
 * Drop and trunc deliberately kill the connection rather than letting
 * the stream continue: on a healthy stream socket, bytes do not
 * vanish from the middle — partial delivery only happens when the
 * connection itself dies. Silently swallowing a frame while keeping
 * the stream alive would model a failure no stream socket produces,
 * and would livelock the fabric (a dropped Assign with live heartbeats stalls a
 * lease forever). Flip and dup keep the connection alive; the
 * receiver's CRC / protocol checks are what must catch them.
 *
 * Decisions are a pure function of (seed, frame ordinal since arm()),
 * so a schedule is reproducible for a fixed interleaving and — more
 * importantly — the *oracle* is deterministic regardless: whatever the
 * schedule does, the campaign result must be bit-identical to the
 * clean run.
 */

#ifndef FH_TESTS_CHAOS_INTERPOSER_HH
#define FH_TESTS_CHAOS_INTERPOSER_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "dist/wire.hh"
#include "sim/types.hh"

namespace fh::dist::chaos
{

/** A storm: its seed and the per-mille probability of each
 *  perturbation, tried in declaration order on every frame. */
struct Schedule
{
    u64 seed = 0;
    u32 dropPm = 0;
    u32 truncPm = 0;
    u32 flipPm = 0;
    u32 dupPm = 0;
    u32 delayPm = 0;
    u32 resetPm = 0;
};

namespace detail
{

inline Schedule gSchedule;
inline std::atomic<u64> gOrdinal{0};

/** splitmix64 — decisions are a pure function of (seed, ordinal). */
inline u64
mix(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Kill the connection both ways so the peer sees EOF promptly and
 *  this side's next read/send fails — models a connection death, the
 *  only way bytes legitimately go missing on a stream socket. */
inline void
killConnection(int fd)
{
    ::shutdown(fd, SHUT_RDWR);
}

/** The send hook: false when the frame was not (fully) delivered —
 *  the connection has then already been shut down. */
inline bool
send(int fd, const u8 *frame, size_t n)
{
    const Schedule &s = gSchedule;
    const u64 ordinal = gOrdinal.fetch_add(1, std::memory_order_relaxed);
    const u64 r = mix(s.seed + ordinal);
    const u32 roll = static_cast<u32>(r % 1000);
    // Extra random bits for the perturbation's parameters (which bit
    // to flip, how much to truncate, how long to stall).
    const u64 aux = mix(r);

    u32 edge = s.dropPm;
    if (roll < edge) {
        killConnection(fd);
        return false;
    }
    edge += s.truncPm;
    if (roll < edge) {
        const size_t keep = n > 1 ? 1 + aux % (n - 1) : 0;
        if (keep > 0)
            sendAll(fd, frame, keep);
        killConnection(fd);
        return false;
    }
    edge += s.flipPm;
    if (roll < edge) {
        std::vector<u8> mutated(frame, frame + n);
        const u64 bit = aux % (n * 8);
        mutated[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        return sendAll(fd, mutated.data(), n);
    }
    edge += s.dupPm;
    if (roll < edge)
        return sendAll(fd, frame, n) && sendAll(fd, frame, n);
    edge += s.delayPm;
    if (roll < edge) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + aux % 20));
        return sendAll(fd, frame, n);
    }
    edge += s.resetPm;
    if (roll < edge) {
        sendAll(fd, frame, n); // frame arrives, then the line dies
        killConnection(fd);
        return false;
    }
    return sendAll(fd, frame, n);
}

} // namespace detail

/** Route this process's frames through schedule s, starting at frame
 *  ordinal 0. Call while no fabric thread runs. */
inline void
arm(const Schedule &s)
{
    detail::gSchedule = s;
    detail::gOrdinal.store(0, std::memory_order_relaxed);
    setSendHook(&detail::send);
}

/** arm() for one scope; back to clean sends on every way out of it,
 *  so a failed assertion cannot leave the storm on for the next test. */
class Storm
{
  public:
    explicit Storm(const Schedule &s) { arm(s); }
    ~Storm() { setSendHook(nullptr); }

    Storm(const Storm &) = delete;
    Storm &operator=(const Storm &) = delete;
};

} // namespace fh::dist::chaos

#endif // FH_TESTS_CHAOS_INTERPOSER_HH
