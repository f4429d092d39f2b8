/**
 * @file
 * Set-associative cache timing model with true-LRU replacement and
 * in-flight fill tracking.
 *
 * The cache tracks tags only: data always comes from the coherent
 * backing Memory (one core, SMT threads share the L1s), so the cache
 * model's job is purely latency classification. Each fill records
 * when it completes; an access that arrives while the line is still in
 * flight pays the remaining fill time (an MSHR hit), which keeps
 * squashed wrong-path and re-executed accesses from acting as free
 * prefetches.
 *
 * A cache fork copies the line state, hundreds of times per second on
 * a megabyte-sized L2, so a line costs 9 bytes: a 64-bit tag whose
 * reserved value kInvalid marks an empty way, and a one-byte recency
 * rank (a permutation of 0..ways-1 within each set, 0 = most recent).
 * Fill completion times live in a short list holding only the fills
 * that may still be in flight; expire() drops the ones complete by a
 * time no later access can precede.
 */

#ifndef FH_MEM_CACHE_HH
#define FH_MEM_CACHE_HH

#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fh::mem
{

/** Configuration for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 32 * 1024;
    unsigned ways = 2;
    unsigned lineBytes = 64;
    Cycle hitLatency = 3;

    bool operator==(const CacheParams &other) const = default;
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up addr at time now. On a hit, ready_at is when the line's
     * data is available (>= now for in-flight fills). Counts stats and
     * touches LRU.
     */
    bool find(Addr addr, Cycle now, Cycle &ready_at);

    /** Allocate addr with its fill completing at ready_at. Victim: a
     *  refill of addr's line, else the last empty way, else LRU. */
    void install(Addr addr, Cycle now, Cycle ready_at);

    /**
     * Forget every fill complete by floor. Every later find() and
     * install() must pass now >= floor: a forgotten fill then reads
     * as complete, as it would have. Free unless a fill is due.
     */
    void expire(Cycle floor)
    {
        if (floor >= nextDue_)
            expireDue(floor);
    }

    Cycle hitLatency() const { return params_.hitLatency; }
    const CacheParams &params() const { return params_; }

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    double missRate() const;

    /** Representation equality: two caches fed the same calls compare
     *  equal. */
    bool operator==(const Cache &other) const = default;

  private:
    /** The tag of an empty way; no address maps to it (lines are at
     *  least two bytes, so a tag has a zero top bit). */
    static constexpr Addr kInvalid = ~Addr{0};
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /** A fill that may still be in flight: completion, line index. */
    struct Fill
    {
        Cycle readyAt;
        size_t line;

        bool operator==(const Fill &other) const = default;
    };

    /** Make way w of the set at base the most recent. */
    void touch(size_t base, unsigned w);
    /** When line's last fill completes, or 0 if it is not listed. */
    Cycle fillReadyAt(size_t line) const;
    void expireDue(Cycle floor);

    CacheParams params_;
    unsigned lineShift_; ///< log2(lineBytes)
    unsigned setShift_;  ///< log2(sets)
    Addr setMask_;       ///< sets - 1
    // sets * ways entries each, set-major (parallel arrays).
    std::vector<Addr> tags_; ///< kInvalid = empty way
    std::vector<u8> ranks_;  ///< recency within the set, 0 = MRU
    std::vector<Fill> fills_;
    Cycle nextDue_ = kNever; ///< <= every readyAt in fills_
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace fh::mem

#endif // FH_MEM_CACHE_HH
