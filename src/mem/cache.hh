/**
 * @file
 * Set-associative cache timing model with true-LRU replacement and
 * in-flight fill tracking.
 *
 * The cache tracks tags only: data always comes from the coherent
 * backing Memory (one core, SMT threads share the L1s), so the cache
 * model's job is purely latency classification. Each line records when
 * its fill completes; an access that arrives while the line is still
 * in flight pays the remaining fill time (an MSHR hit), which keeps
 * squashed wrong-path and re-executed accesses from acting as free
 * prefetches.
 *
 * Line state is stored structure-of-arrays (tags / valid / lastUse /
 * readyAt), so the per-access way scan streams the tag array alone,
 * and a cache fork copies four flat vectors — 25 bytes per line
 * instead of a 32-byte padded struct — which matters at fork rates of
 * hundreds of copies per second on a megabyte-sized L2.
 */

#ifndef FH_MEM_CACHE_HH
#define FH_MEM_CACHE_HH

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

    /** Allocate addr with its fill completing at ready_at. */
    void install(Addr addr, Cycle now, Cycle ready_at);

    Cycle hitLatency() const { return params_.hitLatency; }
    const CacheParams &params() const { return params_; }

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    double missRate() const;

    bool operator==(const Cache &other) const = default;

  private:
    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    unsigned numSets_;
    // numSets_ * ways entries each, set-major (parallel arrays).
    std::vector<Addr> tags_;
    std::vector<u8> valid_;
    std::vector<u64> lastUse_;  ///< LRU timestamps
    std::vector<Cycle> readyAt_; ///< fill completion times
    u64 useClock_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace fh::mem

#endif // FH_MEM_CACHE_HH
