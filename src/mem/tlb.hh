/**
 * @file
 * Simple fully-associative TLB timing model (identity translation).
 *
 * Translation is identity-mapped — only the hit/miss timing matters for
 * the experiments — but a TLB miss adds a page-walk latency, which
 * contributes realistic stall variety to the baseline CPI.
 */

#ifndef FH_MEM_TLB_HH
#define FH_MEM_TLB_HH

#include <vector>

#include "sim/types.hh"

namespace fh::mem
{

struct TlbParams
{
    unsigned entries = 64;
    unsigned pageBytes = 4096;
    Cycle walkLatency = 30;

    bool operator==(const TlbParams &other) const = default;
};

/** Fully-associative LRU TLB tracking page-number tags. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Touch the page of addr; returns true on hit. */
    bool access(Addr addr);

    /** The MRU hint is a pure accelerator, not TLB state. */
    bool operator==(const Tlb &other) const
    {
        return params_ == other.params_ && entries_ == other.entries_ &&
               useClock_ == other.useClock_ && hits_ == other.hits_ &&
               misses_ == other.misses_;
    }

    Cycle walkLatency() const { return params_.walkLatency; }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

  private:
    struct Entry
    {
        u64 page = 0;
        bool valid = false;
        u64 lastUse = 0;

        bool operator==(const Entry &other) const = default;
    };

    TlbParams params_;
    std::vector<Entry> entries_;
    /** Index of the last hit: page locality makes back-to-back
     *  accesses land on the same entry, skipping the CAM scan. Pages
     *  are unique across entries, so the shortcut returns exactly
     *  what the scan would. */
    unsigned mru_ = 0;
    u64 useClock_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace fh::mem

#endif // FH_MEM_TLB_HH
