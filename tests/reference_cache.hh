/**
 * @file
 * Plain reference model of mem::Cache and of Hierarchy's timed access.
 *
 * ReferenceCache keeps a valid flag, a u64 LRU stamp and a fill-ready
 * cycle beside every tag and never forgets a fill: the find/install
 * contract of Cache without the compact line encoding, the recency
 * ranks or the in-flight fill list. ReferenceHierarchy composes three
 * of them with the real TLBs exactly as Hierarchy does. Any
 * divergence between these and the compact models is a bug in the
 * compact ones, never in this file — keep it boring.
 */

#ifndef FH_TESTS_REFERENCE_CACHE_HH
#define FH_TESTS_REFERENCE_CACHE_HH

#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/types.hh"

namespace fh::mem
{

/** Stamp-per-line twin of Cache; same observable API. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &params) : params_(params)
    {
        const u64 lines = params_.sizeBytes / params_.lineBytes;
        numSets_ = lines / params_.ways;
        tags_.resize(lines, 0);
        valid_.resize(lines, 0);
        lastUse_.resize(lines, 0);
        readyAt_.resize(lines, 0);
    }

    bool find(Addr addr, Cycle now, Cycle &ready_at)
    {
        const size_t base = setIndex(addr) * params_.ways;
        const Addr tag = tagOf(addr);
        ++useClock_;
        for (unsigned w = 0; w < params_.ways; ++w) {
            const size_t i = base + w;
            if (valid_[i] && tags_[i] == tag) {
                lastUse_[i] = useClock_;
                ready_at = readyAt_[i] > now ? readyAt_[i] : now;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    void install(Addr addr, Cycle /*now*/, Cycle ready_at)
    {
        const size_t base = setIndex(addr) * params_.ways;
        const Addr tag = tagOf(addr);
        ++useClock_;
        // Victim preference: refill of an existing line, else the last
        // invalid way, else true LRU.
        size_t victim = base;
        for (unsigned w = 0; w < params_.ways; ++w) {
            const size_t i = base + w;
            if (valid_[i] && tags_[i] == tag) {
                victim = i;
                break;
            }
            if (!valid_[i])
                victim = i;
            else if (valid_[victim] && lastUse_[i] < lastUse_[victim])
                victim = i;
        }
        valid_[victim] = 1;
        tags_[victim] = tag;
        lastUse_[victim] = useClock_;
        readyAt_[victim] = ready_at;
    }

    Cycle hitLatency() const { return params_.hitLatency; }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

  private:
    size_t setIndex(Addr addr) const
    {
        return static_cast<size_t>((addr / params_.lineBytes) % numSets_);
    }
    Addr tagOf(Addr addr) const { return addr / params_.lineBytes / numSets_; }

    CacheParams params_;
    u64 numSets_;
    std::vector<Addr> tags_;
    std::vector<u8> valid_;
    std::vector<u64> lastUse_;
    std::vector<Cycle> readyAt_;
    u64 useClock_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

/** Hierarchy::fetch/data over ReferenceCaches, fills never expired. */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyParams &params = {})
        : params_(params), l1i_(params.l1i), l1d_(params.l1d),
          l2_(params.l2), itlb_(params.itlb), dtlb_(params.dtlb)
    {
    }

    AccessTiming fetch(Addr addr, Cycle now)
    {
        return timed(l1i_, itlb_, addr, now);
    }
    AccessTiming data(Addr addr, Cycle now)
    {
        return timed(l1d_, dtlb_, addr, now);
    }

    const ReferenceCache &l1i() const { return l1i_; }
    const ReferenceCache &l1d() const { return l1d_; }
    const ReferenceCache &l2() const { return l2_; }

  private:
    AccessTiming timed(ReferenceCache &l1, Tlb &tlb, Addr addr, Cycle now)
    {
        AccessTiming t;
        t.tlbHit = tlb.access(addr);
        const Cycle start = now + (t.tlbHit ? 0 : tlb.walkLatency());
        Cycle l1_ready = 0;
        t.l1Hit = l1.find(addr, start, l1_ready);
        if (t.l1Hit) {
            t.latency = (l1_ready - now) + l1.hitLatency();
            return t;
        }
        Cycle l2_ready = 0;
        t.l2Hit = l2_.find(addr, start, l2_ready);
        Cycle data_at;
        if (t.l2Hit) {
            data_at = l2_ready + l2_.hitLatency();
        } else {
            data_at = start + l2_.hitLatency() + params_.memoryLatency;
            l2_.install(addr, start, data_at);
        }
        l1.install(addr, start, data_at);
        t.latency = (data_at - now) + l1.hitLatency();
        return t;
    }

    HierarchyParams params_;
    ReferenceCache l1i_;
    ReferenceCache l1d_;
    ReferenceCache l2_;
    Tlb itlb_;
    Tlb dtlb_;
};

} // namespace fh::mem

#endif // FH_TESTS_REFERENCE_CACHE_HH
