/**
 * @file
 * Two-level cache hierarchy (Table 2 of the paper): private 32 KB L1I
 * and L1D, 2 MB L2, ITLB/DTLB, and a flat main-memory latency. Produces
 * per-access latencies for the pipeline timing model, honoring
 * in-flight line fills (see cache.hh).
 */

#ifndef FH_MEM_HIERARCHY_HH
#define FH_MEM_HIERARCHY_HH

#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/types.hh"

namespace fh::mem
{

struct HierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 2, 64, 3};
    CacheParams l1d{"l1d", 32 * 1024, 2, 64, 3};
    CacheParams l2{"l2", 2 * 1024 * 1024, 4, 64, 20};
    TlbParams itlb{64, 4096, 30};
    TlbParams dtlb{64, 4096, 30};
    Cycle memoryLatency = 200;

    bool operator==(const HierarchyParams &other) const = default;
};

/** The result of a timed access: total latency plus hit levels. */
struct AccessTiming
{
    Cycle latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    bool tlbHit = false;
};

/** L1 + L2 + TLB latency model shared by the SMT contexts of a core. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params = {});

    /** Timed instruction fetch of addr at cycle now. Across fetch()
     *  and data() calls, now must never decrease. */
    AccessTiming fetch(Addr addr, Cycle now);
    /** Timed data access (loads and stores share the port model). */
    AccessTiming data(Addr addr, Cycle now);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Tlb &dtlb() const { return dtlb_; }

    const HierarchyParams &params() const { return params_; }

    bool operator==(const Hierarchy &other) const = default;

  private:
    AccessTiming timed(Cache &l1, Tlb &tlb, Addr addr, Cycle now);

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Tlb itlb_;
    Tlb dtlb_;
};

} // namespace fh::mem

#endif // FH_MEM_HIERARCHY_HH
