#include "mem/hierarchy.hh"

namespace fh::mem
{

Hierarchy::Hierarchy(const HierarchyParams &params)
    : params_(params),
      l1i_(params.l1i),
      l1d_(params.l1d),
      l2_(params.l2),
      itlb_(params.itlb),
      dtlb_(params.dtlb)
{
}

AccessTiming
Hierarchy::timed(Cache &l1, Tlb &tlb, Addr addr, Cycle now)
{
    AccessTiming t;
    t.tlbHit = tlb.access(addr);
    Cycle start = now + (t.tlbHit ? 0 : tlb.walkLatency());

    // A fill complete by now is complete for every later access: now
    // never decreases, while start runs up to a walk ahead of it.
    l1.expire(now);
    Cycle l1_ready = 0;
    t.l1Hit = l1.find(addr, start, l1_ready);
    if (t.l1Hit) {
        t.latency = (l1_ready - now) + l1.hitLatency();
        return t;
    }

    l2_.expire(now);
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

AccessTiming
Hierarchy::fetch(Addr addr, Cycle now)
{
    return timed(l1i_, itlb_, addr, now);
}

AccessTiming
Hierarchy::data(Addr addr, Cycle now)
{
    return timed(l1d_, dtlb_, addr, now);
}

} // namespace fh::mem
