/**
 * @file
 * Cache / TLB / Hierarchy timing models, including the in-flight fill
 * (MSHR) behavior that prevents free wrong-path prefetching.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"

using namespace fh;
using namespace fh::mem;

namespace
{

CacheParams
tiny()
{
    return {"t", 1024, 2, 64, 3}; // 8 sets, 2-way
}

/** Whether addr's line is present, looked up on a copy of c so that
 *  c's counters and LRU state stay untouched. */
bool
present(Cache c, Addr addr)
{
    Cycle ready = 0;
    return c.find(addr, 0, ready);
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    Cycle ready = 0;
    EXPECT_FALSE(c.find(0x100, 0, ready));
    c.install(0x100, 0, 10);
    EXPECT_TRUE(c.find(0x100, 20, ready));
    EXPECT_EQ(ready, 20u); // fill long done
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, InFlightFillDelaysSecondAccess)
{
    Cache c(tiny());
    c.install(0x100, 0, 50);
    Cycle ready = 0;
    EXPECT_TRUE(c.find(0x100, 10, ready));
    EXPECT_EQ(ready, 50u) << "access during fill waits for the line";
}

TEST(Cache, SameLineDifferentWordHits)
{
    Cache c(tiny());
    c.install(0x100, 0, 0);
    Cycle ready = 0;
    EXPECT_TRUE(c.find(0x138, 1, ready)); // same 64-byte line
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny()); // 2 ways per set
    Cycle ready = 0;
    // Three lines mapping to the same set (stride = sets*line = 512).
    c.install(0x000, 0, 0);
    c.install(0x200, 1, 1);
    c.find(0x000, 2, ready); // touch: 0x200 becomes LRU
    c.install(0x400, 3, 3);  // evicts 0x200
    EXPECT_TRUE(present(c, 0x000));
    EXPECT_FALSE(present(c, 0x200));
    EXPECT_TRUE(present(c, 0x400));
}

TEST(Tlb, HitAfterWalkAndLruReplacement)
{
    Tlb tlb({2, 4096, 30});
    EXPECT_FALSE(tlb.access(0x0000));
    EXPECT_TRUE(tlb.access(0x0008)); // same page
    EXPECT_FALSE(tlb.access(0x1000));
    tlb.access(0x0000);               // touch page 0
    EXPECT_FALSE(tlb.access(0x2000)); // evicts page 1 (LRU)
    EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Hierarchy, LatencyComposition)
{
    HierarchyParams hp;
    Hierarchy h(hp);
    // Cold access: TLB walk + L1 + L2 + memory.
    auto t1 = h.data(0x20000000, 0);
    EXPECT_FALSE(t1.l1Hit);
    EXPECT_FALSE(t1.l2Hit);
    EXPECT_FALSE(t1.tlbHit);
    EXPECT_EQ(t1.latency, hp.itlb.walkLatency + hp.l2.hitLatency +
                              hp.memoryLatency + hp.l1d.hitLatency);

    // Warm re-access after the fill completes: pure L1 hit.
    auto t2 = h.data(0x20000000, t1.latency + 1);
    EXPECT_TRUE(t2.l1Hit);
    EXPECT_TRUE(t2.tlbHit);
    EXPECT_EQ(t2.latency, hp.l1d.hitLatency);
}

TEST(Hierarchy, AccessDuringFillPaysRemainingTime)
{
    HierarchyParams hp;
    Hierarchy h(hp);
    auto t1 = h.data(0x20000000, 0);
    // Re-access halfway through the fill.
    Cycle mid = t1.latency / 2;
    auto t2 = h.data(0x20000000, mid);
    EXPECT_TRUE(t2.l1Hit);
    EXPECT_NEAR(static_cast<double>(t2.latency),
                static_cast<double>(t1.latency - mid +
                                    hp.l1d.hitLatency),
                static_cast<double>(hp.l1d.hitLatency));
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyParams hp;
    hp.l1d = {"l1", 128, 2, 64, 3}; // one set, 2 ways: tiny L1
    Hierarchy h(hp);
    h.data(0x20000000, 0);
    h.data(0x20010000, 1000);
    h.data(0x20020000, 2000); // evicts the first line from L1
    auto t = h.data(0x20000000, 3000);
    EXPECT_FALSE(t.l1Hit);
    EXPECT_TRUE(t.l2Hit);
    EXPECT_EQ(t.latency, hp.l2.hitLatency + hp.l1d.hitLatency);
}

TEST(Hierarchy, InstructionAndDataPathsAreSeparate)
{
    Hierarchy h;
    h.fetch(0x10000000, 0);
    EXPECT_EQ(h.l1d().misses(), 0u);
    h.data(0x20000000, 0);
    EXPECT_EQ(h.l1d().misses(), 1u);
    EXPECT_EQ(h.l1i().misses(), 1u);
}
