/**
 * @file
 * Cache / TLB / Hierarchy timing models, including the in-flight fill
 * (MSHR) behavior that prevents free wrong-path prefetching; the
 * compact Cache and Hierarchy fuzzed against the plain reference
 * models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "reference_cache.hh"
#include "sim/rng.hh"

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

// ---- The compact cache against the reference ----

namespace
{

/** Geometries from direct-mapped to one fully associative set, plus
 *  two-byte lines, whose tags reach the top of the 64-bit range. */
const CacheParams kGeometries[] = {
    {"Direct", 512, 1, 64, 3},     // 8 sets
    {"TwoWay", 1024, 2, 64, 3},    // 8 sets
    {"FourWay", 1024, 4, 64, 3},   // 4 sets
    {"OneSet", 1024, 16, 64, 3},   // 16 ways
    {"TwoByteLines", 16, 2, 2, 3}, // 4 sets
    {"L1", 32 * 1024, 2, 64, 3},   // the default L1 geometry
};

/** How far an access's start (a TLB walk) runs ahead of its now. */
constexpr Cycle kWalk = 30;

/** A compact cache and its reference, advanced in lockstep. */
struct Lockstep
{
    Cache cache;
    ReferenceCache ref;
    Cycle floor = 0; ///< the last expiry time; no later now is below it
};

/** An address for geometry p: a few hot sets under more tags than
 *  ways (lines collide and get evicted), a recently used address
 *  (refills land while fills are in flight), the top of the address
 *  space, or any 64-bit value. */
Addr
pickAddr(Rng &rng, const CacheParams &p, const std::vector<Addr> &recent)
{
    const u64 sets = p.sizeBytes / p.lineBytes / p.ways;
    const u64 pick = rng.below(8);
    if (pick < 3) {
        const u64 hot[] = {0, 1, sets - 1};
        const u64 tag = rng.below(2 * p.ways + 1);
        return (tag * sets + hot[rng.below(3)]) * p.lineBytes +
               rng.below(p.lineBytes);
    }
    if (pick < 6 && !recent.empty())
        return recent[rng.below(recent.size())];
    if (pick == 6)
        return ~Addr{0} - rng.below(4 * sets * p.lineBytes);
    return rng.next();
}

/** Each probe is present in both models or in neither, and ready at
 *  the same cycle when looked up at the floor. Probes run on copies,
 *  so the models' LRU state and counters stay untouched. */
::testing::AssertionResult
samePresence(const Lockstep &s, const std::vector<Addr> &probes)
{
    Cache cache = s.cache;
    ReferenceCache ref = s.ref;
    for (Addr a : probes) {
        Cycle got = 0;
        Cycle want = 0;
        const bool present = cache.find(a, s.floor, got);
        if (present != ref.find(a, s.floor, want) ||
            (present && got != want))
            return ::testing::AssertionFailure()
                   << "probe 0x" << std::hex << a << std::dec
                   << ": present " << present << " ready " << got
                   << ", reference ready " << want;
    }
    return ::testing::AssertionSuccess();
}

class CacheFuzz : public ::testing::TestWithParam<CacheParams>
{
};

} // namespace

TEST_P(CacheFuzz, MatchesReference)
{
    // Two slots take random lookups and installs (refills of lines
    // whose fill is still in flight included) at times up to a walk
    // past their expiry floor, and now and then one is copy-assigned
    // over the other mid-stream, after which both go on. After every
    // step each slot's counters, and the active slot's presence and
    // ready cycles, must match the reference's.
    const CacheParams &p = GetParam();
    std::vector<Lockstep> slots(2, Lockstep{Cache(p), ReferenceCache(p)});
    Rng rng(0xcac4e + p.sizeBytes + p.ways);
    std::vector<Addr> recent;
    for (int step = 0; step < 4000; ++step) {
        const size_t i = rng.below(slots.size());
        Lockstep &s = slots[i];
        const u64 op = rng.below(32);
        if (op == 0) {
            slots[1 - i] = s;
            continue;
        }
        // The floor creeps, stalls or jumps; now runs up to a walk
        // ahead of it, as an access's start runs ahead of the core's
        // cycle.
        s.floor += rng.chance(0.05) ? rng.below(400) : rng.below(3);
        s.cache.expire(s.floor);
        const Cycle now =
            s.floor + (rng.chance(0.5) ? 0 : rng.below(kWalk + 1));
        const Addr a = pickAddr(rng, p, recent);
        if (op < 20) {
            Cycle got = 0;
            Cycle want = 0;
            const bool hit = s.cache.find(a, now, got);
            ASSERT_EQ(hit, s.ref.find(a, now, want))
                << "step " << step << " find 0x" << std::hex << a;
            if (hit) {
                ASSERT_EQ(got, want) << "step " << step;
            }
        } else {
            // Mostly a fill that completes later; sometimes one that is
            // already complete.
            const Cycle ready =
                rng.chance(0.9)
                    ? now + rng.below(300)
                    : now - rng.below(std::min<Cycle>(now, 50) + 1);
            s.cache.install(a, now, ready);
            s.ref.install(a, now, ready);
        }
        if (recent.size() < 12)
            recent.push_back(a);
        else
            recent[rng.below(recent.size())] = a;

        for (const Lockstep &t : slots) {
            ASSERT_EQ(t.cache.hits(), t.ref.hits()) << "step " << step;
            ASSERT_EQ(t.cache.misses(), t.ref.misses()) << "step " << step;
        }
        ASSERT_TRUE(samePresence(s, recent)) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzz, ::testing::ValuesIn(kGeometries),
    [](const ::testing::TestParamInfo<CacheParams> &param) {
        return param.param.name;
    });

TEST(HierarchyFuzz, MatchesReferenceTimed)
{
    // Fetches and loads over the default hierarchy, against the same
    // composition over reference caches: code past the L1I, data
    // colliding in L1D and L2 sets, wild 64-bit addresses (a faulty
    // fork's loads reach the hierarchy before the memory check traps
    // them), a clock that mostly creeps so fills overlap, and a
    // mid-stream copy after which both machines go on.
    const HierarchyParams hp;
    std::vector<Hierarchy> hs(2, Hierarchy(hp));
    std::vector<ReferenceHierarchy> refs(2, ReferenceHierarchy(hp));
    std::vector<Cycle> nows(2, 0);
    const u64 l1Stride = hp.l1d.sizeBytes / hp.l1d.ways;
    const u64 l2Stride = hp.l2.sizeBytes / hp.l2.ways;
    Rng rng(0x41e7);
    for (int step = 0; step < 30000; ++step) {
        const size_t i = rng.below(2);
        if (rng.below(1000) == 0) {
            hs[1 - i] = hs[i];
            refs[1 - i] = refs[i];
            nows[1 - i] = nows[i];
            continue;
        }
        nows[i] += rng.chance(0.02) ? rng.below(1000) : rng.below(3);
        const bool fetch = rng.chance(0.3);
        Addr a;
        const u64 pick = rng.below(8);
        if (fetch)
            a = 0x10000000 + 4 * rng.below(16 * 1024); // 64 KiB of code
        else if (pick < 3)
            a = 0x20000000 + 64 * rng.below(4) + l1Stride * rng.below(5);
        else if (pick < 5)
            a = 0x20000000 + 64 * rng.below(4) + l2Stride * rng.below(7);
        else if (pick < 7)
            a = 0x20000000 + 8 * rng.below(512 * 1024); // 4 MiB
        else
            a = rng.next();
        const AccessTiming got = fetch ? hs[i].fetch(a, nows[i])
                                       : hs[i].data(a, nows[i]);
        const AccessTiming want = fetch ? refs[i].fetch(a, nows[i])
                                        : refs[i].data(a, nows[i]);
        ASSERT_EQ(got.latency, want.latency)
            << "step " << step << " addr 0x" << std::hex << a;
        ASSERT_EQ(got.l1Hit, want.l1Hit) << "step " << step;
        ASSERT_EQ(got.l2Hit, want.l2Hit) << "step " << step;
        ASSERT_EQ(got.tlbHit, want.tlbHit) << "step " << step;
        ASSERT_EQ(hs[i].l1i().hits(), refs[i].l1i().hits());
        ASSERT_EQ(hs[i].l1d().hits(), refs[i].l1d().hits());
        ASSERT_EQ(hs[i].l2().hits(), refs[i].l2().hits());
        ASSERT_EQ(hs[i].l1i().misses(), refs[i].l1i().misses());
        ASSERT_EQ(hs[i].l1d().misses(), refs[i].l1d().misses());
        ASSERT_EQ(hs[i].l2().misses(), refs[i].l2().misses());
    }
}
