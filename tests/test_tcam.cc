/**
 * @file
 * CountingTcam: the inverted (value-indexed) filter organization with
 * nearest-match search and the loosen-or-replace update policy of
 * Figure 3.
 */

#include <gtest/gtest.h>

#include <set>

#include "filters/tcam.hh"
#include "sim/rng.hh"

using namespace fh;
using namespace fh::filters;

namespace
{

TcamParams
smallParams(unsigned entries = 4, unsigned threshold = 2)
{
    TcamParams p;
    p.entries = entries;
    p.loosenThreshold = threshold;
    return p;
}

} // namespace

TEST(Tcam, ColdLookupInstallsSilently)
{
    CountingTcam tcam(smallParams());
    auto res = tcam.lookup(0xabcd);
    EXPECT_FALSE(res.trigger);
    EXPECT_EQ(res.entry, 0u);
    // Installed: a far value now triggers (a cold TCAM never does).
    EXPECT_TRUE(tcam.probe(~0xabcdULL).trigger);
}

TEST(Tcam, ExactRevisitMatches)
{
    CountingTcam tcam(smallParams());
    tcam.lookup(0xabcd);
    auto res = tcam.lookup(0xabcd);
    EXPECT_FALSE(res.trigger);
    EXPECT_EQ(res.mismatchCount, 0u);
}

TEST(Tcam, NearbyValueFillsInvalidEntryFirst)
{
    CountingTcam tcam(smallParams());
    tcam.lookup(0b0000);
    auto res = tcam.lookup(0b0001); // 1-bit mismatch
    // With invalid entries available, a trigger installs fresh.
    EXPECT_TRUE(res.trigger);
    EXPECT_TRUE(res.replaced);
    EXPECT_EQ(res.entry, 1u);
    // Entry 0 still holds its own value.
    EXPECT_FALSE(tcam.probe(0b0000).trigger);
    EXPECT_EQ(tcam.probe(0b0000).entry, 0u);
}

TEST(Tcam, LoosensClosestWhenFullAndWithinThreshold)
{
    CountingTcam tcam(smallParams(2, 2));
    tcam.lookup(0x0);
    tcam.lookup(0xff00);
    // Both entries valid now; 0x1 is 1 bit from the 0x0 filter.
    auto res = tcam.lookup(0x1);
    EXPECT_TRUE(res.trigger);
    EXPECT_FALSE(res.replaced);
    EXPECT_EQ(res.mismatchCount, 1u);
    EXPECT_EQ(res.mismatchMask, 1ULL);
    // The loosened filter now treats bit 0 as changing.
    auto again = tcam.lookup(0x0);
    EXPECT_FALSE(again.trigger) << "wildcarded bit must match";
}

TEST(Tcam, ReplacesLruWhenPastThreshold)
{
    CountingTcam tcam(smallParams(2, 2));
    tcam.lookup(0x0);    // entry 0
    tcam.lookup(0xff00); // entry 1
    tcam.lookup(0x0);    // touch entry 0: entry 1 becomes LRU
    auto res = tcam.lookup(0xffffffffULL); // far from both
    EXPECT_TRUE(res.trigger);
    EXPECT_TRUE(res.replaced);
    EXPECT_EQ(res.entry, 1u) << "LRU entry must be the victim";
    // The new neighborhood matches immediately.
    EXPECT_FALSE(tcam.lookup(0xffffffffULL).trigger);
    // Entry 0's neighborhood survived.
    EXPECT_FALSE(tcam.lookup(0x0).trigger);
}

TEST(Tcam, ProbeDoesNotMutate)
{
    CountingTcam tcam(smallParams());
    tcam.lookup(0x10);
    CountingTcam before = tcam;
    auto res = tcam.probe(0x13);
    EXPECT_TRUE(res.trigger);
    EXPECT_EQ(res.mismatchCount, 2u);
    EXPECT_TRUE(tcam == before) << "probe must not train the filters";
}

TEST(Tcam, ProbeOnColdTcamNeverTriggers)
{
    CountingTcam tcam(smallParams());
    EXPECT_FALSE(tcam.probe(0x1234).trigger);
}

TEST(Tcam, ClusteringReinforcesSharedNeighborhood)
{
    // Values from many "static instructions" around one base cluster
    // into one filter: after the low bits are learned as changing,
    // the whole neighborhood stops triggering.
    CountingTcam tcam(smallParams(4, 4));
    Rng rng; // default-seeded, deterministic
    unsigned early_triggers = 0;
    for (int i = 0; i < 100; ++i) {
        u64 value = 0x5000000 + (rng.next() & 3) * 8;
        early_triggers += tcam.lookup(value).trigger ? 1 : 0;
    }
    // Steady state: the volatile bits are wildcarded most of the time
    // (the biased counters re-arm after runs of no-changes, so some
    // residual triggering remains -- that is the false-positive source
    // the second-level filter exists for).
    unsigned late_triggers = 0;
    for (int i = 0; i < 400; ++i) {
        u64 value = 0x5000000 + (rng.next() & 3) * 8;
        late_triggers += tcam.lookup(value).trigger ? 1 : 0;
    }
    EXPECT_LT(late_triggers / 4.0, static_cast<double>(early_triggers));
    EXPECT_LT(late_triggers, 120u); // well under the ~400 naive rate
}

TEST(Tcam, DistinctNeighborhoodsGetDistinctFilters)
{
    CountingTcam tcam(smallParams(4, 4));
    // The bases differ pairwise in more bits than the loosen
    // threshold, so no filter can loosen over two of them.
    const u64 bases[3] = {0x1000000, 0xF0F000000, 0xFF00F0000000};
    // Every entry a lookup installed into or matched: entries are never
    // invalidated, so these are the valid ones.
    std::set<unsigned> valid;
    for (int round = 0; round < 50; ++round)
        for (u64 base : bases)
            valid.insert(tcam.lookup(base + (round & 7)).entry);
    // Each neighborhood is held by its own filter: any probe within a
    // cluster mismatches in at most the three learned low bits, never
    // in the cluster-identity bits.
    std::set<unsigned> holders;
    for (u64 base : bases) {
        auto res = tcam.probe(base + 3);
        EXPECT_LE(res.mismatchCount, 3u);
        EXPECT_EQ(res.mismatchMask & ~0x7ULL, 0u);
        holders.insert(res.entry);
    }
    EXPECT_EQ(holders.size(), 3u);
    EXPECT_GE(valid.size(), 3u);
}

TEST(Tcam, AccessCounterTracksLookups)
{
    CountingTcam tcam(smallParams());
    for (int i = 0; i < 5; ++i)
        tcam.lookup(i);
    EXPECT_EQ(tcam.accesses(), 5u);
}

class TcamSizes : public testing::TestWithParam<unsigned>
{
};

TEST_P(TcamSizes, FaultBitIsDetectedAfterTraining)
{
    TcamParams p;
    p.entries = GetParam();
    CountingTcam tcam(p);
    for (u64 i = 0; i < 1000; ++i)
        tcam.lookup(0x40000000 + i % 64);
    // A high-bit corruption of an in-neighborhood value triggers.
    auto res = tcam.probe((0x40000000 + 5) ^ (1ULL << 45));
    EXPECT_TRUE(res.trigger);
    EXPECT_TRUE(res.mismatchMask & (1ULL << 45));
}

INSTANTIATE_TEST_SUITE_P(Entries, TcamSizes,
                         testing::Values(1, 2, 8, 16, 32, 64));
