/**
 * @file
 * BitFilter: the ternary neighborhood encoding of Figure 1 — per-bit
 * counters plus the previous value — across all counter flavors, and
 * the population count its mismatch counts rest on.
 */

#include <gtest/gtest.h>

#include "filters/bit_filter.hh"
#include "sim/popcount.hh"
#include "sim/rng.hh"

using namespace fh;
using namespace fh::filters;

namespace
{

unsigned
bitLoopCount(u64 x)
{
    unsigned n = 0;
    for (unsigned b = 0; b < 64; ++b)
        n += (x >> b) & 1;
    return n;
}

} // namespace

TEST(Popcount, MatchesABitLoop)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(~0ULL), 64u);
    for (unsigned b = 0; b < 64; ++b) {
        EXPECT_EQ(popcount64(1ULL << b), 1u) << "bit " << b;
        EXPECT_EQ(popcount64(~(1ULL << b)), 63u) << "bit " << b;
    }
    Rng rng(0x9095);
    for (int i = 0; i < 10000; ++i) {
        const u64 x = rng.next();
        ASSERT_EQ(popcount64(x), bitLoopCount(x)) << std::hex << x;
    }
}

TEST(BitFilter, InstallMakesEverythingUnchanging)
{
    BitFilter f(CounterConfig::biased());
    f.install(0xdeadbeefULL);
    EXPECT_EQ(f.prev(), 0xdeadbeefULL);
    EXPECT_EQ(f.unchangingMask(), ~0ULL);
    EXPECT_EQ(f.mismatchCount(0xdeadbeefULL), 0u);
}

TEST(BitFilter, MismatchCountsDifferingUnchangingBits)
{
    BitFilter f(CounterConfig::biased());
    f.install(0);
    EXPECT_EQ(f.mismatchCount(0b1011), 3u);
    EXPECT_EQ(f.mismatchMask(0b1011), 0b1011ULL);
}

TEST(BitFilter, ObserveReturnsAlarmMaskAndUpdatesPrev)
{
    BitFilter f(CounterConfig::biased());
    f.install(0);
    u64 alarm = f.observe(0b100);
    EXPECT_EQ(alarm, 0b100ULL); // bit 2 changed while unchanging
    EXPECT_EQ(f.prev(), 0b100ULL);
    // Bit 2 is now changing (biased counter jumped to 2).
    EXPECT_EQ(f.counterAt(2), 2);
    EXPECT_FALSE((f.unchangingMask() >> 2) & 1);
}

TEST(BitFilter, WildcardBitsDoNotMismatch)
{
    BitFilter f(CounterConfig::biased());
    f.install(0);
    f.observe(0b1); // bit 0 becomes changing
    // Bit 0 differs from prev but is wildcarded: no mismatch.
    EXPECT_EQ(f.mismatchCount(0b0), 0u);
}

TEST(BitFilter, BiasedBitNeedsTwoNoChangesToRearm)
{
    BitFilter f(CounterConfig::biased());
    f.install(0);
    f.observe(1); // bit 0: counter -> 2
    f.observe(1); // no change (value stays 1): counter -> 1
    EXPECT_EQ(f.counterAt(0), 1);
    EXPECT_FALSE((f.unchangingMask() >> 0) & 1);
    f.observe(1); // counter -> 0: unchanging again
    EXPECT_TRUE((f.unchangingMask() >> 0) & 1);
    // A change now alarms again.
    EXPECT_EQ(f.observe(0) & 1ULL, 1ULL);
}

TEST(BitFilter, StickyStaysSaturatedUntilClear)
{
    BitFilter f(CounterConfig::sticky());
    f.install(0);
    EXPECT_EQ(f.observe(1), 1ULL); // alarm once
    f.observe(0);
    f.observe(0);
    f.observe(0);
    // Sticky: still changing despite no-changes.
    EXPECT_EQ(f.observe(1), 0ULL);
    f.clear();
    EXPECT_EQ(f.unchangingMask(), ~0ULL);
    // After clear the counters are re-armed: the next change alarms.
    EXPECT_EQ(f.observe(0), 1ULL); // prev was 1, value 0 flips bit 0
    // ...and saturates sticky again.
    EXPECT_EQ(f.observe(1), 0ULL);
}

TEST(BitFilter, StandardCounterReentersImmediately)
{
    BitFilter f(CounterConfig::standard());
    f.install(0);
    f.observe(1); // bit0 count 1
    f.observe(1); // no change: count 0 -> unchanging after ONE
    EXPECT_TRUE((f.unchangingMask() >> 0) & 1);
}

TEST(BitFilter, Biased3IsSlower)
{
    BitFilter f(CounterConfig::biased3());
    f.install(0);
    f.observe(1); // jump 4
    EXPECT_EQ(f.counterAt(0), 4);
    f.observe(1);
    f.observe(1);
    f.observe(1);
    EXPECT_EQ(f.counterAt(0), 1);
    EXPECT_FALSE((f.unchangingMask() >> 0) & 1);
    f.observe(1);
    EXPECT_TRUE((f.unchangingMask() >> 0) & 1);
}

TEST(BitFilter, MultipleBitsTrackedIndependently)
{
    BitFilter f(CounterConfig::biased());
    f.install(0);
    f.observe(0b11);   // bits 0,1 change
    f.observe(0b01);   // bit 1 changes back; bit 0 stable
    f.observe(0b01);   // bit 0: two no-changes later...
    f.observe(0b01);   // bit 0 unchanging again; bit 1 still armed
    EXPECT_TRUE((f.unchangingMask() >> 0) & 1);
    EXPECT_FALSE((f.unchangingMask() >> 1) & 1);
}

TEST(BitFilter, HighBitsStayUnchangingUnderCounterTraffic)
{
    // A counter-like stream leaves high bits unchanging: this is the
    // value-locality property the whole scheme rests on.
    BitFilter f(CounterConfig::biased());
    f.install(0x100000);
    for (u64 i = 1; i < 200; ++i)
        f.observe(0x100000 + i);
    unsigned high_unchanging = 0;
    for (unsigned bit = 24; bit < 64; ++bit)
        high_unchanging += (f.unchangingMask() >> bit) & 1;
    EXPECT_EQ(high_unchanging, 40u);
    // A bit-40 flip is detected.
    EXPECT_NE(f.mismatchMask(f.prev() ^ (1ULL << 40)), 0ULL);
}
