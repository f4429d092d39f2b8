/**
 * @file
 * Exact transition behavior of the generalized N-state machine used by
 * the second-level filter and the squash machines. The Figure 2
 * machines are checked through BitFilter (test_bit_filter.cc).
 */

#include <gtest/gtest.h>

#include "filters/state_machine.hh"

using namespace fh::filters;

TEST(BiasedNState, NeedsNMinusOneQuietObservations)
{
    BiasedNState sm(8);
    EXPECT_TRUE(sm.quiet());
    EXPECT_TRUE(sm.record(true)); // event while quiet: alarm, re-arm
    EXPECT_FALSE(sm.quiet());
    // 7 consecutive quiet observations to re-enter quiet.
    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(sm.record(false));
        EXPECT_FALSE(sm.quiet());
    }
    EXPECT_FALSE(sm.record(false));
    EXPECT_TRUE(sm.quiet());
}

TEST(BiasedNState, EventWhileArmedIsSuppressedButRecorded)
{
    BiasedNState sm(8);
    sm.record(true);
    sm.record(false);
    sm.record(false);
    EXPECT_EQ(sm.state(), 5);
    // A new event is suppressed but fully re-arms the machine.
    EXPECT_FALSE(sm.record(true));
    EXPECT_EQ(sm.state(), 7);
}

TEST(BiasedNState, ArmAndReset)
{
    BiasedNState sm(4);
    sm.arm();
    EXPECT_FALSE(sm.quiet());
    EXPECT_EQ(sm.state(), 3);
    sm.reset();
    EXPECT_TRUE(sm.quiet());
}

class BiasedNStateDepth : public testing::TestWithParam<int>
{
};

TEST_P(BiasedNStateDepth, QuietAfterExactlyNMinusOne)
{
    const int n = GetParam();
    BiasedNState sm(static_cast<fh::u8>(n));
    sm.record(true);
    for (int i = 0; i < n - 2; ++i) {
        sm.record(false);
        EXPECT_FALSE(sm.quiet()) << "after " << i + 1 << " quiets";
    }
    sm.record(false);
    EXPECT_TRUE(sm.quiet());
}

INSTANTIATE_TEST_SUITE_P(Depths, BiasedNStateDepth,
                         testing::Values(2, 3, 4, 8, 16));
