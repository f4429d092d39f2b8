/**
 * @file
 * One comparison of two campaign results, for the identity checks
 * across fork-thread counts, journal resume and the fabric: every
 * per-trial counter and SDC bin (looped over the structs' field lists,
 * so a counter added there is compared here too), the vulnerability
 * profile and the run markers both runs must share.
 */

#ifndef FH_TESTS_CAMPAIGN_COMPARE_HH
#define FH_TESTS_CAMPAIGN_COMPARE_HH

#include <gtest/gtest.h>

#include "fault/campaign.hh"

namespace fh::test
{

/** Expect a and b to agree on every counter, bin, the profile, and
 *  the partial and ciStopped markers. */
inline void
expectSameCampaign(const fault::CampaignResult &a,
                   const fault::CampaignResult &b)
{
    for (const auto &f : fault::CampaignResult::fields())
        EXPECT_EQ(a.*f.member, b.*f.member) << f.key;
    for (const auto &f : fault::SdcBins::fields())
        EXPECT_EQ(a.bins.*f.member, b.bins.*f.member) << "bins." << f.key;
    EXPECT_TRUE(a.profile == b.profile);
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.ciStopped, b.ciStopped);
}

} // namespace fh::test

#endif // FH_TESTS_CAMPAIGN_COMPARE_HH
