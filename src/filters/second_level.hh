/**
 * @file
 * Second-level filter (Section 3.2): one biased N-state machine per
 * bit position, shared across all first-level filters of a TCAM. It
 * learns the delinquent bit positions that raise repeated false alarms
 * and suppresses their triggers.
 */

#ifndef FH_FILTERS_SECOND_LEVEL_HH
#define FH_FILTERS_SECOND_LEVEL_HH

#include <array>

#include "filters/state_machine.hh"
#include "sim/types.hh"

namespace fh::filters
{

/**
 * Tracks, per bit position, whether any first-level filter signaled a
 * non-match in that position in any of the last several replay
 * triggers. A non-match in a recently-quiet bit position is allowed
 * through (likely fault); a non-match in a recently-noisy position is
 * suppressed (likely false positive), though the machine still records
 * the occurrence.
 */
class SecondLevelFilter
{
  public:
    explicit SecondLevelFilter(u8 num_states = 8);

    /**
     * Feed one replay trigger's mismatch mask through the filter.
     * Returns true if the trigger is allowed (at least one mismatching
     * bit position was quiet), false if it is suppressed.
     */
    bool onTrigger(u64 mismatch_mask);

    bool quietAt(unsigned bit) const { return machines_[bit].quiet(); }

    /** Read-only query: would a trigger with this mismatch mask be
     *  allowed? Used by the commit-time LSQ check, which must not
     *  train the filters (Section 3.5). */
    bool wouldAllow(u64 mismatch_mask) const
    {
        for (unsigned bit = 0; bit < wordBits; ++bit)
            if (((mismatch_mask >> bit) & 1) && machines_[bit].quiet())
                return true;
        return false;
    }

    u64 allowed() const { return allowed_; }
    u64 suppressed() const { return suppressed_; }

    bool operator==(const SecondLevelFilter &other) const = default;

  private:
    std::array<BiasedNState, wordBits> machines_;
    u64 allowed_ = 0;
    u64 suppressed_ = 0;
};

} // namespace fh::filters

#endif // FH_FILTERS_SECOND_LEVEL_HH
