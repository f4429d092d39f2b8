/**
 * @file
 * The generalized N-state machine used by the second-level filter and
 * the squash state machines (8 states, 7 consecutive quiet
 * observations before an alarm is allowed again). The per-bit
 * machines of Figure 2 (PBFS's sticky bit, the biased and standard
 * two-bit counters) are BitFilter's bit-sliced counters
 * (bit_filter.hh).
 */

#ifndef FH_FILTERS_STATE_MACHINE_HH
#define FH_FILTERS_STATE_MACHINE_HH

#include "sim/types.hh"

namespace fh::filters
{

/**
 * Generalized biased machine with N states. State 0 is "quiet": an
 * event arriving while quiet is allowed through as an alarm. Any event
 * re-arms the machine to state N-1; a quiet observation decrements
 * toward 0, so `N - 1` consecutive quiet observations are needed before
 * the next alarm can fire. The paper uses N = 8 (7 no-alarms).
 */
class BiasedNState
{
  public:
    explicit BiasedNState(u8 num_states = 8) : numStates_(num_states) {}

    bool quiet() const { return count_ == 0; }
    u8 state() const { return count_; }

    /**
     * Record an observation; returns true if this event is allowed as
     * an alarm (event while quiet).
     */
    bool record(bool event);

    /** Force the machine into the fully re-armed (suppressing) state. */
    void arm() { count_ = static_cast<u8>(numStates_ - 1); }
    void reset() { count_ = 0; }

    bool operator==(const BiasedNState &other) const = default;

  private:
    u8 numStates_;
    u8 count_ = 0;
};

} // namespace fh::filters

#endif // FH_FILTERS_STATE_MACHINE_HH
