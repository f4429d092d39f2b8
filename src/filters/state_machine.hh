/**
 * @file
 * Per-bit state machines used by the fault-screening filters.
 *
 * Three machines from the paper:
 *  - StickyBit: PBFS's one-bit sticky counter. Saturates at "changing"
 *    on the first observed change and stays there until a flash clear.
 *  - BiasedTwoBit: the well-known biased two-bit machine (Figure 2(b),
 *    after Jacobsen et al.). Needs two consecutive no-changes after a
 *    change to re-enter the "unchanging" state, but a single change in
 *    the unchanging state raises an alarm.
 *  - BiasedNState: the generalized N-state machine used by the
 *    second-level filter and the squash state machines (8 states, 7
 *    consecutive quiet observations before an alarm is allowed again).
 */

#ifndef FH_FILTERS_STATE_MACHINE_HH
#define FH_FILTERS_STATE_MACHINE_HH

#include "sim/types.hh"

namespace fh::filters
{

/** PBFS one-bit sticky counter. */
class StickyBit
{
  public:
    /** True while the bit is tracked as unchanging. */
    bool unchanging() const { return !changing_; }

    /**
     * Observe whether the bit changed. Returns true if this observation
     * is an alarm (a change while in the unchanging state).
     */
    bool observe(bool changed);

    /** Periodic flash clear back to unchanging. */
    void clear() { changing_ = false; }

    bool operator==(const StickyBit &other) const = default;

  private:
    bool changing_ = false;
};

/**
 * Biased two-bit machine (Figure 2(b)). Four states: U (unchanging),
 * C1, C2, C3 (changing). A change always lands at least two no-changes
 * away from U; only a change observed in U raises an alarm.
 */
class BiasedTwoBit
{
  public:
    enum State : u8 { U = 0, C1 = 1, C2 = 2, C3 = 3 };

    State state() const { return state_; }
    bool unchanging() const { return state_ == U; }

    /** Observe a change/no-change; returns true on an alarm. */
    bool observe(bool changed);

    void reset() { state_ = U; }

    bool operator==(const BiasedTwoBit &other) const = default;

  private:
    State state_ = U;
};

/**
 * Standard (unbiased) saturating counter with one unchanging and three
 * changing states (Figure 2(a)); used only for the PBFS-with-standard-
 * counter comparison point discussed in Section 1.
 */
class StandardTwoBit
{
  public:
    bool unchanging() const { return count_ == 0; }
    bool observe(bool changed);
    void reset() { count_ = 0; }

    bool operator==(const StandardTwoBit &other) const = default;

  private:
    u8 count_ = 0; ///< 0 = U, 1..3 = changing depth
};

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
