/**
 * @file
 * Re-order buffer. One Rob instance per SMT context (the shared ROB of
 * Table 2 is partitioned evenly). Entries are split structure-of-arrays
 * style into a 32-byte hot header — everything the per-cycle issue and
 * complete scans read while rejecting a slot — and a cold remainder
 * touched only once a slot is actually dispatched, executed or
 * committed, so a scan sweeps four slots per pair of cache lines
 * instead of spanning lines entry by entry.
 *
 * Both arrays live in the owning core's arena (bind()), so a copy is a
 * view of the same arrays until the owner shifts it (shiftBase()).
 */

#ifndef FH_PIPELINE_ROB_HH
#define FH_PIPELINE_ROB_HH


#include "isa/functional.hh"
#include "isa/instruction.hh"
#include "pipeline/arena.hh"
#include "sim/types.hh"

namespace fh::pipeline
{

/** Lifecycle of one in-flight instruction. */
enum class EntryState : u8
{
    Dispatched, ///< in the issue queue, waiting for operands/ports
    Issued,     ///< executing; finishes at finishCycle
    Completed   ///< executed; waiting to commit (may be replay-marked)
};

constexpr unsigned invalidPreg = ~0u;

/**
 * Scan-hot fields of one in-flight instruction: validity, lifecycle
 * state, the memory-op bits, the source tags the wakeup check reads,
 * the age key, and the completion time. Exactly 32 bytes.
 */
struct RobHot
{
    bool valid = false;
    EntryState state = EntryState::Dispatched;
    bool isLoad = false;
    bool isStore = false;
    u32 src1Preg = invalidPreg;
    u32 src2Preg = invalidPreg;
    SeqNum seq = 0;
    Cycle finishCycle = 0;
};

static_assert(sizeof(RobHot) == 32, "hot header must stay one half-line");

/** Everything else about one in-flight instruction. */
struct RobCold
{
    unsigned tid = 0;
    u64 pc = 0;
    isa::Instruction inst;

    unsigned destPreg = invalidPreg;
    unsigned oldPreg = invalidPreg;

    u64 result = 0; ///< ALU result / load value / branch direction
    /**
     * Held in the delay buffer for potential predecessor replay. An
     * issue-queue slot is occupied while Dispatched (conventional) or
     * while Completed-and-in-delay-buffer (FaultHound's delayed exit,
     * Section 3.3); issued instructions free their slot as in real
     * schedulers.
     */
    bool inDelayBuffer = false;
    bool inReplay = false;      ///< re-executing; triggers are ignored
    bool completedOnce = false; ///< completed at least one execution

    // Memory fields (double as the LSQ entry; isLoad/isStore live in
    // the hot header). Stores issue when the address operand is ready
    // (split store-address/store-data): the data is captured at
    // completion, which defers until it is ready.
    bool addrValid = false;
    bool dataValid = false; ///< store data captured
    Addr effAddr = 0;
    u64 storeData = 0; ///< store: data to write
    u64 loadValue = 0; ///< load: value written back
    bool reexecDone = false; ///< singleton re-execute already performed
    Cycle commitReadyAt = 0; ///< commit stall for singleton re-execute

    // Branch fields.
    bool predTaken = false;
    bool usedTaken = false; ///< direction younger fetch actually followed
    bool resolvedOnce = false;

    isa::Trap trap = isa::Trap::None;
};

/** Circular per-thread ROB partition (a view; see file comment). */
class Rob
{
  public:
    /** Adopt externally-laid-out arrays (no init). */
    void bind(RobHot *hot, RobCold *cold, unsigned capacity)
    {
        hot_ = hot;
        cold_ = cold;
        cap_ = capacity;
    }

    /** Value-initialize every slot and empty the window. */
    void reset();

    /** Pointer fixup after a member-wise arena copy. */
    void shiftBase(std::ptrdiff_t delta)
    {
        hot_ = shiftPtr(hot_, delta);
        cold_ = shiftPtr(cold_, delta);
    }

    bool full() const { return count_ == cap_; }
    bool empty() const { return count_ == 0; }
    unsigned size() const { return count_; }
    unsigned capacity() const { return cap_; }

    /** Allocate the next entry (must not be full); returns its slot. */
    unsigned allocate();

    /** Slot index of the i-th oldest valid entry. */
    unsigned slotAt(unsigned i) const { return (head_ + i) % cap_; }

    unsigned headSlot() const { return head_; }
    RobHot &hot(unsigned slot) { return hot_[slot]; }
    const RobHot &hot(unsigned slot) const { return hot_[slot]; }
    RobCold &cold(unsigned slot) { return cold_[slot]; }
    const RobCold &cold(unsigned slot) const { return cold_[slot]; }

    /** Retire the head entry. */
    void popHead();

    /** Remove the youngest entry (mispredict walk-back). */
    void popTail();

    /** The youngest valid entry's slot (rob must be non-empty). */
    unsigned tailSlot() const { return slotAt(count_ - 1); }

  private:
    RobHot *hot_ = nullptr;
    RobCold *cold_ = nullptr;
    unsigned cap_ = 0;
    unsigned head_ = 0;
    unsigned count_ = 0;
};

} // namespace fh::pipeline

#endif // FH_PIPELINE_ROB_HH
