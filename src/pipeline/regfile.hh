/**
 * @file
 * Shared physical register file with ready bits and a free list.
 * The fault framework injects single-bit flips directly into register
 * values; the paper uses register-file injections to emulate back-end
 * control and datapath faults generally (Section 4).
 *
 * Storage is four flat arrays (values / ready / free / free-stack) —
 * structure-of-arrays so the issue stage's wakeup checks stream the
 * one-byte ready bits without dragging values through the cache. The
 * arrays normally live in the owning core's arena (bind());
 * standalone construction with a register count allocates private
 * backing for the unit tests.
 */

#ifndef FH_PIPELINE_REGFILE_HH
#define FH_PIPELINE_REGFILE_HH

#include <vector>

#include "pipeline/arena.hh"
#include "sim/types.hh"

namespace fh::pipeline
{

class PhysRegFile
{
  public:
    PhysRegFile() = default;

    /** Standalone mode: allocate private backing for num_regs. */
    explicit PhysRegFile(unsigned num_regs);

    PhysRegFile(const PhysRegFile &other) { *this = other; }
    PhysRegFile &operator=(const PhysRegFile &other);
    PhysRegFile(PhysRegFile &&other) = default;
    PhysRegFile &operator=(PhysRegFile &&other) = default;

    /** Arena mode: adopt externally-laid-out arrays (no init). */
    void bind(u64 *values, u8 *ready, u8 *free_flags, u32 *free_stack,
              unsigned num_regs)
    {
        values_ = values;
        ready_ = ready;
        free_ = free_flags;
        freeStack_ = free_stack;
        numRegs_ = num_regs;
    }

    /** Initial state: all registers zero, ready, and free. */
    void reset();

    /** Pointer fixup after a member-wise arena copy. */
    void shiftBase(std::ptrdiff_t delta)
    {
        values_ = shiftPtr(values_, delta);
        ready_ = shiftPtr(ready_, delta);
        free_ = shiftPtr(free_, delta);
        freeStack_ = shiftPtr(freeStack_, delta);
    }

    unsigned size() const { return numRegs_; }

    u64 read(unsigned preg) const
    {
        // Fault-watch consumption: any value read of the watched
        // register means the (possibly corrupted) value escaped into
        // the dataflow — stop watching, no erasure claim.
        if (preg == watchPreg_)
            watchPreg_ = kNoWatch;
        return values_[preg];
    }
    bool ready(unsigned preg) const { return ready_[preg] != 0; }

    /** Watch-transparent read for metadata (digest maintenance): not a
     *  dataflow consumption, so it must not disarm the fault watch. */
    u64 peek(unsigned preg) const { return values_[preg]; }

    // Wakeup contract (Core's event-driven issue mode): every call
    // that can flip a ready bit 0->1 — write(), release(),
    // resetFreeList() — must be followed by a
    // Core::wakePreg() (or drainAllWakeRows() for the bulk rebuild) at
    // its Core call site, or subscribed consumers sleep through the
    // transition. 1->0 transitions (allocate(), markNotReady()) need
    // no hook: the ready pool re-proves readiness every issue cycle.

    void write(unsigned preg, u64 value)
    {
        // Full-word producer write before any consumption: the watched
        // fault is erased from the machine.
        if (preg == watchPreg_) {
            watchPreg_ = kNoWatch;
            watchErased_ = true;
        }
        values_[preg] = value;
        ready_[preg] = 1;
    }

    void markNotReady(unsigned preg) { ready_[preg] = 0; }

    /** Allocate a free register; returns false when none available. */
    bool allocate(unsigned &preg);
    /** Return a register to the free list (its ready bit reads as set
     *  again — wakeup-contract site, see above). */
    void release(unsigned preg);
    bool isFree(unsigned preg) const { return free_[preg] != 0; }
    unsigned freeCount() const { return freeCount_; }

    /** Flip one bit of one register (fault injection). */
    void flipBit(unsigned preg, unsigned bit)
    {
        values_[preg] ^= 1ULL << bit;
    }

    /**
     * Fault watch (campaign early termination, DESIGN.md "Arch-digest
     * early exit"): watch one register after a fault flip. If the
     * register is overwritten — producer write() of a reallocation, or
     * release() on squash / dead-on-arrival — before any read()
     * consumed it, the fault provably never escaped: watchErased()
     * turns true and the fork is equivalent to a fault-free fork. A
     * read() of the watched register silently disarms the watch (the
     * value escaped; no claim either way).
     */
    void armWatch(unsigned preg)
    {
        watchPreg_ = preg;
        watchErased_ = false;
    }
    void disarmWatch()
    {
        watchPreg_ = kNoWatch;
        watchErased_ = false;
    }
    bool watchErased() const { return watchErased_; }

    /**
     * Rebuild the free list from a liveness bitmap (map-based recovery
     * at a full rollback): every register not marked live becomes
     * free. Repairs free-list corruption left by faulty rename tags,
     * as long as the wrongly-freed register was not yet reallocated.
     */
    void resetFreeList(const std::vector<bool> &live);

  private:
    static constexpr u32 kNoWatch = ~u32(0);

    u64 *values_ = nullptr;
    u8 *ready_ = nullptr;
    u8 *free_ = nullptr;
    u32 *freeStack_ = nullptr; ///< LIFO of free pregs; freeCount_ deep
    unsigned numRegs_ = 0;
    unsigned freeCount_ = 0;
    /// Fault-watched register; mutable so the const read() hot path
    /// can disarm on consumption with a single compare.
    mutable u32 watchPreg_ = kNoWatch;
    bool watchErased_ = false;
    std::vector<std::byte> own_; ///< standalone-mode backing (else empty)
};

} // namespace fh::pipeline

#endif // FH_PIPELINE_REGFILE_HH
