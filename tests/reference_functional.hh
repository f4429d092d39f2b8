/**
 * @file
 * The functional (architecture-level) reference executor: runs a
 * Program one instruction at a time against a Memory through
 * isa::stepArch, the one definition of FH-RISC semantics that the
 * timing core's oracle fetch also calls. Only tests use it; the timing
 * pipeline's final architectural state is property-tested against the
 * same stepArch loop.
 */

#ifndef FH_TESTS_REFERENCE_FUNCTIONAL_HH
#define FH_TESTS_REFERENCE_FUNCTIONAL_HH

#include "isa/functional.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace fh::isa
{

/**
 * Single-stepping functional executor of thread 0. Copyable; holds a
 * pointer to the program (immutable, shared) and to the memory.
 */
class Functional
{
  public:
    Functional(const Program *prog, mem::Memory *memory)
        : prog_(prog), memory_(memory)
    {
        fh_assert(prog_ && memory_, "null program/memory");
        state_ = initialState(*prog_, 0);
    }

    /** Execute one instruction. Returns the trap raised, if any. */
    Trap step()
    {
        if (state_.halted)
            return Trap::None;
        const Trap t = stepArch(*prog_, *memory_, state_);
        if (t != Trap::None) {
            trap_ = t;
            return t;
        }
        ++retired_;
        return Trap::None;
    }

    /** Execute up to max_insts instructions or until halt/trap.
     *  Returns the number of instructions retired. */
    u64 run(u64 max_insts)
    {
        u64 n = 0;
        while (n < max_insts && !state_.halted) {
            if (step() != Trap::None)
                break;
            ++n;
        }
        return n;
    }

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }

    bool halted() const { return state_.halted; }
    u64 retired() const { return retired_; }
    Trap lastTrap() const { return trap_; }

    const Program &program() const { return *prog_; }
    mem::Memory &memory() { return *memory_; }

  private:
    const Program *prog_;
    mem::Memory *memory_;
    ArchState state_;
    u64 retired_ = 0;
    Trap trap_ = Trap::None;
};

} // namespace fh::isa

#endif // FH_TESTS_REFERENCE_FUNCTIONAL_HH
