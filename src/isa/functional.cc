#include "isa/functional.hh"

namespace fh::isa
{

namespace
{

Trap
trapFor(mem::AccessResult res)
{
    switch (res) {
      case mem::AccessResult::Ok:
        return Trap::None;
      case mem::AccessResult::Unmapped:
        return Trap::MemUnmapped;
      case mem::AccessResult::Misaligned:
        return Trap::MemMisaligned;
    }
    return Trap::None;
}

} // namespace

ArchState
initialState(const Program &prog, unsigned tid)
{
    ArchState state;
    state.regs[1] = prog.baseOf(tid);
    return state;
}

Trap
stepArch(const Program &prog, mem::Memory &memory, ArchState &state)
{
    if (state.halted)
        return Trap::None;

    if (state.pc >= prog.text.size()) {
        state.halted = true;
        return Trap::BadPc;
    }

    const Instruction &inst = prog.text[state.pc];
    const u64 a = state.regs[inst.rs1];
    const u64 b = state.regs[inst.rs2];
    u64 next_pc = state.pc + 1;

    switch (classOf(inst.op)) {
      case OpClass::Nop:
        break;
      case OpClass::Halt:
        state.halted = true;
        break;
      case OpClass::IntAlu:
      case OpClass::IntMul:
        if (inst.rd != 0)
            state.regs[inst.rd] = aluCompute(inst, a, b);
        break;
      case OpClass::Load: {
        u64 value = 0;
        Trap t = trapFor(memory.read(effectiveAddr(inst, a), value));
        if (t != Trap::None) {
            state.halted = true;
            return t;
        }
        if (inst.rd != 0)
            state.regs[inst.rd] = value;
        break;
      }
      case OpClass::Store: {
        Trap t = trapFor(memory.write(effectiveAddr(inst, a), b));
        if (t != Trap::None) {
            state.halted = true;
            return t;
        }
        break;
      }
      case OpClass::Branch:
        if (branchTaken(inst.op, a, b))
            next_pc = inst.target;
        break;
    }

    state.regs[0] = 0;
    if (!state.halted)
        state.pc = next_pc;
    return Trap::None;
}

} // namespace fh::isa
