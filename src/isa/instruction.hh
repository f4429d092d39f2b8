/**
 * @file
 * Static instruction representation and assembler-style
 * constructors.
 */

#ifndef FH_ISA_INSTRUCTION_HH
#define FH_ISA_INSTRUCTION_HH

#include <string>

#include "isa/opcode.hh"
#include "sim/types.hh"

namespace fh::isa
{

/** Number of architectural integer registers. r0 is hardwired zero. */
constexpr unsigned numArchRegs = 32;

/**
 * One static FH-RISC instruction. PCs are instruction indices into the
 * program (word-addressed text); branch targets are static indices.
 */
struct Instruction
{
    Op op = Op::Nop;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    i64 imm = 0;
    u32 target = 0; ///< branch/jump destination (instruction index)

    bool writesReg() const { return isa::writesReg(op) && rd != 0; }
    bool readsRs1() const { return isa::readsRs1(op); }
    bool readsRs2() const { return isa::readsRs2(op); }

    bool operator==(const Instruction &other) const = default;
};

// Assembler-style constructors (a default Instruction is a nop).
Instruction makeHalt();
Instruction makeRRR(Op op, u8 rd, u8 rs1, u8 rs2);
Instruction makeRRI(Op op, u8 rd, u8 rs1, i64 imm);
Instruction makeLi(u8 rd, i64 imm);
Instruction makeLd(u8 rd, u8 rs1, i64 imm);
Instruction makeSt(u8 rs1, u8 rs2, i64 imm);
Instruction makeBranch(Op op, u8 rs1, u8 rs2, u32 target);
Instruction makeJmp(u32 target);

} // namespace fh::isa

#endif // FH_ISA_INSTRUCTION_HH
