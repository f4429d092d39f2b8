#include "isa/instruction.hh"

#include "sim/logging.hh"

namespace fh::isa
{

Instruction
makeHalt()
{
    Instruction inst;
    inst.op = Op::Halt;
    return inst;
}

Instruction
makeRRR(Op op, u8 rd, u8 rs1, u8 rs2)
{
    fh_assert(classOf(op) == OpClass::IntAlu || classOf(op) == OpClass::IntMul,
              "makeRRR on non-ALU op");
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    return inst;
}

Instruction
makeRRI(Op op, u8 rd, u8 rs1, i64 imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.imm = imm;
    return inst;
}

Instruction
makeLi(u8 rd, i64 imm)
{
    Instruction inst;
    inst.op = Op::Li;
    inst.rd = rd;
    inst.imm = imm;
    return inst;
}

Instruction
makeLd(u8 rd, u8 rs1, i64 imm)
{
    Instruction inst;
    inst.op = Op::Ld;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.imm = imm;
    return inst;
}

Instruction
makeSt(u8 rs1, u8 rs2, i64 imm)
{
    Instruction inst;
    inst.op = Op::St;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

Instruction
makeBranch(Op op, u8 rs1, u8 rs2, u32 target)
{
    fh_assert(isCondBranch(op), "makeBranch on non-branch op");
    Instruction inst;
    inst.op = op;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.target = target;
    return inst;
}

Instruction
makeJmp(u32 target)
{
    Instruction inst;
    inst.op = Op::Jmp;
    inst.target = target;
    return inst;
}

} // namespace fh::isa
