/**
 * @file
 * FH-RISC: opcode metadata, instruction constructors, ALU/branch
 * semantics (the shared exec helpers), disassembly, and the program
 * builder.
 */

#include <gtest/gtest.h>

#include "isa/exec.hh"
#include "isa/functional.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"
#include "reference_memory.hh"
#include "sim/logging.hh"

using namespace fh;
using namespace fh::isa;

TEST(Opcode, ClassesAndMetadata)
{
    EXPECT_EQ(classOf(Op::Add), OpClass::IntAlu);
    EXPECT_EQ(classOf(Op::Mul), OpClass::IntMul);
    EXPECT_EQ(classOf(Op::Ld), OpClass::Load);
    EXPECT_EQ(classOf(Op::St), OpClass::Store);
    EXPECT_EQ(classOf(Op::Beq), OpClass::Branch);
    EXPECT_EQ(classOf(Op::Jmp), OpClass::Branch);
    EXPECT_TRUE(isCondBranch(Op::Blt));
    EXPECT_FALSE(isCondBranch(Op::Jmp));
    EXPECT_TRUE(writesReg(Op::Ld));
    EXPECT_FALSE(writesReg(Op::St));
    EXPECT_FALSE(writesReg(Op::Beq));
    EXPECT_TRUE(readsRs2(Op::St));
    EXPECT_FALSE(readsRs2(Op::Addi));
    EXPECT_FALSE(readsRs1(Op::Li));
}

struct AluCase
{
    Op op;
    u64 a;
    u64 b;
    i64 imm;
    u64 expect;
};

class AluSemantics : public testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, Computes)
{
    const AluCase &c = GetParam();
    Instruction inst;
    inst.op = c.op;
    inst.imm = c.imm;
    EXPECT_EQ(aluCompute(inst, c.a, c.b), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    testing::Values(
        AluCase{Op::Add, 5, 7, 0, 12},
        AluCase{Op::Add, ~0ULL, 1, 0, 0}, // wraparound
        AluCase{Op::Sub, 5, 7, 0, static_cast<u64>(-2)},
        AluCase{Op::And, 0xf0f0, 0xff00, 0, 0xf000},
        AluCase{Op::Or, 0xf0f0, 0x0f0f, 0, 0xffff},
        AluCase{Op::Xor, 0xff, 0x0f, 0, 0xf0},
        AluCase{Op::Sll, 1, 63, 0, 1ULL << 63},
        AluCase{Op::Sll, 1, 64, 0, 1},       // shift amount mod 64
        AluCase{Op::Srl, 1ULL << 63, 63, 0, 1},
        AluCase{Op::Sra, ~0ULL, 8, 0, ~0ULL}, // sign extension
        AluCase{Op::Sra, 1ULL << 62, 62, 0, 1},
        AluCase{Op::Mul, 0xffffffffULL, 0xffffffffULL, 0,
                0xfffffffe00000001ULL},
        AluCase{Op::SltU, 3, 5, 0, 1},
        AluCase{Op::SltU, 5, 3, 0, 0},
        AluCase{Op::Addi, 10, 99, -3, 7},
        AluCase{Op::Andi, 0xabcd, 0, 0xff, 0xcd},
        AluCase{Op::Ori, 0x100, 0, 0x2, 0x102},
        AluCase{Op::Xori, 0xf, 0, 0x1, 0xe},
        AluCase{Op::Slli, 3, 0, 4, 48},
        AluCase{Op::Srli, 0x100, 0, 4, 0x10},
        AluCase{Op::Li, 99, 99, -5, static_cast<u64>(-5)}));

TEST(BranchSemantics, AllConditions)
{
    EXPECT_TRUE(branchTaken(Op::Beq, 4, 4));
    EXPECT_FALSE(branchTaken(Op::Beq, 4, 5));
    EXPECT_TRUE(branchTaken(Op::Bne, 4, 5));
    EXPECT_TRUE(branchTaken(Op::Blt, static_cast<u64>(-1), 0)); // signed
    EXPECT_FALSE(branchTaken(Op::Blt, 0, static_cast<u64>(-1)));
    EXPECT_TRUE(branchTaken(Op::Bge, 0, static_cast<u64>(-1)));
    EXPECT_TRUE(branchTaken(Op::Jmp, 0, 0));
}

TEST(EffectiveAddr, AddsSignedOffset)
{
    Instruction inst = makeLd(2, 1, -16);
    EXPECT_EQ(effectiveAddr(inst, 0x1000), 0xff0u);
}

namespace
{

/** Human-readable rendering, e.g. "add r3, r1, r2". */
std::string
disassemble(const Instruction &inst)
{
    const char *name = nameOf(inst.op).data();
    switch (inst.op) {
      case Op::Nop:
      case Op::Halt:
        return name;
      case Op::Li:
        return csprintf("%s r%u, %lld", name, inst.rd,
                        static_cast<long long>(inst.imm));
      case Op::Addi:
      case Op::Andi:
      case Op::Ori:
      case Op::Xori:
      case Op::Slli:
      case Op::Srli:
        return csprintf("%s r%u, r%u, %lld", name, inst.rd, inst.rs1,
                        static_cast<long long>(inst.imm));
      case Op::Ld:
        return csprintf("%s r%u, [r%u + %lld]", name, inst.rd, inst.rs1,
                        static_cast<long long>(inst.imm));
      case Op::St:
        return csprintf("%s [r%u + %lld], r%u", name, inst.rs1,
                        static_cast<long long>(inst.imm), inst.rs2);
      case Op::Beq:
      case Op::Bne:
      case Op::Blt:
      case Op::Bge:
        return csprintf("%s r%u, r%u, @%u", name, inst.rs1, inst.rs2,
                        inst.target);
      case Op::Jmp:
        return csprintf("%s @%u", name, inst.target);
      default:
        return csprintf("%s r%u, r%u, r%u", name, inst.rd, inst.rs1,
                        inst.rs2);
    }
}

} // namespace

TEST(Disassemble, RendersAllFormats)
{
    EXPECT_EQ(disassemble(Instruction{}), "nop");
    EXPECT_EQ(disassemble(makeHalt()), "halt");
    EXPECT_EQ(disassemble(makeRRR(Op::Add, 3, 1, 2)), "add r3, r1, r2");
    EXPECT_EQ(disassemble(makeRRI(Op::Addi, 3, 1, -4)),
              "addi r3, r1, -4");
    EXPECT_EQ(disassemble(makeLi(5, 10)), "li r5, 10");
    EXPECT_EQ(disassemble(makeLd(2, 1, 8)), "ld r2, [r1 + 8]");
    EXPECT_EQ(disassemble(makeSt(1, 2, 8)), "st [r1 + 8], r2");
    EXPECT_EQ(disassemble(makeBranch(Op::Blt, 1, 2, 7)),
              "blt r1, r2, @7");
    EXPECT_EQ(disassemble(makeJmp(3)), "jmp @3");
}

TEST(ProgramBuilder, ForwardPatchingAndAutoHalt)
{
    ProgramBuilder b("t");
    b.emit(makeLi(2, 1));
    u32 br = b.emit(makeBranch(Op::Beq, 2, 0, 0));
    b.emit(makeLi(3, 2));
    b.patchTargetHere(br);
    b.emit(makeLi(4, 3));
    Program p = b.take();
    EXPECT_EQ(p.text[br].target, 3u);
    EXPECT_EQ(p.text.back().op, Op::Halt);
}

TEST(Program, LoadRegistersSegmentsAndData)
{
    ProgramBuilder b("t");
    b.addSegment(0x1000, 0x100);
    b.initWord(0x1008, 42);
    Program p = b.take();
    mem::Memory m;
    p.load(m);
    EXPECT_EQ(peek(m, 0x1008), 42u);
    EXPECT_EQ(m.check(0x1000), mem::AccessResult::Ok);
    EXPECT_EQ(m.check(0x2000), mem::AccessResult::Unmapped);
}

TEST(Program, PerThreadBasesAndFetchAddr)
{
    Program p;
    p.threadBases = {0x1000, 0x2000};
    EXPECT_EQ(p.baseOf(0), 0x1000u);
    EXPECT_EQ(p.baseOf(1), 0x2000u);
    EXPECT_EQ(p.baseOf(2), 0x1000u); // wraps
    EXPECT_EQ(p.fetchAddr(3), p.textBase + 24);

    auto init = isa::initialState(p, 1);
    EXPECT_EQ(init.regs[1], 0x2000u);
    EXPECT_EQ(init.pc, 0u);
    EXPECT_FALSE(init.halted);
}
