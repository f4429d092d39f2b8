/**
 * @file
 * The functional executor (tests/reference_functional.hh over
 * isa::stepArch): small programs with loops, memory traffic, and trap
 * behavior. stepArch is the semantics the timing core's oracle fetch
 * runs, so they are pinned here in detail.
 */

#include <gtest/gtest.h>

#include "isa/functional.hh"
#include "reference_functional.hh"
#include "reference_memory.hh"

using namespace fh;
using namespace fh::isa;

namespace
{

Program
sumLoop(u64 n)
{
    // r4 = sum(1..n), storing partials to memory.
    ProgramBuilder b("sum");
    b.addSegment(0x1000, 0x800);
    b.emit(makeLi(2, 1));                  // i = 1
    b.emit(makeLi(3, static_cast<i64>(n + 1)));
    b.emit(makeLi(4, 0));                  // sum
    u32 loop = b.here();
    b.emit(makeRRR(Op::Add, 4, 4, 2));
    b.emit(makeRRI(Op::Andi, 5, 2, 63));
    b.emit(makeRRI(Op::Slli, 5, 5, 3));
    b.emit(makeRRI(Op::Addi, 5, 5, 0x1000));
    b.emit(makeSt(5, 4, 0));
    b.emit(makeRRI(Op::Addi, 2, 2, 1));
    b.emit(makeBranch(Op::Blt, 2, 3, loop));
    Program p = b.take();
    p.threadBases = {0};
    return p;
}

} // namespace

TEST(Functional, ComputesLoopSum)
{
    Program p = sumLoop(100);
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.run(100000);
    EXPECT_TRUE(f.halted());
    EXPECT_EQ(f.state().regs[4], 5050u);
    EXPECT_EQ(f.lastTrap(), Trap::None);
}

TEST(Functional, StoresReachMemory)
{
    Program p = sumLoop(10);
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.run(100000);
    // i=10 stored sum(1..10)=55 at slot 10.
    EXPECT_EQ(peek(m, 0x1000 + 10 * 8), 55u);
}

TEST(Functional, LoadsSeeEarlierStores)
{
    ProgramBuilder b("rt");
    b.addSegment(0x1000, 0x100);
    b.emit(makeLi(2, 0x1000));
    b.emit(makeLi(3, 777));
    b.emit(makeSt(2, 3, 8));
    b.emit(makeLd(4, 2, 8));
    Program p = b.take();
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.run(100);
    EXPECT_EQ(f.state().regs[4], 777u);
}

TEST(Functional, R0IsHardwiredZero)
{
    ProgramBuilder b("r0");
    b.emit(makeLi(0, 99)); // attempt to write r0
    b.emit(makeRRI(Op::Addi, 2, 0, 5));
    Program p = b.take();
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.run(10);
    EXPECT_EQ(f.state().regs[0], 0u);
    EXPECT_EQ(f.state().regs[2], 5u);
}

TEST(Functional, UnmappedLoadTraps)
{
    ProgramBuilder b("trap");
    b.addSegment(0x1000, 0x100);
    b.emit(makeLi(2, 0x9000));
    b.emit(makeLd(3, 2, 0));
    Program p = b.take();
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.step();
    EXPECT_EQ(f.step(), Trap::MemUnmapped);
    EXPECT_TRUE(f.halted());
}

TEST(Functional, MisalignedStoreTraps)
{
    ProgramBuilder b("trap2");
    b.addSegment(0x1000, 0x100);
    b.emit(makeLi(2, 0x1004));
    b.emit(makeSt(2, 0, 0));
    Program p = b.take();
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    f.step();
    EXPECT_EQ(f.step(), Trap::MemMisaligned);
}

TEST(Functional, RunStopsAtBudget)
{
    Program p = sumLoop(1000000);
    mem::Memory m;
    p.load(m);
    Functional f(&p, &m);
    EXPECT_EQ(f.run(500), 500u);
    EXPECT_FALSE(f.halted());
    EXPECT_EQ(f.retired(), 500u);
}

TEST(Functional, StepArchMatchesFunctionalObject)
{
    Program p = sumLoop(50);
    mem::Memory m1;
    mem::Memory m2;
    p.load(m1);
    p.load(m2);
    Functional f(&p, &m1);
    ArchState s = initialState(p, 0);
    for (int i = 0; i < 400 && !s.halted; ++i) {
        f.step();
        stepArch(p, m2, s);
    }
    EXPECT_TRUE(s == f.state());
    EXPECT_TRUE(sameContents(m1, m2));
}
