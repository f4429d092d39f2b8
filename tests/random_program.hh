/**
 * @file
 * Random well-formed FH-RISC programs for the fuzz suites: a counted
 * outer loop around random ALU/load/store blocks and a data-dependent
 * diamond, two SMT threads over disjoint scratch segments.
 */

#ifndef FH_TESTS_RANDOM_PROGRAM_HH
#define FH_TESTS_RANDOM_PROGRAM_HH

#include "isa/program.hh"
#include "sim/rng.hh"

namespace fh::test
{

using namespace fh::isa;

inline constexpr Addr segBase = 0x30000000;
inline constexpr u64 segWords = 256; // power of two

/**
 * Emit a random basic block: ALU ops over r2..r12, masked loads and
 * stores over the scratch segment, using only in-range addresses.
 */
inline void
emitBlock(ProgramBuilder &b, Rng &rng, unsigned len)
{
    auto reg = [&] { return static_cast<u8>(2 + rng.below(11)); };
    for (unsigned i = 0; i < len; ++i) {
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {
            static const Op rrr[] = {Op::Add, Op::Sub, Op::And,
                                     Op::Or, Op::Xor, Op::Mul,
                                     Op::SltU};
            b.emit(makeRRR(rrr[rng.below(7)], reg(), reg(), reg()));
            break;
          }
          case 3:
          case 4: {
            static const Op rri[] = {Op::Addi, Op::Andi, Op::Ori,
                                     Op::Xori};
            b.emit(makeRRI(rri[rng.below(4)], reg(), reg(),
                           static_cast<i64>(rng.below(1024))));
            break;
          }
          case 5:
            b.emit(makeRRI(rng.chance(0.5) ? Op::Slli : Op::Srli,
                           reg(), reg(),
                           static_cast<i64>(rng.below(16))));
            break;
          case 6:
            b.emit(makeLi(reg(), static_cast<i64>(rng.next() >> 40)));
            break;
          case 7:
          case 8: {
            // addr = r1 + ((rX & mask) << 3): always in-segment.
            u8 idx = reg();
            b.emit(makeRRI(Op::Andi, 13, idx,
                           static_cast<i64>(segWords - 1)));
            b.emit(makeRRI(Op::Slli, 13, 13, 3));
            b.emit(makeRRR(Op::Add, 13, 13, 1));
            if (rng.chance(0.5))
                b.emit(makeLd(reg(), 13, 0));
            else
                b.emit(makeSt(13, reg(), 0));
            break;
          }
          default:
            b.emit(Instruction{}); // nop
            break;
        }
    }
}

/** A random program: counted outer loop around random blocks with a
 *  data-dependent inner branch. */
inline isa::Program
randomProgram(u64 seed, u64 iterations)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz");
    b.addSegment(segBase, segWords * 8);
    b.addSegment(segBase + 0x10000, segWords * 8);
    Rng init_rng(rng.next() ^ 0xd1b54a32d192ed03ULL); // child stream
    for (u64 w = 0; w < segWords; ++w) {
        u64 v = init_rng.next() & 0xffff;
        b.initWord(segBase + w * 8, v);
        b.initWord(segBase + 0x10000 + w * 8, v);
    }

    b.emit(makeLi(14, 0)); // loop counter
    const u32 loop = b.here();
    b.emit(makeLi(15, static_cast<i64>(iterations)));
    emitBlock(b, rng, 4 + static_cast<unsigned>(rng.below(12)));

    // A data-dependent diamond.
    b.emit(makeRRI(Op::Andi, 13, static_cast<u8>(2 + rng.below(11)),
                   3));
    u32 br = b.emit(makeBranch(Op::Bne, 13, 0, 0));
    emitBlock(b, rng, 2 + static_cast<unsigned>(rng.below(6)));
    u32 jmp = b.emit(makeJmp(0));
    b.patchTargetHere(br);
    emitBlock(b, rng, 2 + static_cast<unsigned>(rng.below(6)));
    b.patchTargetHere(jmp);

    b.emit(makeRRI(Op::Addi, 14, 14, 1));
    b.emit(makeBranch(Op::Blt, 14, 15, loop));
    Program p = b.take();
    p.threadBases = {segBase, segBase + 0x10000};
    return p;
}

} // namespace fh::test

#endif // FH_TESTS_RANDOM_PROGRAM_HH
