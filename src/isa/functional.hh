/**
 * @file
 * Architecture-level FH-RISC semantics: stepArch executes one
 * instruction against an ArchState and a Memory. The timing core's
 * oracle fetch calls it, the golden ledger compares ArchStates and
 * their digests, and the tests' reference executor
 * (tests/reference_functional.hh) loops over it.
 */

#ifndef FH_ISA_FUNCTIONAL_HH
#define FH_ISA_FUNCTIONAL_HH

#include <array>

#include "isa/exec.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "sim/types.hh"

namespace fh::isa
{

/** Architectural trap kinds; any trap is a "noisy" fault symptom. */
enum class Trap : u8
{
    None,
    MemUnmapped,
    MemMisaligned,
    BadPc
};

/** Architectural register + PC state of one hardware thread. */
struct ArchState
{
    std::array<u64, numArchRegs> regs{};
    u64 pc = 0;
    bool halted = false;

    bool operator==(const ArchState &other) const = default;
};

/** Initial architectural state of thread tid for a program. */
ArchState initialState(const Program &prog, unsigned tid);

/** splitmix64 finalizer; the per-term mixer behind the O(1)
 *  architectural-state digest (DESIGN.md "Arch-digest early exit"). */
constexpr u64
digestMix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One register's digest term. Binding the architectural index into
 *  the mix keeps the XOR combination order-free yet position-aware. */
constexpr u64
digestRegTerm(unsigned arch, u64 value)
{
    return digestMix64(value + (u64(arch) + 1) * 0x9e3779b97f4a7c15ULL);
}

/** The PC's digest term (salted so pc==reg-value collisions mix). */
constexpr u64
digestPcTerm(u64 pc)
{
    return digestMix64(pc ^ 0xa5a5a5a55a5a5a5aULL);
}

/** XOR-ed into the digest while the thread is halted. */
inline constexpr u64 kDigestHaltedSalt = 0xc3c3c3c33c3c3c3cULL;

/**
 * Digest of one thread's architectural state: XOR of the per-register
 * terms, the PC term, and the halted salt. XOR combination makes the
 * digest O(1)-maintainable at commit: replacing register r's value
 * costs `d ^= digestRegTerm(r, old) ^ digestRegTerm(r, new)`.
 * Collision probability per compare is ~2^-64, same acceptance as the
 * PR 3 incremental memory digests.
 */
constexpr u64
archStateDigest(const ArchState &s)
{
    u64 d = digestPcTerm(s.pc);
    for (unsigned r = 0; r < numArchRegs; ++r)
        d ^= digestRegTerm(r, s.regs[r]);
    if (s.halted)
        d ^= kDigestHaltedSalt;
    return d;
}

/**
 * Execute one instruction of prog against state/memory. This is the
 * single source of truth for FH-RISC semantics: the timing core's
 * oracle threads and the tests' reference executor both call it.
 */
Trap stepArch(const Program &prog, mem::Memory &memory, ArchState &state);

} // namespace fh::isa

#endif // FH_ISA_FUNCTIONAL_HH
