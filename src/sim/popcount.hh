/**
 * @file
 * Portable population count. On baseline x86-64 (no -mpopcnt) neither
 * std::popcount nor __builtin_popcountll has an instruction to lower
 * to: both become a call to libgcc's __popcountdi2. So the builtin is
 * used only where it compiles to an instruction — x86-64 built with
 * POPCNT enabled, and AArch64 — and everywhere else an inline SWAR
 * reduction gives identical results without the call and without an
 * ISA-gating compile flag. The same holds for std::has_single_bit,
 * which libstdc++ builds on the population count: hasSingleBit is a
 * bit test instead.
 */

#ifndef FH_SIM_POPCOUNT_HH
#define FH_SIM_POPCOUNT_HH

#include "sim/types.hh"

namespace fh
{

constexpr unsigned
popcount64(u64 x)
{
#if (defined(__GNUC__) || defined(__clang__)) &&                        \
    ((defined(__x86_64__) && defined(__POPCNT__)) || defined(__aarch64__))
    return static_cast<unsigned>(__builtin_popcountll(x));
#else
    // Classic SWAR reduction (Hacker's Delight, fig. 5-2).
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
#endif
}

/** x is a power of two. */
constexpr bool
hasSingleBit(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace fh

#endif // FH_SIM_POPCOUNT_HH
