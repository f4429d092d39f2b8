#include "sim/rng.hh"

#include "sim/logging.hh"

namespace fh
{

namespace
{

u64
splitmix64(u64 &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Rng::reseed(u64 seed)
{
    u64 x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
}

u64
Rng::next()
{
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

u64
Rng::below(u64 bound)
{
    fh_assert(bound != 0, "Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = -bound % bound;
    for (;;) {
        u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

u64
Rng::range(u64 lo, u64 hi)
{
    fh_assert(lo <= hi, "Rng::range lo > hi");
    return lo + below(hi - lo + 1);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng
Rng::stream(u64 seed, u64 index)
{
    // Whiten the seed, fold the stream index in, whiten again; the
    // Rng constructor then runs four more splitmix64 rounds, so even
    // adjacent (seed, index) pairs land in unrelated states.
    u64 x = seed;
    x = splitmix64(x) ^ index;
    return Rng(splitmix64(x));
}

} // namespace fh
