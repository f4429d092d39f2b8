/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in the simulator flows through seeded Rng instances so
 * that every experiment is reproducible bit-for-bit. The generator is
 * xoshiro256** seeded via splitmix64, which gives independent streams
 * from small integer seeds.
 */

#ifndef FH_SIM_RNG_HH
#define FH_SIM_RNG_HH

#include <array>

#include "sim/types.hh"

namespace fh
{

/**
 * xoshiro256** PRNG with convenience draws. Copyable value type so that
 * forked simulations (tandem fault runs) replay identically.
 */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialize the stream from a 64-bit seed. */
    void reseed(u64 seed);

    /** Next raw 64-bit draw. */
    u64 next();

    /** Uniform integer in [0, bound). bound must be non-zero. */
    u64 below(u64 bound);

    /** Uniform integer in [lo, hi] inclusive. */
    u64 range(u64 lo, u64 hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Derive the index-th independent stream of a base seed via two
     * splitmix64 mixing rounds. This does not touch any
     * generator state, so stream(seed, i) is a pure function of its
     * arguments — campaign trial i draws from stream(cfg.seed, i) no
     * matter which worker thread executes it. Adjacent indices give
     * statistically uncorrelated streams (tests/test_rng.cc).
     */
    static Rng stream(u64 seed, u64 index);

    bool operator==(const Rng &other) const = default;

  private:
    std::array<u64, 4> s_;
};

} // namespace fh

#endif // FH_SIM_RNG_HH
