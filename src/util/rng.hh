/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in the simulator draws from a seeded Rng so
 * that runs are exactly reproducible; tests depend on this. The generator
 * is xoshiro256** seeded through SplitMix64, which is both fast and of
 * adequate statistical quality for workload synthesis.
 */

#ifndef MPOS_UTIL_RNG_HH
#define MPOS_UTIL_RNG_HH

#include <cstdint>

namespace mpos::util
{

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        uint64_t x = seed;
        for (auto &word : s) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // for workload synthesis; modulo bias at these bounds is
        // negligible, but we use 128-bit multiply anyway.
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return real() < p; }

    /**
     * Precomputed form of chance(): chance(p) compares
     * u * 2^-53 < p with u = next() >> 11, and since scaling by a
     * power of two is exact that is u < ceil(p * 2^53) over the
     * integers. Callers that test the same probability millions of
     * times can hoist the threshold and skip the int-to-double
     * conversion per draw; the draw itself, its order, and the
     * outcome are identical to chance(p).
     */
    static uint64_t
    chanceThreshold(double p)
    {
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return uint64_t(1) << 53;
        const double scaled = p * 0x1.0p53; // exact for p in (0, 1)
        const uint64_t floor_ = uint64_t(scaled);
        return floor_ + (double(floor_) < scaled);
    }

    /** chance(p) for a threshold from chanceThreshold(p). */
    bool
    chanceBelow(uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Geometric-ish burst length in [1, max]: each extra unit continues
     * with probability cont.
     */
    uint32_t
    burst(double cont, uint32_t max)
    {
        uint32_t n = 1;
        while (n < max && chance(cont))
            ++n;
        return n;
    }

    /// @name Snapshot state
    /// The snapshot layer checkpoints every stream mid-run; a restored
    /// generator continues the exact draw sequence of the original.
    /// @{
    template <class Ar>
    void
    state(Ar &ar)
    {
        for (uint64_t &word : s)
            ar.u64(word);
    }
    /// @}

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

} // namespace mpos::util

#endif // MPOS_UTIL_RNG_HH
