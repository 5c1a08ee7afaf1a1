/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the laboratory (workload generators,
 * jittered network delivery, property-test program synthesis) draws from a
 * Rng seeded explicitly, so any run can be reproduced from its seed.  The
 * generator is xoshiro256** seeded through SplitMix64, which is both fast
 * and of adequate statistical quality for simulation use.
 */

#ifndef WO_COMMON_RANDOM_HH
#define WO_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

#include "logging.hh"

namespace wo {

/**
 * SplitMix64: one step of its stream from @p x, a bijective 64-bit mix.
 * It seeds Rng, derives the campaign stream's per-index coordinates
 * and hashes ShardedSet's 64-bit keys.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** A small, fast, explicitly-seeded PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) ; bound must be positive. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw: true with probability num/den. */
    bool chance(std::uint64_t num, std::uint64_t den);

    /** Uniform real in [0,1). */
    double real();

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        wo_assert(!v.empty(), "pick() from empty vector");
        return v[below(v.size())];
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel structures). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

} // namespace wo

#endif // WO_COMMON_RANDOM_HH
