#include "random.hh"

namespace wo {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    for (std::uint64_t &s : s_) {
        s = mix64(seed);
        seed += 0x9e3779b97f4a7c15ULL; // the SplitMix64 stream's step
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    wo_assert(bound > 0, "Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    wo_assert(lo <= hi, "Rng::range with lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool
Rng::chance(std::uint64_t num, std::uint64_t den)
{
    wo_assert(den > 0, "Rng::chance with zero denominator");
    return below(den) < num;
}

double
Rng::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642fULL);
}

} // namespace wo
