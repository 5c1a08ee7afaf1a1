/**
 * @file
 * The "already seen?" set every concurrent search shares: DPOR's
 * visited nodes, the journal's claimed cell keys and the fuzzer's
 * novel outcomes.
 *
 * Insert-only and sharded: a key's shard is picked by the top bits of
 * its hash, and each shard is an open-addressing table (linear
 * probing, power-of-two size, grown at half load) behind its own
 * mutex on its own cache lines, so two threads contend only when
 * their keys share a shard.  Inserting allocates nothing except on
 * growth, and the keys sit contiguous for the probe walk.  The
 * all-zero key doubles as the empty-slot marker and gets a flag.
 */

#ifndef WO_COMMON_SHARDED_SET_HH
#define WO_COMMON_SHARDED_SET_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/random.hh"

namespace wo {

/** Hash for 64-bit keys, even sequential ones: mixed, so the shard (top
 *  bits) and the slot (low bits) each depend on every key bit. */
struct Mix64
{
    std::size_t operator()(std::uint64_t x) const { return mix64(x); }
};

/** Insert-only concurrent set of trivially copyable keys (Key{} too). */
template <typename Key, typename Hash = Mix64>
class ShardedSet
{
  public:
    static constexpr unsigned shard_bits = 6;
    static constexpr std::size_t num_shards = std::size_t{1} << shard_bits;

    ShardedSet() : shards_(num_shards) {}

    /** True when @p k was absent (the caller claimed it). */
    bool
    insert(const Key &k)
    {
        const std::size_t h = Hash{}(k);
        Shard &s = shards_[h >> (64 - shard_bits)];
        std::lock_guard<std::mutex> g(s.mu);
        if (k == Key{}) {
            const bool fresh = !std::exchange(s.zero_present, true);
            s.used += fresh;
            return fresh;
        }
        if ((s.used + 1) * 2 > s.slots.size())
            s.rehash(s.slots.empty() ? 64 : s.slots.size() * 2);
        Key &slot = s.slots[probe(s.slots, k, h)];
        if (slot == k)
            return false;
        slot = k;
        ++s.used;
        return true;
    }

    bool
    contains(const Key &k) const
    {
        const std::size_t h = Hash{}(k);
        Shard &s = shards_[h >> (64 - shard_bits)];
        std::lock_guard<std::mutex> g(s.mu);
        if (k == Key{})
            return s.zero_present;
        return !s.slots.empty() && s.slots[probe(s.slots, k, h)] == k;
    }

    /** Pre-size every shard for @p n keys spread evenly over them. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 64;
        while (want < 2 * (n / num_shards + 1))
            want *= 2;
        for (Shard &s : shards_) {
            std::lock_guard<std::mutex> g(s.mu);
            if (want > s.slots.size())
                s.rehash(want);
        }
    }

    /** Distinct keys inserted. */
    std::size_t
    size() const
    {
        return sum([](const Shard &s) { return s.used; });
    }

    /** Table footprint in bytes. */
    std::size_t
    bytes() const
    {
        return sum([](const Shard &s) { return s.slots.size() * sizeof(Key); });
    }

  private:
    static_assert(sizeof(std::size_t) == 8, "shards take the top hash bits");

    struct alignas(64) Shard
    {
        std::mutex mu;
        std::vector<Key> slots;
        std::size_t used = 0;
        bool zero_present = false;

        void
        rehash(std::size_t pow2)
        {
            std::vector<Key> old(pow2);
            old.swap(slots);
            for (const Key &k : old)
                if (k != Key{})
                    slots[probe(slots, k, Hash{}(k))] = k;
        }
    };

    /** The slot holding @p k, or else the empty slot it would take. */
    static std::size_t
    probe(const std::vector<Key> &slots, const Key &k, std::size_t h)
    {
        std::size_t i = h & (slots.size() - 1);
        while (slots[i] != Key{} && slots[i] != k)
            i = (i + 1) & (slots.size() - 1);
        return i;
    }

    template <typename F>
    std::size_t
    sum(F field) const
    {
        std::size_t n = 0;
        for (Shard &s : shards_) {
            std::lock_guard<std::mutex> g(s.mu);
            n += field(s);
        }
        return n;
    }

    mutable std::vector<Shard> shards_;
};

} // namespace wo

#endif // WO_COMMON_SHARDED_SET_HH
