/**
 * @file
 * Unit tests for wo_common: formatting, RNG, statistics, tables, and
 * the concurrent seen-set and steal queue.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/input_limits.hh"
#include "common/random.hh"
#include "common/sharded_set.hh"
#include "common/stats.hh"
#include "common/steal_queue.hh"
#include "common/table.hh"

namespace wo {
namespace {

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strprintf("%05.1f", 2.25), "002.2");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strprintf, LongStringsDoNotTruncate)
{
    std::string big(5000, 'q');
    std::string out = strprintf("<%s>", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 2);
    EXPECT_EQ(out.front(), '<');
    EXPECT_EQ(out.back(), '>');
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(7);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(8);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(10);
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(r.chance(1, 1));
        EXPECT_FALSE(r.chance(0, 5));
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto orig = v;
    r.shuffle(v);
    std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, SplitIsIndependent)
{
    Rng a(5);
    Rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

TEST(Histogram, BasicMoments)
{
    Histogram h;
    for (std::uint64_t v : {1u, 2u, 3u, 4u})
        h.sample(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 4u);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50.0, 1.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99.0, 1.0);
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.percentile(100), 100u);
}

TEST(Histogram, PercentileClampsOutOfRange)
{
    Histogram h;
    for (std::uint64_t v : {10u, 20u, 30u})
        h.sample(v);
    // Out-of-range p clamps to the min/max rather than asserting.
    EXPECT_EQ(h.percentile(-5.0), h.min());
    EXPECT_EQ(h.percentile(250.0), h.max());
}

TEST(Histogram, PercentileEndpointsMatchMinMax)
{
    Histogram h;
    h.sample(7);
    EXPECT_EQ(h.percentile(0), 7u);
    EXPECT_EQ(h.percentile(50), 7u);
    EXPECT_EQ(h.percentile(100), 7u);
    h.sample(3);
    EXPECT_EQ(h.percentile(0), h.min());
    EXPECT_EQ(h.percentile(100), h.max());
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(StatGroup, DumpIsOrderStable)
{
    // Creation order must not affect the dump: lines sort by name.
    StatGroup a("g");
    a.counter("zeta").inc(1);
    a.counter("alpha").inc(2);
    StatGroup b("g");
    b.counter("alpha").inc(2);
    b.counter("zeta").inc(1);
    EXPECT_EQ(a.dump(), b.dump());
    EXPECT_LT(a.dump().find("alpha"), a.dump().find("zeta"));
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.sample(9);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(StatGroup, DumpContainsEverything)
{
    StatGroup g("cpu0");
    g.counter("loads").inc(3);
    g.histogram("latency").sample(12);
    std::string d = g.dump();
    EXPECT_NE(d.find("cpu0.loads 3"), std::string::npos);
    EXPECT_NE(d.find("cpu0.latency"), std::string::npos);
}

TEST(StatGroup, ResetAll)
{
    StatGroup g("x");
    g.counter("c").inc(5);
    g.histogram("h").sample(1);
    g.resetAll();
    EXPECT_EQ(g.counter("c").value(), 0u);
    EXPECT_EQ(g.histogram("h").count(), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "12345"});
    std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("12345"), std::string::npos);
    // Header separator lines are present.
    EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, RowArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_DEATH(wo_assert(1 == 2, "math broke: %d", 3), "math broke");
}

TEST(Logging, AssertMacroPassesOnTrue)
{
    wo_assert(true, "never");
    SUCCEED();
}

TEST(ThreadCount, ParserEnforcesTheCeiling)
{
    // Parses only: nothing here starts a thread.
    int n = 7;
    EXPECT_TRUE(parseThreadCount("256", n));
    EXPECT_EQ(n, 256);
    EXPECT_TRUE(parseThreadCount("1", n));
    EXPECT_EQ(n, 1);
    n = 7;
    for (const char *bad : {"257", "4294967297", "0", "-1", "", "4x",
                            "99999999999999999999999"}) {
        EXPECT_FALSE(parseThreadCount(bad, n)) << bad;
        EXPECT_EQ(n, 7) << bad << ": a refused value must not be stored";
    }
    EXPECT_TRUE(threadCountOk(max_thread_count));
    EXPECT_FALSE(threadCountOk(max_thread_count + 1));
}

TEST(InputLimits, NumbersAreStrictDecimal)
{
    std::uint64_t x = 7;
    EXPECT_TRUE(parseDecimal("010", x));
    EXPECT_EQ(x, 10u);
    EXPECT_TRUE(parseDecimal("18446744073709551615", x));
    EXPECT_EQ(x, ~std::uint64_t{0});
    x = 7;
    for (const char *bad : {"0x10", "-1", "+1", " 1", "1 ", "", "1e3",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseDecimal(bad, x)) << bad;
        EXPECT_EQ(x, 7u) << bad;
    }
    int n = 7;
    EXPECT_FALSE(parseThreadCount("0x10", n));
    EXPECT_EQ(n, 7);
    EXPECT_TRUE(parseThreadCount("010", n));
    EXPECT_EQ(n, 10);
}

TEST(ShardedSet, InsertContainsAndDuplicateClaims)
{
    ShardedSet<std::uint64_t> s;
    EXPECT_EQ(s.bytes(), 0u); // no shard has a table yet
    EXPECT_TRUE(s.insert(0xa11ce));
    EXPECT_FALSE(s.insert(0xa11ce)); // the second claim loses
    EXPECT_TRUE(s.contains(0xa11ce));
    EXPECT_FALSE(s.contains(0xb0b));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.bytes(), 64 * sizeof(std::uint64_t)); // one 64-slot shard
}

TEST(ShardedSet, AllZeroKeyIsAKeyLikeAnyOther)
{
    struct Wide
    {
        std::uint64_t lo = 0, hi = 0;
        bool operator==(const Wide &) const = default;
    };
    struct WideHash
    {
        std::size_t
        operator()(const Wide &k) const
        {
            return Mix64{}(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
        }
    };
    ShardedSet<Wide, WideHash> s;
    EXPECT_FALSE(s.contains(Wide{}));
    EXPECT_TRUE(s.insert(Wide{}));
    EXPECT_FALSE(s.insert(Wide{}));
    EXPECT_TRUE(s.contains(Wide{}));
    EXPECT_TRUE(s.insert(Wide{0, 1}));
    EXPECT_TRUE(s.insert(Wide{1, 0}));
    EXPECT_FALSE(s.insert(Wide{0, 1}));
    EXPECT_EQ(s.size(), 3u);
}

TEST(ShardedSet, GrowsThroughSeveralDoublings)
{
    // 200,000 keys over 64 shards is ~3,100 per shard: each shard's
    // table doubles from 64 slots six or more times.
    ShardedSet<std::uint64_t> s;
    constexpr std::uint64_t n = 200'000;
    for (std::uint64_t k = 1; k <= n; ++k)
        ASSERT_TRUE(s.insert(k)) << k;
    EXPECT_EQ(s.size(), n);
    for (std::uint64_t k = 1; k <= n; ++k)
        ASSERT_TRUE(s.contains(k)) << k;
    EXPECT_FALSE(s.contains(n + 1));
    EXPECT_FALSE(s.insert(n / 2));
    // Half load at most, so at least two 8-byte slots per key.
    EXPECT_GE(s.bytes(), 2 * n * sizeof(std::uint64_t));
    EXPECT_LE(s.bytes(), 64 * n * sizeof(std::uint64_t));
}

TEST(ShardedSet, ReserveSizesEveryShardUpFront)
{
    ShardedSet<std::uint64_t> s;
    s.insert(7);
    s.reserve(10'000); // 157 keys a shard: 512 slots at half load
    const std::size_t reserved = 64 * 512 * sizeof(std::uint64_t);
    EXPECT_EQ(s.bytes(), reserved);
    EXPECT_TRUE(s.contains(7)); // reserving re-seats what was there
    for (std::uint64_t k = 1; k <= 10'000; ++k)
        EXPECT_EQ(s.insert(k), k != 7);
    EXPECT_EQ(s.size(), 10'000u);
    EXPECT_GE(s.bytes(), reserved);
    s.reserve(100); // never shrinks
    EXPECT_GE(s.bytes(), reserved);
}

TEST(ShardedSet, ConcurrentInsertsClaimEachKeyOnce)
{
    constexpr std::size_t keys = 10'000;
    ShardedSet<std::uint64_t> s;
    std::vector<std::atomic<int>> wins(keys);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            // Each thread walks the keys from a different start so the
            // threads race on every key rather than trail each other.
            for (std::size_t i = 0; i < keys; ++i) {
                const std::size_t k = (i + t * keys / 4) % keys;
                if (s.insert(k))
                    wins[k].fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (std::size_t k = 0; k < keys; ++k)
        EXPECT_EQ(wins[k].load(), 1) << k;
    EXPECT_EQ(s.size(), keys);
}

TEST(StealQueue, OwnerTakesNewestThiefTakesOldest)
{
    StealQueue<int> q(3);
    for (int i = 1; i <= 5; ++i)
        q.push(0, i);
    int x = 0;
    ASSERT_TRUE(q.take(0, x));
    EXPECT_EQ(x, 5); // the owner pops LIFO
    ASSERT_TRUE(q.take(1, x));
    EXPECT_EQ(x, 1); // a thief steals FIFO
    ASSERT_TRUE(q.take(2, x));
    EXPECT_EQ(x, 2);
    q.push(2, 9);
    ASSERT_TRUE(q.take(2, x));
    EXPECT_EQ(x, 9); // own work before stealing
    ASSERT_TRUE(q.take(0, x));
    EXPECT_EQ(x, 4);
    ASSERT_TRUE(q.take(0, x));
    EXPECT_EQ(x, 3);
    EXPECT_FALSE(q.take(0, x));
    EXPECT_FALSE(q.take(1, x));
    EXPECT_EQ(q.steals(), 2u);
}

TEST(StealQueue, OrderSurvivesCompaction)
{
    StealQueue<int> q(2);
    for (int i = 0; i < 10; ++i)
        q.push(0, i);
    int x = -1;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(q.take(1, x));
        EXPECT_EQ(x, i);
    }
    q.push(0, 10); // six of ten stolen: this push compacts them away
    ASSERT_TRUE(q.take(1, x));
    EXPECT_EQ(x, 6);
    for (int want : {10, 9, 8, 7}) {
        ASSERT_TRUE(q.take(0, x));
        EXPECT_EQ(x, want);
    }
    EXPECT_FALSE(q.take(0, x));
    EXPECT_EQ(q.steals(), 7u);
}

TEST(StealQueue, ConcurrentPushTakeAndStealTakeEachItemOnce)
{
    constexpr int workers = 4, per = 10'000, total = workers * per;
    StealQueue<int> q(workers);
    std::vector<std::atomic<int>> taken(total);
    std::atomic<int> left{total};
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w)
        threads.emplace_back([&, w] {
            auto takeOne = [&] {
                int x = 0;
                if (!q.take(w, x))
                    return;
                taken[x].fetch_add(1, std::memory_order_relaxed);
                left.fetch_sub(1, std::memory_order_relaxed);
            };
            // Worker 0 pushes twice as fast as it takes, so the others
            // find their own queues dry and steal from it.
            for (int i = 0; i < per; ++i) {
                q.push(w, w * per + i);
                if (w != 0 || i % 2)
                    takeOne();
            }
            while (left.load(std::memory_order_relaxed) > 0)
                takeOne();
        });
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < total; ++i)
        EXPECT_EQ(taken[i].load(), 1) << i;
}

} // namespace
} // namespace wo
