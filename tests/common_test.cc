/**
 * @file
 * Unit tests for wo_common: formatting, RNG, statistics, tables.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_count.hh"

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

} // namespace
} // namespace wo
