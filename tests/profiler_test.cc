/**
 * @file
 * The self-profiler and the span timelines (src/obs/profiler.hh,
 * src/obs/timeline.hh): the pure aggregation core against golden
 * outputs, the end-to-end sampling path against real threads, and the
 * timeline bookkeeping the campaign summary is built from.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "obs/profiler.hh"
#include "obs/timeline.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace wo {
namespace {

using Stack = Profiler::SymStack;
using Counted = std::vector<std::pair<Stack, std::uint64_t>>;

// ------------------------------------------------- folded-format golden

TEST(FoldStacks, GoldenFormat)
{
    const Counted stacks = {
        {{"worker0", {"main", "runCell", "simulate"}}, 3},
        {{"worker0", {"main", "runCell"}}, 1},
        {{"worker1", {"main", "steal"}}, 2},
    };
    EXPECT_EQ(Profiler::foldStacks(stacks),
              "worker0;main;runCell 1\n"
              "worker0;main;runCell;simulate 3\n"
              "worker1;main;steal 2\n");
}

TEST(FoldStacks, MergesIdenticalStacksAndSortsLines)
{
    const Counted stacks = {
        {{"b", {"f"}}, 1},
        {{"a", {"g"}}, 4},
        {{"b", {"f"}}, 2}, // same lane+stack: counts add
    };
    EXPECT_EQ(Profiler::foldStacks(stacks), "a;g 4\nb;f 3\n");
}

TEST(FoldStacks, EmptyInputFoldsToEmpty)
{
    EXPECT_EQ(Profiler::foldStacks({}), "");
}

// ------------------------------------------------------- top-N tables

TEST(TopTables, SelfCountsLeafTotalCountsOncePerSample)
{
    const Counted stacks = {
        {{"w", {"main", "hot"}}, 5},
        {{"w", {"main", "hot", "inner"}}, 2},
        // Recursive: "rec" appears twice but totals once per sample.
        {{"w", {"main", "rec", "rec"}}, 3},
    };
    const Json top = Profiler::topTables(stacks, 10);
    ASSERT_TRUE(top.isArray());

    auto row = [&](const std::string &frame) -> const Json * {
        for (const Json &r : top.items())
            if (r.find("frame")->stringValue() == frame)
                return &r;
        return nullptr;
    };

    const Json *hot = row("hot");
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->find("self")->uintValue(), 5u);
    EXPECT_EQ(hot->find("total")->uintValue(), 7u); // 5 leaf + 2 inner

    const Json *rec = row("rec");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->find("self")->uintValue(), 3u);
    EXPECT_EQ(rec->find("total")->uintValue(), 3u); // once per sample

    const Json *main_row = row("main");
    ASSERT_NE(main_row, nullptr);
    EXPECT_EQ(main_row->find("self")->uintValue(), 0u);
    EXPECT_EQ(main_row->find("total")->uintValue(), 10u);

    // Rows sort by self desc: "hot" leads.
    EXPECT_EQ(top.items()[0].find("frame")->stringValue(), "hot");
}

TEST(TopTables, TopNCapsRows)
{
    Counted stacks;
    for (int i = 0; i < 8; ++i)
        stacks.push_back({{"w", {strprintf("f%d", i)}}, 1});
    EXPECT_EQ(Profiler::topTables(stacks, 3).items().size(), 3u);
    EXPECT_EQ(Profiler::topTables(stacks, 0).items().size(),
              8u); // 0 = uncapped
}

// ------------------------------------------------- library frame names

TEST(ObjectFrameName, BasenamePlusHexOffset)
{
    EXPECT_EQ(Profiler::objectFrameName("/lib/x86_64-linux-gnu/libc.so.6",
                                        0x7f0000088c3a, 0x7f0000000000),
              "libc.so.6+0x88c3a");
    EXPECT_EQ(Profiler::objectFrameName("wotool", 0x1010, 0x1000),
              "wotool+0x10");
    EXPECT_EQ(Profiler::objectFrameName("/opt/x/lib.so", 0x5000, 0x5000),
              "lib.so+0x0");
    // ';' separates folded frames, so it never survives in a name.
    EXPECT_EQ(Profiler::objectFrameName("/tmp/a;b.so", 0x2a, 0),
              "a,b.so+0x2a");
}

// --------------------------------------------------- sampling end to end

TEST(Profiler, SamplesAllEngineThreads)
{
    ProfilerCfg cfg;
    cfg.hz = 250;
    Profiler prof(cfg);
    ASSERT_TRUE(prof.start());

    std::atomic<bool> stop{false};
    auto spin = [&stop](const char *name) {
        Profiler::ThreadGuard guard(name);
        volatile std::uint64_t x = 0;
        while (!stop.load(std::memory_order_relaxed))
            ++x;
    };
    std::thread a(spin, "prof-alpha");
    std::thread b(spin, "prof-beta");
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop = true;
    a.join();
    b.join();
    prof.stop();

    EXPECT_GT(prof.samples(), 0u);
    EXPECT_GT(prof.signalsSent(), 0u);
    EXPECT_EQ(prof.dropped(), 0u);

    // Every registered engine thread shows up as a folded lane.
    const std::string folded = prof.folded();
    EXPECT_NE(folded.find("prof-alpha;"), std::string::npos) << folded;
    EXPECT_NE(folded.find("prof-beta;"), std::string::npos) << folded;
    // Every folded line carries a positive trailing count.
    for (std::size_t pos = 0; pos < folded.size();) {
        const std::size_t eol = folded.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string line = folded.substr(pos, eol - pos);
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u)
            << line;
        pos = eol + 1;
    }

    const Json j = prof.toJson();
    EXPECT_EQ(j.find("samples")->uintValue(), prof.samples());
    const Json *threads = j.find("threads");
    ASSERT_NE(threads, nullptr);
    std::vector<std::string> lanes;
    for (const Json &t : threads->items())
        lanes.push_back(t.stringValue());
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "prof-alpha"),
              lanes.end());
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "prof-beta"),
              lanes.end());
    ASSERT_NE(j.find("top"), nullptr);
    EXPECT_GT(j.find("top")->items().size(), 0u);
}

TEST(Profiler, SecondInstanceCannotStartWhileFirstRuns)
{
    Profiler first;
    ASSERT_TRUE(first.start());
    Profiler second;
    EXPECT_FALSE(second.start());
    first.stop();
    // The handler slot frees on stop.
    Profiler third;
    EXPECT_TRUE(third.start());
    third.stop();
}

TEST(Profiler, NeverStartedRecordsNothing)
{
    Profiler prof;
    prof.stop();
    EXPECT_EQ(prof.samples(), 0u);
    EXPECT_EQ(prof.signalsSent(), 0u);
    EXPECT_EQ(prof.folded(), "");
}

TEST(Profiler, FullRingCountsDrops)
{
    ProfilerCfg cfg;
    cfg.max_samples = 16; // the floor
    Profiler prof(cfg);
    // Drive the sample path directly (outside a signal): 20 into 16.
    for (int i = 0; i < 20; ++i)
        prof.recordSample(-1);
    prof.stop();
    EXPECT_EQ(prof.samples(), 16u);
    EXPECT_EQ(prof.dropped(), 4u);
    // Unregistered slots still fold, under an honest lane name.
    EXPECT_NE(prof.folded().find("unregistered"), std::string::npos);
}

TEST(Profiler, ThreadGuardUnregistersOnExit)
{
    const std::size_t before = Profiler::registeredThreads();
    {
        Profiler::ThreadGuard guard("transient");
        EXPECT_EQ(Profiler::registeredThreads(), before + 1);
    }
    EXPECT_EQ(Profiler::registeredThreads(), before);
}

// ------------------------------------------- System::run() integration

TEST(Profiler, SystemRunOffByDefaultLeavesNoProfilerMetrics)
{
    Program prog = litmus::messagePassingSync();
    SystemCfg cfg;
    ASSERT_FALSE(cfg.profile);
    System sys(prog, cfg);
    const SystemResult r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats_json.find("\"profiler\""), std::string::npos);
}

TEST(Profiler, SystemRunWithProfileMountsProfilerMetrics)
{
    Program prog = litmus::messagePassingSync();
    SystemCfg cfg;
    cfg.profile = true;
    cfg.profile_hz = 500;
    System sys(prog, cfg);
    const SystemResult r = sys.run();
    ASSERT_TRUE(r.completed);
    // The run may be too short for a sample, but the metrics mount
    // either way -- zero samples is a result, not an absence.
    EXPECT_NE(r.stats_json.find("\"profiler\""), std::string::npos);
    EXPECT_NE(r.stats_json.find("\"samples\""), std::string::npos);
}

// ------------------------------------------------------------ Timeline

TEST(Timeline, AggregatesTotalsCountsAndMax)
{
    Timeline tl;
    tl.configure("worker0", Timeline::Clock::now(), false);
    const auto t0 = Timeline::Clock::now();
    tl.add(SpanKind::run, t0, t0 + std::chrono::milliseconds(10));
    tl.add(SpanKind::run, t0, t0 + std::chrono::milliseconds(30));
    tl.add(SpanKind::idle, t0, t0 + std::chrono::milliseconds(5));

    const SpanAgg run = tl.agg(SpanKind::run);
    EXPECT_NEAR(run.total_ms, 40.0, 0.01);
    EXPECT_EQ(run.count, 2u);
    EXPECT_NEAR(run.max_ms, 30.0, 0.01);
    EXPECT_NEAR(tl.agg(SpanKind::idle).total_ms, 5.0, 0.01);
    EXPECT_EQ(tl.agg(SpanKind::shrink).count, 0u);
    EXPECT_NEAR(tl.spanSumMs(), 45.0, 0.01);
    EXPECT_EQ(tl.liveNs(SpanKind::idle), 5'000'000u);
    // Events off: nothing recorded for the trace.
    EXPECT_TRUE(tl.events().empty());
}

TEST(Timeline, ScopeIsNullSafeAndNests)
{
    {
        Timeline::Scope nothing(nullptr, SpanKind::run); // must not crash
    }

    Timeline tl;
    tl.configure("w", Timeline::Clock::now(), true);
    {
        Timeline::Scope outer(&tl, SpanKind::run);
        {
            Timeline::Scope inner(&tl, SpanKind::journal_push);
        }
    }
    EXPECT_EQ(tl.agg(SpanKind::run).count, 1u);
    EXPECT_EQ(tl.agg(SpanKind::journal_push).count, 1u);
    ASSERT_EQ(tl.events().size(), 2u);
    // Inner closed first; spans nest (outer brackets inner).
    const SpanEvent &inner = tl.events()[0];
    const SpanEvent &outer = tl.events()[1];
    EXPECT_EQ(inner.kind, SpanKind::journal_push);
    EXPECT_EQ(outer.kind, SpanKind::run);
    EXPECT_LE(outer.t0_us, inner.t0_us);
    EXPECT_GE(outer.t1_us, inner.t1_us);

    // close() is idempotent.
    Timeline::Scope s(&tl, SpanKind::idle);
    s.close();
    s.close();
    EXPECT_EQ(tl.agg(SpanKind::idle).count, 1u);
}

TEST(Timeline, CurrentIsPerThread)
{
    Timeline tl;
    Timeline::setCurrent(&tl);
    EXPECT_EQ(Timeline::current(), &tl);
    std::thread([&] { EXPECT_EQ(Timeline::current(), nullptr); }).join();
    Timeline::setCurrent(nullptr);
    EXPECT_EQ(Timeline::current(), nullptr);
}

TEST(Timeline, ChromeJsonHasOneLanePerTimelineWithStableTids)
{
    const auto epoch = Timeline::Clock::now();
    Timeline w0, w1;
    w0.configure("worker0", epoch, true);
    w1.configure("journal-writer", epoch, true);
    const auto t0 = epoch + std::chrono::milliseconds(1);
    w0.add(SpanKind::run, t0, t0 + std::chrono::milliseconds(2));
    w1.add(SpanKind::writer_flush, t0,
           t0 + std::chrono::milliseconds(1));

    const std::string json = timelinesChromeJson({&w0, &w1});
    JsonParseResult p = jsonParse(json);
    ASSERT_TRUE(p.ok) << p.error;
    const Json *events = p.value.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Lane metadata: tid equals the lane's index, named for its thread.
    std::map<std::uint64_t, std::string> lane_names;
    for (const Json &e : events->items()) {
        if (e.find("ph")->stringValue() == "M")
            lane_names[e.find("tid")->uintValue()] =
                e.find("args")->find("name")->stringValue();
    }
    ASSERT_EQ(lane_names.size(), 2u);
    EXPECT_EQ(lane_names[0], "worker0");
    EXPECT_EQ(lane_names[1], "journal-writer");

    // Span events carry their lane's tid and a positive duration.
    bool saw_run = false, saw_flush = false;
    for (const Json &e : events->items()) {
        if (e.find("ph")->stringValue() != "X")
            continue;
        if (e.find("name")->stringValue() == "run") {
            saw_run = true;
            EXPECT_EQ(e.find("tid")->uintValue(), 0u);
            EXPECT_EQ(e.find("dur")->uintValue(), 2000u);
        }
        if (e.find("name")->stringValue() == "writer_flush") {
            saw_flush = true;
            EXPECT_EQ(e.find("tid")->uintValue(), 1u);
        }
    }
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(saw_flush);
}

TEST(Timeline, WallClockBracketsSpans)
{
    Timeline tl;
    tl.configure("w", Timeline::Clock::now(), false);
    EXPECT_EQ(tl.liveElapsedNs(), 0u); // not started yet
    tl.markStart();
    const auto t0 = Timeline::Clock::now();
    tl.add(SpanKind::run, t0, t0 + std::chrono::microseconds(100));
    EXPECT_GT(tl.liveElapsedNs(), 0u);
    tl.markEnd();
    EXPECT_GT(tl.wallMs(), 0.0);
}

} // namespace
} // namespace wo
