/**
 * @file
 * Tests for the observability layer: the JSON model and parser, the
 * Chrome trace-event exporter and its validator, the stall-attribution
 * profiler's accounting invariants, and the Figure-3 golden property
 * that DRF0 stalls the release side strictly less than Definition 1.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "asm/assembler.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/validate.hh"
#include "sys/system.hh"

namespace wo {
namespace {

// ---------------------------------------------------------------- Json

TEST(Json, RoundTripsDocument)
{
    Json doc = Json::object();
    doc.set("name", Json("fig3"));
    doc.set("ticks", Json(std::uint64_t{117}));
    doc.set("ratio", Json(0.5));
    doc.set("ok", Json(true));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json());
    doc.set("items", arr);

    auto r = jsonParse(doc.dump(2));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.find("name")->stringValue(), "fig3");
    EXPECT_EQ(r.value.find("ticks")->uintValue(), 117u);
    EXPECT_DOUBLE_EQ(r.value.find("ratio")->numberValue(), 0.5);
    EXPECT_TRUE(r.value.find("ok")->boolValue());
    ASSERT_EQ(r.value.find("items")->items().size(), 3u);
    EXPECT_TRUE(r.value.find("items")->items()[2].isNull());
}

TEST(Json, EscapesStrings)
{
    Json s(std::string("a\"b\\c\n\t\x01"));
    auto r = jsonParse(s.dump());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.stringValue(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParserRejectsGarbage)
{
    EXPECT_FALSE(jsonParse("").ok);
    EXPECT_FALSE(jsonParse("{").ok);
    EXPECT_FALSE(jsonParse("[1,]").ok);
    EXPECT_FALSE(jsonParse("{\"a\":1} trailing").ok);
    EXPECT_FALSE(jsonParse("{'a':1}").ok);
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zeta", Json(1));
    doc.set("alpha", Json(2));
    const std::string text = doc.dump();
    EXPECT_LT(text.find("zeta"), text.find("alpha"));
}

/** printf's text for one number: the reference every Json number
 *  dump must match byte for byte. */
std::string
printfText(const char *fmt, ...)
{
    char buf[64];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

TEST(Json, NumbersDumpAsPrintfDid)
{
    // Journals, the wire and BENCH files are diffed and digested
    // across builds: every number must keep its printf text.
    const struct
    {
        Json value;
        const char *golden;
        std::string printf_text;
    } cases[] = {
        {Json(std::uint64_t{UINT64_MAX}), "18446744073709551615",
         printfText("%llu", ULLONG_MAX)},
        {Json(std::uint64_t{0}), "0", printfText("%llu", 0ULL)},
        {Json(std::int64_t{INT64_MIN}), "-9223372036854775808",
         printfText("%lld", LLONG_MIN)},
        {Json(std::int64_t{0}), "0", printfText("%lld", 0LL)},
        {Json(-1), "-1", printfText("%lld", -1LL)},
        {Json(0.0), "0", printfText("%.17g", 0.0)},
        {Json(-0.0), "-0", printfText("%.17g", -0.0)},
        {Json(0.1), "0.10000000000000001", printfText("%.17g", 0.1)},
        {Json(9007199254740993.0), "9007199254740992",
         printfText("%.17g", 9007199254740993.0)}, // 2^53+1 rounds
        {Json(4.9406564584124654e-324), "4.9406564584124654e-324",
         printfText("%.17g", 4.9406564584124654e-324)},
        {Json(1e300), "1.0000000000000001e+300",
         printfText("%.17g", 1e300)},
        {Json(0.5), "0.5", printfText("%.17g", 0.5)},
        {Json(123456.789), "123456.789", printfText("%.17g", 123456.789)},
        {Json(1e-5), "1.0000000000000001e-05", printfText("%.17g", 1e-5)},
        {Json(1e17), "1e+17", printfText("%.17g", 1e17)},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(c.value.dump(), c.golden);
        EXPECT_EQ(c.value.dump(), c.printf_text);
    }
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
    EXPECT_EQ(Json(HUGE_VAL).dump(), "null");
    EXPECT_EQ(Json(-HUGE_VAL).dump(), "null");

    // And a seeded sample of every bit pattern's doubles and int64s.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 100'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        double d;
        std::memcpy(&d, &x, sizeof d);
        if (std::isfinite(d)) {
            ASSERT_EQ(Json(d).dump(), printfText("%.17g", d)) << x;
        }
        const auto s = static_cast<std::int64_t>(x);
        ASSERT_EQ(Json(s).dump(),
                  printfText("%lld", static_cast<long long>(s)));
        ASSERT_EQ(Json(x).dump(),
                  printfText("%llu", static_cast<unsigned long long>(x)));
    }
}

// ----------------------------------------------------------- validator

TEST(TraceValidator, RejectsNonTraces)
{
    EXPECT_FALSE(validateChromeTrace("not json").ok);
    EXPECT_FALSE(validateChromeTrace("{}").ok);
    EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": 3}").ok);
    // An event missing its phase.
    EXPECT_FALSE(
        validateChromeTrace("{\"traceEvents\":[{\"name\":\"x\"}]}").ok);
}

// ------------------------------------------------------ system harness

AsmResult
loadFig3()
{
    AsmResult a = assembleFile(std::string(WO_PROGRAMS_DIR) + "/fig3.wo");
    EXPECT_TRUE(a.ok());
    return a;
}

struct Fig3Run
{
    SystemResult result;
    std::string chrome;
    std::string jsonl;
    std::string stats_json;
};

Fig3Run
runFig3(OrderingPolicy policy, bool trace)
{
    AsmResult a = loadFig3();
    SystemCfg cfg;
    cfg.policy = policy;
    cfg.trace = trace;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    Fig3Run run;
    run.result = sys.run();
    run.stats_json = run.result.stats_json;
    if (trace) {
        run.chrome = sys.obs().chromeTraceJson();
        run.jsonl = sys.obs().traceJsonl();
    }
    return run;
}

TEST(Fig3Warm, AssemblerCarriesWarmDirective)
{
    AsmResult a = loadFig3();
    ASSERT_EQ(a.warm.size(), 1u);
    EXPECT_EQ(a.warm[0].procs, std::vector<ProcId>{1});
}

// The paper's Figure-3 claim, as a golden property: under Definition 1
// the releasing processor stalls the synchronization write until every
// prior access performs; the new DRF0 implementation lets it run ahead,
// so its release-side stall cycles drop strictly.
TEST(Fig3Golden, Drf0ReleaseStallsStrictlyBelowDef1)
{
    auto def1 = runFig3(OrderingPolicy::wo_def1, false);
    auto drf0 = runFig3(OrderingPolicy::wo_drf0, false);
    ASSERT_TRUE(def1.result.completed);
    ASSERT_TRUE(drf0.result.completed);
    const std::uint64_t rel_def1 = def1.result.stall_stat_total("release");
    const std::uint64_t rel_drf0 = drf0.result.stall_stat_total("release");
    EXPECT_LT(rel_drf0, rel_def1)
        << "DRF0 must stall the release side less than Definition 1";
}

TEST(StallProfiler, BucketsSumToTotalPerCpu)
{
    for (auto policy :
         {OrderingPolicy::sc, OrderingPolicy::wo_def1,
          OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro}) {
        auto run = runFig3(policy, false);
        for (const auto &cpu : run.result.stall_counters) {
            std::uint64_t buckets = 0;
            for (int b = 0; b < num_stall_buckets; ++b)
                buckets += cpu.at(
                    stallBucketName(static_cast<StallBucket>(b)));
            EXPECT_EQ(buckets, cpu.at("total"))
                << "policy " << policyName(policy);
            // The side split is a second partition of the same cycles.
            EXPECT_EQ(cpu.at("data") + cpu.at("release") +
                          cpu.at("acquire"),
                      cpu.at("total"))
                << "policy " << policyName(policy);
        }
    }
}

TEST(TraceSink, ChromeTraceValidates)
{
    auto run = runFig3(OrderingPolicy::wo_drf0, true);
    TraceValidation v = validateChromeTrace(run.chrome);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_GT(v.complete, 0u) << "expected op/stall complete events";
    EXPECT_GT(v.metadata, 0u) << "expected thread_name metadata";
}

TEST(TraceSink, JsonlLinesParse)
{
    auto run = runFig3(OrderingPolicy::wo_drf0, true);
    std::istringstream in(run.jsonl);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        auto r = jsonParse(line);
        ASSERT_TRUE(r.ok) << r.error << " in: " << line;
        ASSERT_TRUE(r.value.isObject());
        EXPECT_NE(r.value.find("ev"), nullptr) << line;
        ++lines;
    }
    EXPECT_GT(lines, 0u);
}

TEST(Metrics, StatsJsonParsesAndSumsMatch)
{
    auto run = runFig3(OrderingPolicy::wo_drf0, false);
    auto r = jsonParse(run.stats_json);
    ASSERT_TRUE(r.ok) << r.error;
    const Json *meta = r.value.find("run");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("policy")->stringValue(), "WO-DRF0");
    EXPECT_TRUE(meta->find("completed")->boolValue());
    // The stall subtree mirrors the counters the result carries.
    for (std::size_t p = 0; p < run.result.stall_counters.size(); ++p) {
        const Json *cpu = r.value.find("cpu" + std::to_string(p));
        ASSERT_NE(cpu, nullptr);
        const Json *stall = cpu->find("stall");
        ASSERT_NE(stall, nullptr);
        std::uint64_t buckets = 0;
        for (int b = 0; b < num_stall_buckets; ++b)
            buckets += stall->find(stallBucketName(
                                       static_cast<StallBucket>(b)))
                           ->uintValue();
        EXPECT_EQ(buckets, stall->find("total")->uintValue());
        EXPECT_EQ(stall->find("total")->uintValue(),
                  run.result.stall_counters[p].at("total"));
    }
}

TEST(Metrics, RegistryNestsDottedPaths)
{
    MetricsRegistry reg;
    reg.set("run.policy", Json("SC"));
    static constexpr const char *names[] = {"misses", "hits"};
    StatGroup g("g", names);
    g.inc(1, 3);
    reg.addGroup("cache0", g);
    auto r = jsonParse(reg.dump());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.find("run")->find("policy")->stringValue(), "SC");
    EXPECT_EQ(r.value.find("cache0")->find("hits")->uintValue(), 3u);
}

TEST(Metrics, PrometheusTextGoldenForSeededRegistry)
{
    // The control plane's /metrics contract, pinned byte-for-byte:
    // dotted paths flatten with '_', a `part{label="x"}` component
    // passes its labels through, histograms render cumulative buckets
    // plus the implicit +Inf, and every base gets one # TYPE line.
    MetricsRegistry reg;
    reg.set("cells.completed", Json(std::uint64_t{7}));
    reg.set("done", Json(false));
    reg.set("worker{worker=\"0\"}.ran", Json(std::uint64_t{4}));
    Json h = Json::object();
    h.set("count", Json(std::uint64_t{3}));
    h.set("sum", Json(std::uint64_t{112}));
    Json buckets = Json::array();
    Json b16 = Json::object();
    b16.set("le", Json(std::uint64_t{16}));
    b16.set("n", Json(std::uint64_t{1}));
    buckets.push(std::move(b16));
    Json b64 = Json::object();
    b64.set("le", Json(std::uint64_t{64}));
    b64.set("n", Json(std::uint64_t{3}));
    buckets.push(std::move(b64));
    h.set("buckets", std::move(buckets));
    reg.set("cell_latency_us", std::move(h));

    const char *golden =
        "# TYPE wo_campaign_cells_completed gauge\n"
        "wo_campaign_cells_completed 7\n"
        "# TYPE wo_campaign_done gauge\n"
        "wo_campaign_done 0\n"
        "# TYPE wo_campaign_worker_ran gauge\n"
        "wo_campaign_worker_ran{worker=\"0\"} 4\n"
        "# TYPE wo_campaign_cell_latency_us histogram\n"
        "wo_campaign_cell_latency_us_bucket{le=\"16\"} 1\n"
        "wo_campaign_cell_latency_us_bucket{le=\"64\"} 3\n"
        "wo_campaign_cell_latency_us_bucket{le=\"+Inf\"} 3\n"
        "wo_campaign_cell_latency_us_sum 112\n"
        "wo_campaign_cell_latency_us_count 3\n";
    EXPECT_EQ(prometheusText(reg.json(), "wo_campaign"), golden);
}

TEST(Metrics, PrometheusHistogramBucketsAreCumulative)
{
    // Render a real Histogram through the same path the run metrics
    // take; whatever the bucket layout, the exported counts must be
    // monotone and the last explicit bucket must absorb every sample.
    Histogram h;
    for (std::uint64_t v : {1, 2, 2, 4, 100})
        h.sample(v);
    Json tree = Json::object();
    tree.set("lat", histogramToJson(h));
    const std::string text = prometheusText(tree, "wo");

    std::uint64_t prev = 0, buckets = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const auto at = line.find("_bucket{le=\"");
        if (at == std::string::npos)
            continue;
        ++buckets;
        const std::uint64_t n =
            std::strtoull(line.substr(line.find("} ") + 2).c_str(),
                          nullptr, 10);
        EXPECT_GE(n, prev) << text;
        prev = n;
    }
    EXPECT_GE(buckets, 2u) << text;
    EXPECT_EQ(prev, h.count()) << text; // +Inf line comes last
}

} // namespace
} // namespace wo
