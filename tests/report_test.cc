/**
 * @file
 * Tests for the static campaign dashboard (obs/report.hh): a seeded
 * fault-injection campaign must render into a self-contained
 * report.html carrying the outcome matrix and at least one embedded
 * happens-before witness SVG -- whether the campaign ran in process or
 * on a fleet -- a verify campaign's census must keep inconclusive and
 * nonsc cells apart from errors, and the builder must refuse an empty
 * directory rather than emit a hollow page.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "fleet/coordinator.hh"
#include "fleet/worker.hh"
#include "obs/report.hh"

namespace wo {
namespace {

std::string
slurp(const std::string &path)
{
    std::string out;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

// The reserve-bit leak witness from campaign_test: under WO-DRF0 with
// the injected fault the lock line's reserve bit survives the release
// and the monitor flags it, giving the report a deterministic failure
// to render.
const char *const leak_source = R"(program fatleak
thread 0
  ld r1 pad0
  st pad1 7
  tas r7 lock
  st data 1
  st data2 2
  syncst lock 0
  ld r2 pad0
  st pad1 9
thread 1
  work 300
  ld r3 pad2
  tas r7 lock
  syncst lock 0
  st pad2 5
thread 2
  ld r4 pad3
  st pad3 1
  ld r5 pad3
)";

TEST(Report, RendersMatrixAndEmbeddedWitnessForSeededFault)
{
    const std::string wo_path = testing::TempDir() + "report_leak.wo";
    FILE *f = std::fopen(wo_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(leak_source, f);
    std::fclose(f);

    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 30;
    cfg.out_dir = testing::TempDir() + "report_camp";
    cfg.max_events = 60'000;
    cfg.shrink_max_runs = 200;
    cfg.inject_reserve_bug = true;
    cfg.policies = {OrderingPolicy::wo_drf0};
    cfg.program_files = {wo_path};
    cfg.seed = 31;
    auto sum = runCampaign(cfg);
    ASSERT_GE(sum.failures.size(), 1u); // the hunt must land

    ReportCfg rcfg;
    rcfg.out_dir = cfg.out_dir;
    std::string error;
    const std::string path = writeCampaignReport(rcfg, &error);
    ASSERT_FALSE(path.empty()) << error;
    const std::string html = slurp(path);
    ASSERT_FALSE(html.empty());

    // Self-contained document with every section present.
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("outcome matrix"), std::string::npos);
    EXPECT_NE(html.find("per-cell latency"), std::string::npos);
    EXPECT_NE(html.find("violations"), std::string::npos);

    // The outcome matrix has program rows, the pinned policy column,
    // and hardware-failing cells.
    EXPECT_NE(html.find("class=prog"), std::string::npos);
    EXPECT_NE(html.find("<th>drf0</th>"), std::string::npos);
    EXPECT_NE(html.find("c-hw"), std::string::npos);
    // The journal header names the seeded fault.
    EXPECT_NE(html.find("seeded reserve-bit fault"), std::string::npos);

    // At least one failure card embeds its hb witness as inline SVG
    // (the marker defs only exist in the witness renderer's output)
    // and its shrunk reproducer text.
    EXPECT_NE(html.find("happens-before witness"), std::string::npos);
    EXPECT_NE(html.find("id=\"m-po\""), std::string::npos);
    EXPECT_NE(html.find("reserve_leak"), std::string::npos);
    EXPECT_NE(html.find("shrunk reproducer"), std::string::npos);

    // Self-contained means no external fetches (the SVG xmlns is the
    // only URL-shaped string allowed).
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script src"), std::string::npos);
    EXPECT_EQ(html.find("<link "), std::string::npos);
}

TEST(Report, FleetSeededFaultRendersWitnessAndThroughput)
{
    // The same hunt as above, run by a coordinator and one worker: the
    // fleet files the same evidence bundle and the same summary, so its
    // campaign directory renders the same report.
    const std::string wo_path = testing::TempDir() + "report_fleet_leak.wo";
    FILE *f = std::fopen(wo_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(leak_source, f);
    std::fclose(f);

    CoordinatorCfg ccfg;
    ccfg.out_dir = testing::TempDir() + "report_fleet";
    std::error_code ec;
    std::filesystem::remove_all(ccfg.out_dir, ec);
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    FleetWorker worker(wcfg);
    std::thread wt([&worker] { worker.connectAndRun(); });

    CampaignSpec spec;
    spec.cells = 30;
    spec.max_events = 60'000;
    spec.shrink_max_runs = 200;
    spec.inject_reserve_bug = true;
    spec.policies = {OrderingPolicy::wo_drf0};
    spec.program_files = {wo_path};
    spec.seed = 31;
    Json summary;
    const bool finished =
        coord.waitCampaign(coord.submitLocal(spec), 120'000, &summary);
    coord.stop();
    worker.kill();
    wt.join();
    ASSERT_TRUE(finished);
    ASSERT_FALSE(summary.boolAt("hardware_clean")); // the hunt must land

    ReportCfg rcfg;
    rcfg.out_dir = ccfg.out_dir + "/c1";
    std::string error;
    const std::string path = writeCampaignReport(rcfg, &error);
    ASSERT_FALSE(path.empty()) << error;
    const std::string html = slurp(path);
    EXPECT_NE(html.find("happens-before witness"), std::string::npos);
    EXPECT_NE(html.find("id=\"m-po\""), std::string::npos);

    // The throughput tile: "<div class="tv ">N</div><div class=tl>
    // cells / s</div>" with N > 0.
    const std::size_t label = html.find("<div class=tl>cells / s</div>");
    ASSERT_NE(label, std::string::npos) << "no cells/s tile";
    const std::size_t close = html.rfind("</div>", label - 1);
    const std::size_t open = html.rfind('>', close - 1);
    ASSERT_TRUE(close != std::string::npos && open != std::string::npos);
    const std::string value = html.substr(open + 1, close - open - 1);
    EXPECT_GT(std::stod(value), 0.0) << value;
}

TEST(Report, VerifyCensusSeparatesInconclusiveAndNonSc)
{
    // Verify cells add two verdicts of their own: an unanswered
    // check (inconclusive) and an expected SC escape on a relaxed
    // machine (nonsc).  Neither is an error, and a header that records
    // inject_reserve_bug=false is no seeded fault.
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 17; // the litmus corpus, once
    cfg.out_dir = testing::TempDir() + "report_verify";
    cfg.frontier = false;
    cfg.verify = true;
    cfg.verify_models = {"drf0"};
    cfg.max_states = 2'000;
    auto sum = runCampaign(cfg);
    ASSERT_GT(sum.inconclusive, 0u);
    ASSERT_GT(sum.nonsc, 0u);
    ASSERT_EQ(sum.errors, 0u);

    ReportCfg rcfg;
    rcfg.out_dir = cfg.out_dir;
    std::string error;
    const std::string path = writeCampaignReport(rcfg, &error);
    ASSERT_FALSE(path.empty()) << error;
    const std::string html = slurp(path);
    EXPECT_NE(html.find("pill c-inconclusive"), std::string::npos);
    EXPECT_NE(html.find("pill c-nonsc"), std::string::npos);
    EXPECT_EQ(html.find("pill c-error"), std::string::npos);
    EXPECT_EQ(html.find("seeded reserve-bit fault"), std::string::npos);
}

TEST(Report, CountsTheCellsAResumedRunWouldSkip)
{
    // A crash tore the last cell line before its newline and no summary
    // was written.  The report and --resume must agree that two cells
    // ran: the torn third is re-run on resume, so it is not a cell.
    const std::string dir = testing::TempDir() + "report_torn";
    std::filesystem::create_directories(dir);
    std::remove((dir + "/campaign.summary.json").c_str());
    const std::string journal = dir + "/campaign.journal.jsonl";
    FILE *f = std::fopen(journal.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"campaign\",\"schema_version\":3}\n"
               "{\"type\":\"cell\",\"key\":\"k1\",\"verdict\":\"clean\"}\n"
               "{\"type\":\"cell\",\"key\":\"k2\",\"verdict\":\"clean\"}\n"
               "{\"type\":\"cell\",\"key\":\"k3\",\"verdict\":\"clean\"}",
               f);
    std::fclose(f);

    Journal j(journal);
    j.load();
    EXPECT_EQ(j.doneCells(), 2u);
    EXPECT_FALSE(j.done("k3"));

    ReportCfg cfg;
    cfg.out_dir = dir;
    std::string error;
    const std::string html = buildCampaignReportHtml(cfg, &error);
    ASSERT_FALSE(html.empty()) << error;
    EXPECT_NE(html.find(">2</div><div class=tl>cells run<"),
              std::string::npos);
}

TEST(Report, RefusesADirectoryWithNoCampaignArtifacts)
{
    const std::string empty = testing::TempDir() + "report_empty";
    std::remove((empty + "/campaign.journal.jsonl").c_str());
    ReportCfg cfg;
    cfg.out_dir = empty;
    std::string error;
    EXPECT_TRUE(writeCampaignReport(cfg, &error).empty());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace wo
