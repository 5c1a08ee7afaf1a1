/**
 * @file
 * Tests for the fleet subsystem: the wire protocol (framing, spec
 * round-trips, endpoint parsing), verdict parity between a two-worker
 * fleet and the single-process campaign on the same seeds, and the
 * fault paths -- a SIGKILLed worker's leases are reassigned with zero
 * lost cells, a silent worker times out, and a killed coordinator
 * resumes from its merged journal re-leasing only uncommitted cells.
 * The in-process campaign and the coordinator serve the same
 * per-campaign HTTP series.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "fleet/client.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "obs/httpd.hh"
#include "obs/json.hh"

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

/** key -> (verdict, outcome signature) for a journal's cell lines. */
std::map<std::string, std::pair<std::string, std::string>>
journalVerdicts(const std::string &path)
{
    std::map<std::string, std::pair<std::string, std::string>> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const Json *type = p.value.find("type");
        if (!type || !type->isString() ||
            type->stringValue() != "cell")
            continue;
        const Json *key = p.value.find("key");
        const Json *verdict = p.value.find("verdict");
        const Json *sig = p.value.find("sig");
        if (!key || !key->isString())
            continue;
        out[key->stringValue()] = {
            verdict && verdict->isString() ? verdict->stringValue()
                                           : "",
            sig && sig->isString() ? sig->stringValue() : ""};
    }
    return out;
}

/** The base-stream indices a fleet journal's cell lines carry. */
std::set<std::uint64_t>
journalIndices(const std::string &path)
{
    std::set<std::uint64_t> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const Json *idx = p.value.find("idx");
        if (idx && idx->isNumber())
            out.insert(idx->uintValue());
    }
    return out;
}

/** The hw:* cell lines of a journal that carry no shrink_us. */
std::vector<std::string>
unshrunkHwCells(const std::string &path)
{
    std::vector<std::string> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;
        JsonParseResult p =
            jsonParse(std::string_view(text.data() + pos, eol - pos));
        pos = eol + 1;
        if (p.ok && p.value.stringAt("type") == "cell" &&
            p.value.stringAt("verdict").rfind("hw:", 0) == 0 &&
            p.value.uintAt("shrink_us") == 0)
            out.push_back(p.value.stringAt("key"));
    }
    return out;
}

/** The failure files (reproducers and evidence) under @p dir. */
std::set<std::string>
failureFiles(const std::string &dir)
{
    std::set<std::string> out;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("repro-", 0) == 0)
            out.insert(name);
    }
    return out;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

/** An in-process worker on its own thread (joined on destruction). */
struct WorkerThread
{
    FleetWorker worker;
    std::thread thread;

    explicit WorkerThread(WorkerCfg cfg) : worker(std::move(cfg))
    {
        thread = std::thread([this] { worker.connectAndRun(); });
    }

    ~WorkerThread()
    {
        worker.kill();
        if (thread.joinable())
            thread.join();
    }
};

// --- protocol --------------------------------------------------------

TEST(FleetProto, ParseHostPortIsStrict)
{
    HostPort hp;
    EXPECT_TRUE(parseHostPort("127.0.0.1:9000", hp));
    EXPECT_EQ(hp.host, "127.0.0.1");
    EXPECT_EQ(hp.port, 9000);
    EXPECT_TRUE(parseHostPort("example.test:1", hp));
    EXPECT_EQ(hp.port, 1);
    EXPECT_TRUE(parseHostPort("host:65535", hp));

    for (const char *bad :
         {"", "host", "host:", ":9000", "host:0", "host:65536",
          "host:12x4", "host:-1", "host: 80"}) {
        HostPort out{"untouched", 42};
        EXPECT_FALSE(parseHostPort(bad, out)) << bad;
        EXPECT_EQ(out.host, "untouched") << bad;
        EXPECT_EQ(out.port, 42) << bad;
    }
}

TEST(FleetProto, SpecRoundTrips)
{
    CampaignSpec spec;
    spec.seed = 42;
    spec.cells = 123;
    spec.policies = {OrderingPolicy::sc, OrderingPolicy::wo_drf0};
    spec.program_files = {"a.wo", "b.wo"};
    spec.max_events = 77'000;
    spec.shrink = false;
    spec.shrink_max_runs = 9;
    spec.inject_reserve_bug = true;
    spec.verify = true;
    spec.verify_models = {"sc", "stale"};
    spec.max_states = 5'000;
    spec.explore_jobs = 4;
    spec.inject_axiom_bug = true;

    CampaignSpec back;
    std::string err;
    ASSERT_TRUE(campaignSpecFromJson(campaignSpecToJson(spec), back, &err))
        << err;
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.cells, spec.cells);
    EXPECT_EQ(back.policies, spec.policies);
    EXPECT_EQ(back.program_files, spec.program_files);
    EXPECT_EQ(back.max_events, spec.max_events);
    EXPECT_EQ(back.shrink, spec.shrink);
    EXPECT_EQ(back.shrink_max_runs, spec.shrink_max_runs);
    EXPECT_EQ(back.inject_reserve_bug, spec.inject_reserve_bug);
    EXPECT_EQ(back.verify, spec.verify);
    EXPECT_EQ(back.verify_models, spec.verify_models);
    EXPECT_EQ(back.max_states, spec.max_states);
    EXPECT_EQ(back.explore_jobs, spec.explore_jobs);
    EXPECT_EQ(back.inject_axiom_bug, spec.inject_axiom_bug);
}

TEST(FleetProto, SpecRejectsUnknownVerifyModel)
{
    // Model names travel verbatim in the spec; the codec must reject
    // a name the registry does not know before any worker burns a
    // lease discovering it.
    CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"verify": true, "verify_models": "sc,tso"})")
            .value,
        spec, &err));
    EXPECT_NE(err.find("tso"), std::string::npos);
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"max_states": 0})").value, spec, &err));
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"explore_jobs": 0})").value, spec, &err));
}

TEST(FleetProto, SpecDefaultsEmptyPoliciesToCampaignTrio)
{
    // A spec without policies must never produce an empty vector (the
    // base stream crosses every cell with a policy).
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(
        campaignSpecFromJson(jsonParse(R"({"cells": 10})").value, spec,
                          &err))
        << err;
    const std::vector<OrderingPolicy> trio = {OrderingPolicy::sc,
                                              OrderingPolicy::wo_def1,
                                              OrderingPolicy::wo_drf0};
    EXPECT_EQ(spec.policies, trio);
}

TEST(FleetProto, SpecRejectsMalformedMembers)
{
    CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(campaignSpecFromJson(Json(), spec, &err));
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"cells": 0})").value, spec, &err));
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"policies": "sc,bogus"})").value, spec, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"max_events": 0})").value, spec, &err));
}

TEST(FleetProto, MsgHelpers)
{
    const Json msg = fleetMsg("heartbeat");
    EXPECT_EQ(fleetMsgType(msg), "heartbeat");
    EXPECT_EQ(fleetMsgType(Json()), "");
    EXPECT_EQ(fleetMsgType(jsonParse(R"({"type": 7})").value), "");
}

TEST(FleetProto, LineConnFramesAndSevers)
{
    std::string err;
    std::uint16_t port = 0;
    const int lfd = fleetListen("127.0.0.1", 0, &port, &err);
    ASSERT_GE(lfd, 0) << err;
    ASSERT_NE(port, 0);

    const int cfd = fleetConnect({"127.0.0.1", port}, &err);
    ASSERT_GE(cfd, 0) << err;
    const int afd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(afd, 0);
    LineConn client(cfd), server(afd);

    // Two lines written back to back arrive as two framed messages.
    Json a = fleetMsg("heartbeat");
    Json b = fleetMsg("lease_done");
    b.set("lease", Json(std::uint64_t{7}));
    ASSERT_TRUE(client.writeLine(a));
    ASSERT_TRUE(client.writeLine(b));
    std::string line;
    ASSERT_EQ(server.readLine(line, 5'000), LineConn::Read::line);
    EXPECT_EQ(fleetMsgType(jsonParse(line).value), "heartbeat");
    ASSERT_EQ(server.readLine(line, 5'000), LineConn::Read::line);
    const Json second = jsonParse(line).value;
    EXPECT_EQ(fleetMsgType(second), "lease_done");
    EXPECT_EQ(second.find("lease")->uintValue(), 7u);

    // Nothing pending: a bounded read times out rather than blocking.
    EXPECT_EQ(server.readLine(line, 50), LineConn::Read::timeout);

    // Severing one end unblocks the peer with `closed`.
    client.shutdownNow();
    EXPECT_EQ(server.readLine(line, 5'000), LineConn::Read::closed);
    ::close(lfd);
}

// --- fleet end to end ------------------------------------------------

/** Every verdict-tally field of a fleet summary equals @p local's. */
void
expectTallyParity(const Json &fleet, const CampaignSummary &local)
{
    const struct
    {
        const char *key;
        std::uint64_t want;
    } fields[] = {{"clean", local.clean},
                  {"racy", local.racy},
                  {"hw", local.hw},
                  {"deadlocked", local.deadlocked},
                  {"livelocked", local.livelocked},
                  {"errors", local.errors},
                  {"inconclusive", local.inconclusive},
                  {"nonsc", local.nonsc}};
    for (const auto &f : fields) {
        const Json *v = fleet.find(f.key);
        ASSERT_NE(v, nullptr) << "fleet summary lacks '" << f.key << "'";
        EXPECT_EQ(v->uintValue(), f.want) << f.key;
    }
    const Json *by = fleet.find("by_kind");
    ASSERT_NE(by, nullptr);
    for (int k = 0; k < num_violation_kinds; ++k) {
        const char *name = violationKindName(static_cast<ViolationKind>(k));
        const Json *n = by->find(name);
        EXPECT_EQ(n ? n->uintValue() : 0, local.by_kind[k]) << name;
    }
}

/**
 * Run @p sp in process, then its spec on a two-worker fleet, and hold
 * the two to the same per-cell verdicts, outcome signatures, verdict
 * tally and deduplicated failure set, the same shared summary keys,
 * the same failure files (reproducers plus evidence bundles) and a
 * stamped shrink_us on every hardware cell line.  `frontier = false`
 * makes the executed cell set a pure function of (seed, cells) on
 * both sides.
 */
void
expectFleetParity(CampaignCfg sp, const std::string &name,
                  CampaignSummary &local)
{
    sp.jobs = 2;
    sp.frontier = false;
    sp.out_dir = freshDir(name + "_sp");
    local = runCampaign(sp);
    ASSERT_EQ(local.ran, sp.cells);

    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir(name + "_fl");
    ccfg.shard_size = 8;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w0(wcfg), w1(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    const CampaignSpec &spec = sp;
    const std::uint64_t id = coord.submitLocal(spec);
    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 180'000, &summary));
    coord.stop();

    // Both workers did real work (the lattice was actually sharded).
    EXPECT_GT(w0.worker.cellsRun(), 0u);
    EXPECT_GT(w1.worker.cellsRun(), 0u);

    const auto sp_cells =
        journalVerdicts(sp.out_dir + "/campaign.journal.jsonl");
    const auto fl_cells = journalVerdicts(
        ccfg.out_dir + "/c1/campaign.journal.jsonl");
    ASSERT_EQ(sp_cells.size(), sp.cells);
    // Same key set, same verdict and same outcome signature per key.
    EXPECT_EQ(fl_cells, sp_cells);

    // Verdict tallies agree with the single-process summary.
    expectTallyParity(summary, local);
    EXPECT_EQ(summary.find("hardware_clean")->boolValue(),
              local.hardwareClean());

    // Deduplicated failure identity (kind + shrunk-program hash)
    // matches, so fleet shrinking reproduced the same minima.
    std::set<std::string> sp_dedup, fl_dedup;
    for (const FailureRecord &f : local.failures)
        sp_dedup.insert(f.dedup);
    for (const Json &f : summary.find("failures")->items())
        fl_dedup.insert(f.find("dedup")->stringValue());
    EXPECT_EQ(fl_dedup, sp_dedup);

    // The coordinator wrote a repro beside the merged journal.
    for (const Json &f : summary.find("failures")->items()) {
        const std::string path =
            ccfg.out_dir + "/c1/repro-" +
            f.find("kind")->stringValue() + "-" +
            f.find("dedup")->stringValue().substr(
                f.find("dedup")->stringValue().find(':') + 1) +
            ".wo";
        EXPECT_FALSE(slurp(path).empty()) << path;
    }

    // Both sides write one summary shape: the shared keys are
    // present on both sides, and the counted ones agree.
    JsonParseResult sp_sum =
        jsonParse(slurp(sp.out_dir + "/campaign.summary.json"));
    JsonParseResult fl_sum =
        jsonParse(slurp(ccfg.out_dir + "/c1/campaign.summary.json"));
    ASSERT_TRUE(sp_sum.ok && fl_sum.ok);
    for (const char *key :
         {"ran", "resumed", "clean", "racy", "hw", "deadlocked",
          "livelocked", "errors", "inconclusive", "nonsc", "by_kind",
          "failures", "hardware_clean", "unique_failures",
          "cells_per_sec", "lat_p50_ms", "lat_p99_ms", "wall_s"}) {
        const Json *a = sp_sum.value.find(key);
        const Json *b = fl_sum.value.find(key);
        ASSERT_TRUE(a && b) << "summary key '" << key << "' missing ("
                            << (a ? "fleet" : "in-process") << ")";
        EXPECT_EQ(a->isNumber(), b->isNumber()) << key;
    }
    for (const char *key : {"ran", "resumed", "hw", "unique_failures"})
        EXPECT_EQ(fl_sum.value.uintAt(key), sp_sum.value.uintAt(key))
            << key;
    EXPECT_EQ(fl_sum.value.boolAt("hardware_clean"),
              sp_sum.value.boolAt("hardware_clean"));
    EXPECT_GT(fl_sum.value.numberAt("cells_per_sec"), 0.0);
    EXPECT_GT(fl_sum.value.numberAt("lat_p99_ms"), 0.0);

    // Same failure files on both sides: every reproducer comes with
    // the same evidence bundle.
    EXPECT_EQ(failureFiles(ccfg.out_dir + "/c1"), failureFiles(sp.out_dir));

    // Every hardware cell was shrunk, and says how long that took.
    EXPECT_EQ(unshrunkHwCells(sp.out_dir + "/campaign.journal.jsonl"),
              std::vector<std::string>());
    EXPECT_EQ(unshrunkHwCells(ccfg.out_dir + "/c1/campaign.journal.jsonl"),
              std::vector<std::string>());
}

/**
 * The acceptance bar: a two-worker fleet produces the same verdicts as
 * the single-process campaign on the same spec -- for run cells under
 * a seeded fault (so the shrink and dedup pipeline is exercised) and
 * for verify cells, whose budget-tripped and expected-escape verdicts
 * (inconclusive, nonsc) the fleet must count like the engine does.
 */
TEST(Fleet, VerdictParityWithSingleProcess)
{
    CampaignCfg run;
    run.seed = 7;
    run.cells = 60;
    run.inject_reserve_bug = true;
    run.shrink_max_runs = 200;
    CampaignSummary local;
    expectFleetParity(run, "fleet_parity_run", local);
    if (HasFatalFailure())
        return;
    ASSERT_GT(local.hw, 0u) << "seeded fault never fired; the parity "
                               "test lost its teeth";

    // The 17 litmus-corpus cells on one model: every key is distinct,
    // and the tight state budget makes the looping entries
    // inconclusive while the racy shapes escape SC.
    CampaignCfg verify;
    verify.seed = 7;
    verify.cells = 17;
    verify.verify = true;
    verify.verify_models = {"drf0"};
    verify.max_states = 2'000;
    expectFleetParity(verify, "fleet_parity_verify", local);
    if (HasFatalFailure())
        return;
    EXPECT_GT(local.inconclusive, 0u);
    EXPECT_GT(local.nonsc, 0u);
}

/**
 * Kill one of two workers mid-campaign: its leases are reassigned and
 * the lattice still completes with every base index merged exactly
 * once (the idempotent-merge half of the crash contract).
 */
TEST(Fleet, WorkerKillReassignsLeases)
{
    const std::uint64_t cells = 4000;

    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_kill_worker");
    ccfg.shard_size = 16;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w0(wcfg), w1(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    CampaignSpec spec;
    spec.seed = 3;
    spec.cells = cells;
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);

    // SIGKILL stand-in: sever w0's socket once it is demonstrably
    // mid-lease (it has completed cells, the campaign has not).
    for (int i = 0; i < 20'000 && w0.worker.cellsRun() < 64; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(w0.worker.cellsRun(), 64u)
        << "w0 never ran; cannot exercise reassignment";
    w0.worker.kill();

    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 180'000, &summary));
    coord.stop();

    // Zero lost cells: every base index merged, exactly once each
    // (stale duplicates from the dead worker's lease are dropped, not
    // journaled twice).
    const auto idx = journalIndices(
        ccfg.out_dir + "/c1/campaign.journal.jsonl");
    EXPECT_EQ(idx.size(), cells);
    EXPECT_EQ(*idx.begin(), 0u);
    EXPECT_EQ(*idx.rbegin(), cells - 1);
    EXPECT_EQ(summary.find("ran")->uintValue(), cells);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
    EXPECT_TRUE(summary.find("hardware_clean")->boolValue());
}

/**
 * A worker that stops heartbeating without closing its socket (a hung
 * host, a dropped route) forfeits its leases after lease_timeout_ms
 * and the surviving worker finishes the campaign.
 */
TEST(Fleet, SilentWorkerForfeitsLeases)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_silent_worker");
    ccfg.shard_size = 8;
    ccfg.lease_timeout_ms = 600;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();

    // A hand-rolled worker that handshakes, accepts leases, and then
    // never says another word.
    std::string err;
    const int fd = fleetConnect({"127.0.0.1", coord.port()}, &err);
    ASSERT_GE(fd, 0) << err;
    LineConn mute(fd);
    Json hello = fleetMsg("hello");
    hello.set("proto", Json(fleet_proto_version));
    hello.set("role", Json("worker"));
    hello.set("name", Json("mute"));
    hello.set("jobs", Json(std::uint64_t{1}));
    ASSERT_TRUE(mute.writeLine(hello));
    std::string line;
    ASSERT_EQ(mute.readLine(line, 10'000), LineConn::Read::line);
    ASSERT_EQ(fleetMsgType(jsonParse(line).value), "hello_ok");

    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread live(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    CampaignSpec spec;
    spec.seed = 11;
    spec.cells = 96;
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);

    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 60'000, &summary));
    coord.stop();

    EXPECT_EQ(summary.find("ran")->uintValue(), 96u);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
    EXPECT_EQ(journalIndices(
                  ccfg.out_dir + "/c1/campaign.journal.jsonl")
                  .size(),
              96u);
}

/**
 * Kill the coordinator mid-campaign, then start a fresh one with
 * --resume on the same out-dir: the merged journal's header rebuilds
 * the spec, its cell lines rebuild the done set, and exactly the
 * uncommitted indices run -- resumed + ran == cells with no rerun.
 */
TEST(Fleet, CoordinatorRestartResumes)
{
    const std::uint64_t cells = 3000;
    const std::string out_dir = freshDir("fleet_resume");

    CampaignSpec spec;
    spec.seed = 5;
    spec.cells = cells;
    spec.shrink = false;

    std::uint64_t committed = 0;
    {
        CoordinatorCfg ccfg;
        ccfg.out_dir = out_dir;
        ccfg.shard_size = 16;
        ccfg.sync_every = 1; // commit point == applied record
        Coordinator first(ccfg);
        ASSERT_TRUE(first.start()) << first.lastError();
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", first.port()};
        wcfg.heartbeat_ms = 100;
        WorkerThread w(wcfg);
        ASSERT_TRUE(first.waitForWorkers(1, 10'000));
        first.submitLocal(spec);

        for (int i = 0; i < 20'000 && w.worker.cellsRun() < 64; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GE(w.worker.cellsRun(), 64u);
        first.kill(); // SIGKILL stand-in: no drain, no graceful close
        ASSERT_EQ(first.campaignsCompleted(), 0)
            << "campaign finished before the kill; nothing to resume";
        w.worker.kill();

        committed = journalIndices(
                        out_dir + "/c1/campaign.journal.jsonl")
                        .size();
        ASSERT_GT(committed, 0u);
        ASSERT_LT(committed, cells);
    }

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.shard_size = 16;
    rcfg.sync_every = 1;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", second.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w(wcfg);

    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 180'000, &summary));
    second.stop();

    // Only the complement re-ran; the journaled prefix was honored.
    EXPECT_EQ(summary.find("resumed")->uintValue(), committed);
    EXPECT_EQ(summary.find("ran")->uintValue(), cells - committed);
    EXPECT_LE(w.worker.cellsRun(), cells - committed);
    EXPECT_EQ(journalIndices(out_dir + "/c1/campaign.journal.jsonl")
                  .size(),
              cells);
    EXPECT_TRUE(summary.find("hardware_clean")->boolValue());
}

/**
 * stop() right after a peer connects: the reader thread spawned for
 * the connection may not have run yet when teardown joins it.  Readers
 * take no coordinator lock and are joined with it released, so this
 * must never hang, whichever side of the race each iteration lands on.
 */
TEST(Fleet, ConnectThenImmediateStopNeverHangs)
{
    // The window is narrow: the old lock order hung here only under
    // CPU contention, and then once in a few hundred iterations.
    for (int i = 0; i < 1000; ++i) {
        CoordinatorCfg ccfg;
        ccfg.out_dir = freshDir("fleet_connect_stop");
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        std::string err;
        const int fd = fleetConnect({"127.0.0.1", coord.port()}, &err);
        ASSERT_GE(fd, 0) << err;
        coord.stop();
        ::close(fd);
    }
}

/**
 * A fully-journaled campaign resumes to completion without any
 * workers at all: resume alone reconstructs the verdict.
 */
TEST(Fleet, ResumeOfCompleteJournalNeedsNoWorkers)
{
    const std::string out_dir = freshDir("fleet_resume_complete");

    CampaignSpec spec;
    spec.seed = 13;
    spec.cells = 48;
    spec.shrink = false;

    {
        CoordinatorCfg ccfg;
        ccfg.out_dir = out_dir;
        ccfg.sync_every = 1;
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        WorkerThread w(wcfg);
        const std::uint64_t id = coord.submitLocal(spec);
        ASSERT_TRUE(coord.waitCampaign(id, 120'000));
        coord.kill(); // die *after* completion; summary file exists
    }

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 10'000, &summary));
    second.stop();
    EXPECT_EQ(summary.find("resumed")->uintValue(), 48u);
    EXPECT_EQ(summary.find("ran")->uintValue(), 0u);
}

// --- control plane ----------------------------------------------------

/** GET @p path from 127.0.0.1:@p port; the whole response, read to
 *  EOF (the server closes after each response or finished stream). */
std::string
httpGet(std::uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) <
        0) {
        ::close(fd);
        return "";
    }
    const std::string req =
        "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    ::send(fd, req.data(), req.size(), 0);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string
httpBody(const std::string &resp)
{
    const std::size_t at = resp.find("\r\n\r\n");
    return at == std::string::npos ? "" : resp.substr(at + 4);
}

/** Does Prometheus text @p text carry a sample of metric @p name? */
bool
hasSeries(const std::string &text, const std::string &name)
{
    for (std::size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        const char next = at + name.size() < text.size()
                              ? text[at + name.size()]
                              : '\0';
        if ((at == 0 || text[at - 1] == '\n') && (next == ' ' || next == '{'))
            return true;
    }
    return false;
}

/** The per-campaign series every campaign ledger serves. */
const char *const shared_series[] = {
    "cells_total",     "cells_completed",        "cells_ran",
    "cells_resumed",   "cells_hw_failed",        "failures_unique",
    "wall_seconds",    "cell_latency_us_bucket", "cell_latency_us_count",
};

/** Poll /healthz until the routes are mounted. */
bool
waitHealthy(std::uint16_t port)
{
    for (int i = 0; i < 5'000; ++i) {
        if (httpGet(port, "/healthz").rfind("HTTP/1.1 200", 0) == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/**
 * Nothing but CI scraped either HTTP surface: serve a small
 * in-process campaign and a one-worker fleet and hold both to the
 * shared per-campaign series under their prefixes, a parseable
 * /progress, and an /events stream that ends with `done`.
 */
TEST(ControlPlane, CampaignAndFleetServeTheSharedSeries)
{
    HttpServerCfg scfg;
    scfg.stream_interval_ms = 20;
    const std::string done_event = "event: done\ndata: {}\n\n";

    {
        HttpServer srv(scfg);
        ASSERT_TRUE(srv.start()) << srv.lastError();
        CampaignCfg cfg;
        cfg.cells = 10'000'000;
        cfg.time_budget_s = 1.5; // long enough to scrape mid-run
        cfg.shrink = false;
        cfg.out_dir = freshDir("cp_campaign");
        cfg.serve = &srv;
        std::thread run([&cfg] { runCampaign(cfg); });
        const bool healthy = waitHealthy(srv.port());
        std::string events;
        std::thread sub([&] {
            if (healthy)
                events = httpGet(srv.port(), "/events");
        });
        const std::string metrics = httpBody(httpGet(srv.port(), "/metrics"));
        JsonParseResult progress =
            jsonParse(httpBody(httpGet(srv.port(), "/progress")));
        sub.join();
        run.join();
        ASSERT_TRUE(healthy);
        for (const char *s : shared_series)
            EXPECT_TRUE(hasSeries(metrics, std::string("wo_campaign_") + s))
                << s << "\n" << metrics;
        ASSERT_TRUE(progress.ok) << progress.error;
        EXPECT_NE(progress.value.find("cells"), nullptr);
        ASSERT_GE(events.size(), done_event.size());
        EXPECT_EQ(events.substr(events.size() - done_event.size()),
                  done_event);
    }

    HttpServer srv(scfg);
    ASSERT_TRUE(srv.start()) << srv.lastError();
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("cp_fleet");
    ccfg.shard_size = 16;
    ccfg.serve = &srv;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    WorkerThread w(wcfg);
    CampaignSpec spec;
    spec.seed = 21;
    spec.cells = 64;
    spec.shrink = false;
    ASSERT_TRUE(coord.waitCampaign(coord.submitLocal(spec), 60'000));
    ASSERT_TRUE(waitHealthy(srv.port()));
    const std::string metrics = httpBody(httpGet(srv.port(), "/metrics"));
    JsonParseResult progress =
        jsonParse(httpBody(httpGet(srv.port(), "/progress")));
    const std::string events = httpGet(srv.port(), "/events");
    coord.stop();

    for (const char *s : shared_series)
        EXPECT_TRUE(
            hasSeries(metrics, std::string("wo_fleet_campaign_") + s))
            << s << "\n" << metrics;
    EXPECT_NE(metrics.find("wo_fleet_campaign_cells_ran{campaign=\"1\"} 64"),
              std::string::npos)
        << metrics;
    EXPECT_TRUE(hasSeries(metrics, "wo_fleet_workers_connected"));
    ASSERT_TRUE(progress.ok) << progress.error;
    const Json *camps = progress.value.find("campaigns");
    ASSERT_TRUE(camps && camps->items().size() == 1);
    EXPECT_EQ(camps->items()[0].find("cells")->uintAt("ran"), 64u);
    ASSERT_GE(events.size(), done_event.size());
    EXPECT_EQ(events.substr(events.size() - done_event.size()), done_event);
}

} // namespace
} // namespace wo
