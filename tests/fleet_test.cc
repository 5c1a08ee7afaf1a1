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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/fuzzer.hh"
#include "common/input_limits.hh"
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

/** The cell lines of a journal, in journal order. */
std::vector<Json>
journalCells(const std::string &path)
{
    std::vector<Json> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;
        JsonParseResult p =
            jsonParse(std::string_view(text.data() + pos, eol - pos));
        pos = eol + 1;
        if (p.ok && p.value.stringAt("type") == "cell")
            out.push_back(std::move(p.value));
    }
    return out;
}

/** key -> (verdict, outcome signature) for a journal's cell lines. */
std::map<std::string, std::pair<std::string, std::string>>
journalVerdicts(const std::string &path)
{
    std::map<std::string, std::pair<std::string, std::string>> out;
    for (const Json &c : journalCells(path))
        out[c.stringAt("key")] = {c.stringAt("verdict"), c.stringAt("sig")};
    return out;
}

/** How many cell lines of a journal carry each key. */
std::map<std::string, std::uint64_t>
journalKeyCounts(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    for (const Json &c : journalCells(path))
        ++out[c.stringAt("key")];
    return out;
}

/** The hw:* cell lines of a journal that carry no shrink_us. */
std::vector<std::string>
unshrunkHwCells(const std::string &path)
{
    std::vector<std::string> out;
    for (const Json &c : journalCells(path))
        if (c.stringAt("verdict").rfind("hw:", 0) == 0 &&
            c.uintAt("shrink_us") == 0)
            out.push_back(c.stringAt("key"));
    return out;
}

/** The cell key of each base index of @p spec's stream. */
std::vector<std::string>
streamKeys(const CampaignSpec &spec)
{
    const Fuzzer fuzzer(spec);
    std::vector<std::string> keys;
    for (std::uint64_t i = 0; i < spec.cells; ++i)
        keys.push_back(fuzzer.baseCell(i).key());
    return keys;
}

/**
 * The claim contract, stated in keys: every distinct key of @p spec's
 * stream is journaled at @p journal exactly once and nothing else is,
 * and @p summary accounts for every base index once.
 */
void
expectEachKeyOnce(const CampaignSpec &spec, const std::string &journal,
                  const Json &summary)
{
    std::map<std::string, std::uint64_t> want;
    for (const std::string &k : streamKeys(spec))
        want[k] = 1;
    EXPECT_EQ(journalKeyCounts(journal), want);
    EXPECT_EQ(summary.uintAt("ran") + summary.uintAt("resumed") +
                  summary.uintAt("duplicate"),
              spec.cells);
}

/** Poll until @p coord's first campaign has merged @p n run cells. */
bool
waitMerged(const Coordinator &coord, std::uint64_t n)
{
    for (int i = 0; i < 20'000; ++i) {
        const Json progress = coord.progressJson();
        const Json *camps = progress.find("campaigns");
        if (camps && !camps->items().empty() &&
            camps->items()[0].find("cells")->uintAt("ran") >= n)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
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

/** A hand-rolled worker named @p name, past its handshake with the
 *  coordinator on @p port (null when the handshake fails). */
std::unique_ptr<LineConn>
handRolledWorker(std::uint16_t port, const char *name)
{
    std::string err;
    const int fd = fleetConnect({"127.0.0.1", port}, &err);
    if (fd < 0)
        return nullptr;
    auto conn = std::make_unique<LineConn>(fd);
    Json hello = fleetMsg("hello");
    hello.set("proto", Json(fleet_proto_version));
    hello.set("role", Json("worker"));
    hello.set("name", Json(name));
    hello.set("jobs", Json(std::uint64_t{1}));
    std::string line;
    if (!conn->writeLine(hello) ||
        conn->readLine(line, 10'000) != LineConn::Read::line ||
        fleetMsgType(jsonParse(line).value) != "hello_ok")
        return nullptr;
    return conn;
}

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

TEST(FleetProto, SpecBoundsExploreJobs)
{
    // explore_jobs becomes an explorer's thread count on every worker
    // the spec reaches: past the ceiling it is refused, never truncated
    // (4294967297 would narrow to 1).  Parses only; no thread starts.
    CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"explore_jobs": 257})").value, spec, &err));
    EXPECT_NE(err.find("explore_jobs"), std::string::npos);
    EXPECT_FALSE(campaignSpecFromJson(
        jsonParse(R"({"explore_jobs": 4294967297})").value, spec, &err));
    EXPECT_NE(err.find("4294967297"), std::string::npos);
    ASSERT_TRUE(campaignSpecFromJson(
        jsonParse(R"({"explore_jobs": 256})").value, spec, &err))
        << err;
    EXPECT_EQ(spec.explore_jobs, 256);
}

TEST(FleetProto, SpecBoundsCells)
{
    // cells sizes the journal's seen-key table on the coordinator
    // before the first lease: past the ceiling it is refused.  Parses
    // only; no campaign is opened.
    CampaignSpec spec;
    std::string err;
    for (const char *bad : {"100000001", "4611686018427387904",
                            "18446744073709551615", "0"}) {
        EXPECT_FALSE(campaignSpecFromJson(
            jsonParse(std::string(R"({"cells": )") + bad + "}").value,
            spec, &err))
            << bad;
        EXPECT_NE(err.find("cells"), std::string::npos) << bad;
    }
    ASSERT_TRUE(campaignSpecFromJson(
        jsonParse(R"({"cells": 100000000})").value, spec, &err))
        << err;
    EXPECT_EQ(spec.cells, max_cell_count);
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

TEST(FleetProto, OverlongLineReadsClosed)
{
    std::string err;
    std::uint16_t port = 0;
    const int lfd = fleetListen("127.0.0.1", 0, &port, &err);
    ASSERT_GE(lfd, 0) << err;
    const int cfd = fleetConnect({"127.0.0.1", port}, &err);
    ASSERT_GE(cfd, 0) << err;
    const int afd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(afd, 0);
    LineConn server(afd);

    // A peer that streams past the cap and never ends its line.
    std::thread peer([cfd] {
        const std::string chunk(std::size_t{1} << 20, 'x');
        for (std::size_t sent = 0; sent <= fleet_max_line_bytes;) {
            const ssize_t n =
                ::send(cfd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
            if (n <= 0)
                return;
            sent += static_cast<std::size_t>(n);
        }
    });
    std::string line;
    EXPECT_EQ(server.readLine(line, 10'000), LineConn::Read::closed);
    server.closeNow(); // unread bytes remain: the close resets the peer
    peer.join();
    ::close(cfd);
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
    const Json *why = fleet.find("inconclusive_why");
    ASSERT_NE(why, nullptr);
    std::map<std::string, std::uint64_t> fleet_why;
    for (const auto &[reason, n] : why->members())
        fleet_why[reason] = n.uintValue();
    EXPECT_EQ(fleet_why, local.inconclusive_why);
}

/**
 * Run @p sp in process, then its spec on a two-worker fleet, and hold
 * the two to the same per-cell verdicts, outcome signatures, verdict
 * tally and deduplicated failure set, the same shared summary keys,
 * the same failure files (reproducers plus evidence bundles) and a
 * stamped shrink_us on every hardware cell line.  `frontier = false`
 * makes the executed cell set a pure function of (seed, cells) on
 * both sides, and both sides claim it by key: a key the stream repeats
 * runs once and counts as a duplicate, and no key is journaled twice.
 */
void
expectFleetParity(CampaignCfg sp, const std::string &name,
                  CampaignSummary &local)
{
    sp.jobs = 2;
    sp.frontier = false;
    sp.out_dir = freshDir(name + "_sp");
    local = runCampaign(sp);
    ASSERT_EQ(local.ran + local.duplicates, sp.cells);

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
    ASSERT_EQ(sp_cells.size(), local.ran);
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
    for (const char *key :
         {"ran", "resumed", "duplicate", "hw", "unique_failures"})
        EXPECT_EQ(fl_sum.value.uintAt(key), sp_sum.value.uintAt(key))
            << key;
    // Each side journals every distinct key once and counts every
    // index once.
    expectEachKeyOnce(spec, sp.out_dir + "/campaign.journal.jsonl",
                      sp_sum.value);
    expectEachKeyOnce(spec, ccfg.out_dir + "/c1/campaign.journal.jsonl",
                      fl_sum.value);
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
 * for verify cells, whose unanswered and expected-escape verdicts
 * (inconclusive, nonsc) the fleet must count like the engine does,
 * inconclusive ones per reason.
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
    EXPECT_FALSE(local.inconclusive_why.empty());
    EXPECT_GT(local.nonsc, 0u);

    // A random verify stream repeats its deterministic programs: the
    // fleet must skip the repeats the way the engine does, not run and
    // journal them again.
    CampaignCfg repeats;
    repeats.seed = 3;
    repeats.cells = 40;
    repeats.verify = true;
    repeats.verify_models = {"drf0"};
    repeats.max_states = 2'000;
    expectFleetParity(repeats, "fleet_parity_repeats", local);
    if (HasFatalFailure())
        return;
    EXPECT_GT(local.duplicates, 0u);
}

/**
 * Kill one of two workers mid-campaign: its leases are reassigned and
 * the lattice still completes with every distinct key merged exactly
 * once (the whole-lease-merge half of the crash contract).
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

    // Zero lost cells: every distinct key merged exactly once (the
    // dead worker's unanswered leases rerun whole elsewhere).
    expectEachKeyOnce(spec, ccfg.out_dir + "/c1/campaign.journal.jsonl",
                      summary);
    EXPECT_EQ(summary.uintAt("resumed"), 0u);
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
    const std::unique_ptr<LineConn> mute =
        handRolledWorker(coord.port(), "mute");
    ASSERT_TRUE(mute);

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

    expectEachKeyOnce(spec, ccfg.out_dir + "/c1/campaign.journal.jsonl",
                      summary);
    EXPECT_EQ(summary.uintAt("resumed"), 0u);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
}

/**
 * A lease is merged whole or not at all.  Hand-rolled workers answer
 * their first lease with a batch that is wrong in one way each: the
 * coordinator journals none of it, drops the connection and reassigns
 * its leases, and a live worker then finishes the campaign with the
 * in-process counts.
 */
TEST(Fleet, MalformedLeaseDoneIsRejected)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_malformed");
    ccfg.shard_size = 8;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    const std::string journal = ccfg.out_dir + "/c1/campaign.journal.jsonl";

    CampaignCfg spec;
    spec.seed = 11;
    spec.cells = 48;
    spec.shrink = false;
    const std::vector<std::string> keys = streamKeys(spec);
    const std::uint64_t id = coord.submitLocal(spec);

    // Each spoils a well-formed answer in one way.
    using Corrupt = void (*)(Json &done, std::vector<Json> &cells);
    const std::pair<const char *, Corrupt> bad[] = {
        {"a lease it does not hold",
         [](Json &done, std::vector<Json> &) {
             done.set("lease", Json(done.uintAt("lease") + 1000));
         }},
        {"an index outside its lease",
         [](Json &, std::vector<Json> &cells) {
             cells[0].set("idx", Json(std::uint64_t{1'000'000}));
         }},
        {"an entry that is not an object",
         [](Json &, std::vector<Json> &cells) {
             cells[0] = Json(std::uint64_t{7});
         }},
        {"a cell with the wrong key",
         [](Json &, std::vector<Json> &cells) {
             cells[0].find("cell")->set("key", Json("bogus"));
         }},
    };
    for (const auto &[what, corrupt] : bad) {
        const std::unique_ptr<LineConn> mute =
            handRolledWorker(coord.port(), "mute");
        ASSERT_TRUE(mute) << what;
        std::string line;
        ASSERT_EQ(mute->readLine(line, 10'000), LineConn::Read::line)
            << what;
        const Json lease = jsonParse(line).value;
        ASSERT_EQ(fleetMsgType(lease), "lease") << what;

        std::vector<Json> cells;
        for (const Json &i : lease.find("indices")->items()) {
            Json cell = Json::object();
            cell.set("key", Json(keys[i.uintValue()]));
            Json entry = Json::object();
            entry.set("idx", i);
            entry.set("cell", std::move(cell));
            cells.push_back(std::move(entry));
        }
        Json done = fleetMsg("lease_done");
        done.set("campaign", Json(id));
        done.set("lease", Json(lease.uintAt("lease")));
        corrupt(done, cells);
        Json batch = Json::array();
        for (Json &e : cells)
            batch.push(std::move(e));
        done.set("cells", std::move(batch));
        ASSERT_TRUE(mute->writeLine(done)) << what;

        // The coordinator hangs up (its second lease may come first).
        LineConn::Read r;
        while ((r = mute->readLine(line, 10'000)) == LineConn::Read::line) {
        }
        EXPECT_EQ(r, LineConn::Read::closed) << what;
    }

    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.name = "live";
    wcfg.heartbeat_ms = 100;
    WorkerThread live(wcfg);
    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 60'000, &summary));
    coord.stop();

    EXPECT_GE(summary.uintAt("reassigned_leases"), std::size(bad));
    for (const Json &c : journalCells(journal))
        EXPECT_EQ(c.stringAt("worker"), "live") << c.stringAt("key");
    expectEachKeyOnce(spec, journal, summary);

    spec.jobs = 2;
    spec.frontier = false;
    spec.out_dir = freshDir("fleet_malformed_sp");
    const CampaignSummary local = runCampaign(spec);
    EXPECT_EQ(summary.uintAt("ran"), local.ran);
    EXPECT_EQ(summary.uintAt("duplicate"), local.duplicates);
    expectTallyParity(summary, local);
}

/**
 * Kill the coordinator mid-campaign, then start a fresh one with
 * --resume on the same out-dir: the merged journal's header rebuilds
 * the spec, its cell keys are the resumed claims, and exactly the keys
 * not journaled yet run -- nothing journaled runs again.
 */
TEST(Fleet, CoordinatorRestartResumes)
{
    const std::string out_dir = freshDir("fleet_resume");
    const std::string journal = out_dir + "/c1/campaign.journal.jsonl";

    CampaignSpec spec;
    spec.seed = 5;
    spec.cells = 3000;
    spec.shrink = false;
    const std::vector<std::string> keys = streamKeys(spec);
    const std::set<std::string> distinct(keys.begin(), keys.end());

    std::set<std::string> committed;
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

        ASSERT_TRUE(waitMerged(first, 64));
        first.kill(); // SIGKILL stand-in: no drain, no graceful close
        ASSERT_EQ(first.campaignsCompleted(), 0)
            << "campaign finished before the kill; nothing to resume";
        w.worker.kill();

        for (const auto &[key, n] : journalKeyCounts(journal))
            committed.insert(key);
        ASSERT_GT(committed.size(), 0u);
        ASSERT_LT(committed.size(), distinct.size());
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

    // Every index whose key the first run journaled is resumed, and
    // only the other keys ran.
    std::uint64_t resumed = 0;
    for (const std::string &k : keys)
        resumed += committed.count(k);
    EXPECT_EQ(summary.uintAt("resumed"), resumed);
    EXPECT_EQ(summary.uintAt("ran"), distinct.size() - committed.size());
    EXPECT_EQ(w.worker.cellsRun(), summary.uintAt("ran"));
    expectEachKeyOnce(spec, journal, summary);
    EXPECT_TRUE(summary.find("hardware_clean")->boolValue());
}

/**
 * A coordinator killed mid-write leaves a torn last line.  When that
 * tail lacks only its newline it is complete JSON, yet it was never
 * committed: resuming through resumeFromOutDir must re-run its key and
 * journal it once, and the merged journal must end as an uninterrupted
 * run's, key for key and verdict for verdict.
 */
TEST(Fleet, ResumeFromATornTailJournalsEachKeyOnce)
{
    const std::string out_dir = freshDir("fleet_torn");
    const std::string journal = out_dir + "/c1/campaign.journal.jsonl";

    CampaignSpec spec;
    spec.seed = 9;
    spec.cells = 64;
    spec.shrink = false;
    {
        CoordinatorCfg ccfg;
        ccfg.out_dir = out_dir;
        ccfg.shard_size = 8;
        ccfg.sync_every = 1;
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        WorkerThread w(wcfg);
        ASSERT_TRUE(coord.waitCampaign(coord.submitLocal(spec), 120'000));
        coord.kill();
    }
    const auto want = journalVerdicts(journal);
    const std::string text = slurp(journal);

    // Keep half the journal plus the next line without its newline.
    const std::size_t keep = text.find('\n', text.size() / 2) + 1;
    const std::size_t torn = text.find('\n', keep);
    ASSERT_NE(torn, std::string::npos);
    std::filesystem::resize_file(journal, torn);
    std::filesystem::remove(out_dir + "/c1/campaign.summary.json");
    const std::size_t committed = journalCells(journal).size();

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", second.port()};
    WorkerThread w(wcfg);
    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 120'000, &summary));
    second.stop();

    expectEachKeyOnce(spec, journal, summary);
    EXPECT_EQ(journalVerdicts(journal), want);
    EXPECT_EQ(summary.uintAt("ran"), want.size() - committed);
    Journal j(journal);
    j.load();
    EXPECT_EQ(j.doneCells(), want.size());
}

/**
 * A local submit wakes the pump.  One worker heartbeating at the
 * default 500 ms cannot mask a stall, so five back-to-back 8-cell
 * campaigns finish well inside five of the pump's 100 ms timed waits.
 */
TEST(Fleet, LocalSubmitLeasesWithoutWaitingForATick)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_submit_wake");
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    ASSERT_EQ(wcfg.heartbeat_ms, 500);
    WorkerThread w(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(1, 10'000));

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        CampaignSpec spec;
        spec.seed = seed;
        spec.cells = 8;
        spec.shrink = false;
        ASSERT_TRUE(coord.waitCampaign(coord.submitLocal(spec), 10'000));
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    coord.stop();
    EXPECT_LT(ms, 250) << "the pump slept through submitted work";
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

/**
 * Resume replays only the directories newLedger(id) names.  "c01" and a
 * number past 2^64 (which wraps to 1) are not c1: replaying their
 * journal copies would list c1's campaign three times and open a second
 * writer on its journal.
 */
TEST(Fleet, ResumeAcceptsOnlyCanonicalCampaignDirectories)
{
    const std::string out_dir = freshDir("fleet_resume_names");
    const std::string journal = out_dir + "/c1/campaign.journal.jsonl";

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
        ASSERT_TRUE(coord.waitCampaign(coord.submitLocal(spec), 120'000));
        coord.kill();
    }
    for (const char *alias : {"c01", "c18446744073709551617"}) {
        const std::string dir = out_dir + "/" + alias;
        std::filesystem::create_directories(dir);
        std::filesystem::copy_file(journal,
                                   dir + "/campaign.journal.jsonl");
    }
    const std::string before = slurp(journal);

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 10'000, &summary));
    const Json progress = second.progressJson();
    second.stop();
    ASSERT_NE(progress.find("campaigns"), nullptr);
    EXPECT_EQ(progress.find("campaigns")->items().size(), 1u);
    EXPECT_EQ(summary.uintAt("resumed"), 48u);
    const std::string after = slurp(journal);
    EXPECT_EQ(std::count(after.begin(), after.end(), '\n'),
              std::count(before.begin(), before.end(), '\n'));
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
