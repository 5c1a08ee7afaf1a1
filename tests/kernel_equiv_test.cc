/**
 * @file
 * Kernel golden digests.
 *
 * The calendar-queue kernel must not change observable semantics: for
 * every program in programs/ under every ordering policy, at two timing
 * configurations, a run must reproduce the committed digest of
 * everything observable about it -- the verdict, final outcome, Monitor
 * report, statistics JSON, finish and drain ticks, event count, JSONL
 * trace and Chrome trace (per-firing queue events included).  The
 * digests were recorded while the pre-overhaul binary-heap kernel was
 * still in the tree and proved bit-identical to the calendar queue on
 * all of these fields, so they pin the calendar queue to that kernel's
 * behaviour.  A kernel change that moves a digest must explain why the
 * run it changes is still correct, then update the table on purpose.
 *
 * The same table pins System::reset(): every run back to back on one
 * reused machine must reproduce the digests of fresh machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "sys/system.hh"

#ifndef WO_PROGRAMS_DIR
#define WO_PROGRAMS_DIR "programs"
#endif

namespace wo {
namespace {

std::vector<std::string>
programFiles()
{
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (e.path().extension() == ".wo")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

/** 64-bit FNV-1a, folded over each field in turn. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const std::string &field)
    {
        for (unsigned char c : field) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // field separator: "ab"+"c" != "a"+"bc"
        h *= 0x100000001b3ULL;
    }
};

/** The digest of everything observable about one run of @p sys. */
std::string
runDigest(System &sys, const AsmResult &a)
{
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    SystemResult r = sys.run();

    Fnv f;
    f.add(r.completed ? "completed"
                      : (r.deadlocked ? "deadlock" : "livelock"));
    f.add(r.outcome.toString());
    f.add(r.monitor_report);
    f.add(r.stats_json);
    f.add(std::to_string(r.finish_tick));
    f.add(std::to_string(r.drain_tick));
    f.add(std::to_string(sys.eventQueue().executed()));
    f.add(sys.obs().traceJsonl());
    f.add(sys.obs().chromeTraceJson());
    return strprintf("%016llx", static_cast<unsigned long long>(f.h));
}

/** Runs @p a under @p cfg on some machine and digests the run. */
using Digester =
    std::function<std::string(const AsmResult &a, const SystemCfg &cfg)>;

/** "<program>.wo <policy> <seed> <jitter>" -> digest. */
const std::map<std::string, std::string> golden = {
    {"dekker.wo def1 1 0", "25dab98c41af5d5f"},
    {"dekker.wo def1 42 3", "d4623d12098c7f0d"},
    {"dekker.wo drf0 1 0", "07914ef63e6ba77d"},
    {"dekker.wo drf0 42 3", "e76fcb705e5fb407"},
    {"dekker.wo drf0ro 1 0", "efa7085e395415ad"},
    {"dekker.wo drf0ro 42 3", "b283e77d1e4c9737"},
    {"dekker.wo sc 1 0", "00ba44a28051d97d"},
    {"dekker.wo sc 42 3", "4e7ddbe8d6f4698c"},
    {"fig1.wo def1 1 0", "398b015dbed90335"},
    {"fig1.wo def1 42 3", "dd312220aa53f2e9"},
    {"fig1.wo drf0 1 0", "228418425df7d2bb"},
    {"fig1.wo drf0 42 3", "a2c8bc63f309195b"},
    {"fig1.wo drf0ro 1 0", "2156e0d8dee4e56b"},
    {"fig1.wo drf0ro 42 3", "262f8200e69aba7b"},
    {"fig1.wo sc 1 0", "64d1c25245b310b7"},
    {"fig1.wo sc 42 3", "900d5b5f5994e724"},
    {"fig3.wo def1 1 0", "891adbe734d69bb9"},
    {"fig3.wo def1 42 3", "9043e445488443b7"},
    {"fig3.wo drf0 1 0", "f6966b4f1bfc17b9"},
    {"fig3.wo drf0 42 3", "dbe667aca30e702e"},
    {"fig3.wo drf0ro 1 0", "b6b36477633b440b"},
    {"fig3.wo drf0ro 42 3", "687664dff32bc664"},
    {"fig3.wo sc 1 0", "714f631fe03eabff"},
    {"fig3.wo sc 42 3", "f429f48a71171e1c"},
    {"handoff.wo def1 1 0", "335a0750178fd7ce"},
    {"handoff.wo def1 42 3", "c9637b31c4ff7327"},
    {"handoff.wo drf0 1 0", "7f10f30552675e5d"},
    {"handoff.wo drf0 42 3", "5c196c70c0f079b7"},
    {"handoff.wo drf0ro 1 0", "ed1a6b63342db387"},
    {"handoff.wo drf0ro 42 3", "d067439ff49148a8"},
    {"handoff.wo sc 1 0", "a14f7aa6e072f2ce"},
    {"handoff.wo sc 42 3", "e152536377893401"},
    {"iriw.wo def1 1 0", "bf5eedff6e3f3713"},
    {"iriw.wo def1 42 3", "c412fb1c4242dd21"},
    {"iriw.wo drf0 1 0", "21ddbabd5a5641a5"},
    {"iriw.wo drf0 42 3", "93585ab7f9df0137"},
    {"iriw.wo drf0ro 1 0", "3ddf9acc50b6d417"},
    {"iriw.wo drf0ro 42 3", "1e83fb3ebc54cfc9"},
    {"iriw.wo sc 1 0", "76527fc5d25cf10d"},
    {"iriw.wo sc 42 3", "70035b70512805fe"},
    {"mixed.wo def1 1 0", "e29747343d8a6250"},
    {"mixed.wo def1 42 3", "300568cb1dca3c38"},
    {"mixed.wo drf0 1 0", "d5aedbf8135089ea"},
    {"mixed.wo drf0 42 3", "afec25444b7c5a92"},
    {"mixed.wo drf0ro 1 0", "49df696e79667868"},
    {"mixed.wo drf0ro 42 3", "5b7df1bdc751eab4"},
    {"mixed.wo sc 1 0", "2b8a7b8bf36a74b3"},
    {"mixed.wo sc 42 3", "103c6b19143de4dd"},
    {"mp.wo def1 1 0", "ce29f66847d666b3"},
    {"mp.wo def1 42 3", "a3636c170c29c022"},
    {"mp.wo drf0 1 0", "74562a7646230af9"},
    {"mp.wo drf0 42 3", "6edd7d38b188078c"},
    {"mp.wo drf0ro 1 0", "27443484d04b0b47"},
    {"mp.wo drf0ro 42 3", "c811395d4636296a"},
    {"mp.wo sc 1 0", "e8e9f0514787a26d"},
    {"mp.wo sc 42 3", "97f133c196cf2a21"},
    {"spinlock.wo def1 1 0", "a2a9cd7ab0d4f686"},
    {"spinlock.wo def1 42 3", "9a0349cc9cb954f4"},
    {"spinlock.wo drf0 1 0", "773bc4ae0f75de49"},
    {"spinlock.wo drf0 42 3", "8be00628fae811c4"},
    {"spinlock.wo drf0ro 1 0", "c12fb904b092fd6f"},
    {"spinlock.wo drf0ro 42 3", "e2ffba81f4a85091"},
    {"spinlock.wo sc 1 0", "b7ef8006bf8538ca"},
    {"spinlock.wo sc 42 3", "cc7ca7067848633a"},
};

/** Every golden row, each run digested by @p digest. */
void
checkGoldens(const Digester &digest)
{
    const auto files = programFiles();
    ASSERT_FALSE(files.empty()) << "no programs under " WO_PROGRAMS_DIR;

    const struct { OrderingPolicy policy; const char *name; } policies[] = {
        {OrderingPolicy::sc, "sc"},
        {OrderingPolicy::wo_def1, "def1"},
        {OrderingPolicy::wo_drf0, "drf0"},
        {OrderingPolicy::wo_drf0_ro, "drf0ro"}};
    // Two timing points: the quiet default and a jittery interconnect,
    // so the digests cover overflow migration and retry storms.
    const struct { std::uint64_t seed; Tick jitter; } timings[] = {
        {1, 0}, {42, 3}};

    std::size_t checked = 0;
    for (const std::string &file : files) {
        AsmResult a = assembleFile(file);
        ASSERT_TRUE(a.ok()) << file;
        const std::string base =
            std::filesystem::path(file).filename().string();
        for (const auto &p : policies) {
            for (const auto &t : timings) {
                const std::string id =
                    base + " " + p.name +
                    strprintf(" %llu %llu",
                              static_cast<unsigned long long>(t.seed),
                              static_cast<unsigned long long>(t.jitter));
                SystemCfg cfg;
                cfg.policy = p.policy;
                cfg.monitor = true;
                cfg.trace = true; // queue events: labels are hashed too
                cfg.quiet = true;
                cfg.net.seed = t.seed;
                cfg.net.jitter = t.jitter;
                cfg.max_events = 2'000'000;
                const std::string got = digest(a, cfg);
                auto it = golden.find(id);
                // The failure line is the table row to commit.
                EXPECT_TRUE(it != golden.end() && it->second == got)
                    << "{\"" << id << "\", \"" << got << "\"},";
                ++checked;
            }
        }
    }
    // Every golden row still names a program that exists.
    EXPECT_EQ(checked, golden.size());
}

TEST(KernelEquivalence, GoldenCrossCheckOverAllProgramsAndPolicies)
{
    checkGoldens([](const AsmResult &a, const SystemCfg &cfg) {
        System sys(*a.program, cfg);
        return runDigest(sys, a);
    });
}

TEST(KernelEquivalence, GoldenDigestsHoldOnOneReusedMachine)
{
    // Every program x policy x timing back to back on one machine:
    // programs of different widths and lengths, deadlocks and full
    // traces all pass through the same reset().
    std::unique_ptr<System> sys;
    checkGoldens([&sys](const AsmResult &a, const SystemCfg &cfg) {
        if (sys)
            sys->reset(*a.program, cfg);
        else
            sys = std::make_unique<System>(*a.program, cfg);
        return runDigest(*sys, a);
    });
}

} // namespace
} // namespace wo
