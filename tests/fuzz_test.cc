/**
 * @file
 * Seeded-mutation fuzzing of every parser that reads outside input:
 * the JSON reader, the assembler (a fleet coordinator assembles the
 * reproducer text its workers send), the campaign-spec codec on submit
 * and lease lines, and the journal replay.  Each target gets a few
 * thousand mutants of real inputs -- byte flips, truncations and
 * splices from a fixed seed, so a failure replays exactly -- and must
 * either reject a mutant or accept it cleanly; it must never crash.
 * Run under ASan/UBSan (the CI `asan-ubsan` job) to also catch the
 * undefined behavior a plain build would survive.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "campaign/journal.hh"
#include "campaign/spec.hh"
#include "common/random.hh"
#include "obs/json.hh"

namespace wo {
namespace {

constexpr int mutants_per_target = 3000;

/** Apply one to four random byte flips, truncations or splices (from
 *  @p pool) to @p in. */
std::string
mutate(Rng &rng, std::string s, const std::vector<std::string> &pool)
{
    // Structural bytes of the formats under test: flipping to one of
    // these reaches far more parser states than a random byte does.
    static const std::string dict = "{}[]:,\"\\-+.eE0123456789 \n\t#rx";
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
        switch (rng.below(3)) {
          case 0: // flip
            if (s.empty())
                break;
            if (rng.chance(1, 2))
                s[rng.below(s.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            else
                s[rng.below(s.size())] = dict[rng.below(dict.size())];
            break;
          case 1: // truncate
            s.resize(rng.below(s.size() + 1));
            break;
          default: { // splice a slice of another input in
            const std::string &o = pool[rng.below(pool.size())];
            const std::size_t a = rng.below(o.size() + 1);
            const std::size_t len = rng.below(o.size() - a + 1);
            const std::size_t at = rng.below(s.size() + 1);
            const std::size_t cut = rng.below(s.size() - at + 1);
            s.replace(at, cut, o, a, len);
            break;
          }
        }
    }
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Fuzz, JsonParseRejectsOrRoundTripsMutants)
{
    CampaignSpec spec;
    spec.program_files = {"a.wo", "b \"quoted\".wo"};
    spec.verify_models = {"sc", "drf0"};
    Json cell = Json::object();
    cell.set("type", Json("cell"));
    cell.set("key", Json("litmus:iriw|drf0|n7|h10|j2"));
    cell.set("ms", Json(0.125));
    cell.set("tick", Json(std::uint64_t{18446744073709551615ull}));
    const std::vector<std::string> seeds = {
        campaignSpecToJson(spec).dump(),
        cell.dump(),
        R"({"a":[1,-2.5e-3,true,false,null,{"b":"é\n\t\\"}],"c":{}})",
        R"([[[],[{}]],"x",1e308,-0,0.1])",
    };
    Rng rng(20260101);
    int accepted = 0;
    for (int i = 0; i < mutants_per_target; ++i) {
        const std::string text =
            mutate(rng, seeds[rng.below(seeds.size())], seeds);
        const JsonParseResult p = jsonParse(text);
        if (!p.ok)
            continue;
        ++accepted;
        // Accepted means a value that serializes and reads back to a
        // fixed point.
        const std::string once = p.value.dump();
        const JsonParseResult again = jsonParse(once);
        ASSERT_TRUE(again.ok) << "mutant " << i << ": " << text;
        EXPECT_EQ(again.value.dump(), once) << "mutant " << i;
    }
    EXPECT_GT(accepted, 0); // the mutator must not only produce garbage
}

#ifdef WO_PROGRAMS_DIR
TEST(Fuzz, AssemblerRejectsOrReassemblesMutants)
{
    // The corpus: every sample program plus the litmus corpus in the
    // disassembled form a shrunk reproducer travels in.
    std::vector<std::string> seeds;
    for (const auto &e :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (e.path().extension() == ".wo")
            seeds.push_back(readFile(e.path().string()));
    for (const LitmusCorpusEntry &e : litmusCorpus())
        seeds.push_back(disassemble(e.make()));
    ASSERT_GT(seeds.size(), 10u);

    Rng rng(20260102);
    int accepted = 0;
    for (int i = 0; i < mutants_per_target; ++i) {
        const std::string text =
            mutate(rng, seeds[rng.below(seeds.size())], seeds);
        const AsmResult r = assembleString(text);
        if (!r.ok())
            continue;
        ++accepted;
        // Accepted means a well-formed program: it disassembles to
        // text that assembles again.
        const AsmResult re = assembleString(disassemble(*r.program));
        EXPECT_TRUE(re.ok())
            << "mutant " << i << ": "
            << (re.errors.empty() ? "?" : re.errors[0].toString())
            << "\n" << text;
    }
    EXPECT_GT(accepted, 0);
}
#endif

TEST(Fuzz, CampaignSpecFromMutatedSubmitAndLeaseLines)
{
    CampaignSpec spec;
    spec.seed = 9;
    spec.cells = 2000;
    spec.policies = {OrderingPolicy::wo_drf0, OrderingPolicy::sc};
    spec.program_files = {"programs/mp.wo"};
    spec.inject_reserve_bug = true;
    CampaignSpec vspec;
    vspec.verify = true;
    vspec.verify_models = {"drf0", "wb"};
    vspec.max_states = 5000;

    Json submit = Json::object();
    submit.set("type", Json("submit"));
    submit.set("spec", campaignSpecToJson(spec));
    Json lease = Json::object();
    lease.set("type", Json("lease"));
    lease.set("campaign", Json(std::uint64_t{1}));
    lease.set("lease", Json(std::uint64_t{7}));
    lease.set("spec", campaignSpecToJson(vspec));
    Json indices = Json::array();
    for (std::uint64_t i = 32; i < 40; ++i)
        indices.push(Json(i));
    lease.set("indices", std::move(indices));
    const std::vector<std::string> seeds = {submit.dump(), lease.dump()};

    Rng rng(20260103);
    int accepted = 0;
    for (int i = 0; i < mutants_per_target; ++i) {
        const std::string text =
            mutate(rng, seeds[rng.below(seeds.size())], seeds);
        const JsonParseResult p = jsonParse(text);
        const Json *sj = p.ok ? p.value.find("spec") : nullptr;
        if (!sj)
            continue;
        CampaignSpec out;
        std::string why;
        if (!campaignSpecFromJson(*sj, out, &why)) {
            EXPECT_FALSE(why.empty()) << "mutant " << i;
            continue;
        }
        ++accepted;
        // Accepted means a spec the codec writes back identically.
        const Json round = campaignSpecToJson(out);
        CampaignSpec back;
        ASSERT_TRUE(campaignSpecFromJson(round, back, &why))
            << "mutant " << i << ": " << why;
        EXPECT_EQ(campaignSpecToJson(back).dump(), round.dump())
            << "mutant " << i;
    }
    EXPECT_GT(accepted, 0);
}

TEST(Fuzz, JournalLoadSurvivesMutatedJournals)
{
    // A real fleet-shaped journal: header, idx-annotated cell lines and
    // failure records.
    const std::string seed_path = testing::TempDir() + "fuzz_seed.jsonl";
    std::remove(seed_path.c_str());
    {
        Journal j(seed_path);
        ASSERT_TRUE(j.open(/*fresh=*/true));
        Json meta = Json::object();
        meta.set("fleet", Json(true));
        meta.set("spec", campaignSpecToJson(CampaignSpec()));
        j.writeHeader(std::move(meta));
        for (std::uint64_t i = 0; i < 6; ++i) {
            CellResult r;
            r.key = "litmus:mp|drf0|n" + std::to_string(i) + "|h10|j0";
            r.completed = true;
            r.hw = i % 2;
            r.primary_kind = r.hw ? "reserve_leak" : "";
            Json line = cellResultToJson(r);
            line.set("type", Json("cell"));
            line.set("idx", Json(i));
            j.appendJson(std::move(line));
        }
        FailureRecord f;
        f.dedup = "reserve_leak:0123456789ab";
        f.kind = "reserve_leak";
        f.repro_path = "repro-reserve_leak-0123456789ab.wo";
        j.recordFailure(f);
        j.recordFailure(f);
    }
    const std::vector<std::string> seeds = {readFile(seed_path)};
    ASSERT_FALSE(seeds[0].empty());

    const std::string path = testing::TempDir() + "fuzz_mutant.jsonl";
    Rng rng(20260104);
    for (int i = 0; i < mutants_per_target; ++i) {
        const std::string text = mutate(rng, seeds[0], seeds);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }
        Journal j(path);
        j.load();
        // Whatever survived replays into consistent state.
        EXPECT_TRUE(j.header().isNull() || j.header().isObject());
        EXPECT_LE(j.doneCells(), text.size());
        for (const FailureRecord &f : j.failures()) {
            EXPECT_FALSE(f.dedup.empty()) << "mutant " << i;
            EXPECT_GE(f.count, 1u) << "mutant " << i;
        }
    }
}

} // namespace
} // namespace wo
