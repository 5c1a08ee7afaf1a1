/**
 * @file
 * Golden state graphs of the queued machines (wb, net, def1, drf0,
 * drf0ro).
 *
 * Each (program, model) pair over the programs/ corpus and the built-in litmus
 * corpus is explored breadth-first up to a fixed number of expanded
 * states.  The test folds into one FNV-1a digest, for every expanded
 * state in BFS order:
 *   its dump() text, its encode() bytes, isFinal() and each processor's
 *   pendingAddrs(); then every outgoing edge's label and the encode() of
 *   its target, in labeledSuccessors() order.
 * The digests were recorded before the four machines shared one
 * queued-machine skeleton, so any change to a state encoding, an edge,
 * the edge order, a label or the rendering of a state fails here with
 * the pair that moved.
 *
 * To re-record after a deliberate semantic change, run the test and copy
 * the table it prints on failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "common/logging.hh"
#include "models/model_registry.hh"

using namespace wo;

namespace {

/**
 * States expanded per pair.  Every graph of today's suite is smaller
 * (the largest has 814 states), so each digest covers a whole graph.
 */
constexpr std::size_t max_states = 2000;

struct GraphDigest
{
    std::size_t states = 0; //!< expanded (capped at max_states)
    std::size_t edges = 0;
    std::string digest;
};

template <typename Model>
GraphDigest
digestGraph(const Model &m, const Program &prog)
{
    using State = typename Model::State;
    GraphDigest g;
    std::string text;
    std::unordered_set<std::string> visited;
    std::deque<State> frontier;
    auto push = [&](State s) {
        if (visited.insert(m.encode(s)).second)
            frontier.push_back(std::move(s));
    };
    push(m.initial());
    while (g.states < max_states && !frontier.empty()) {
        const State s = std::move(frontier.front());
        frontier.pop_front();
        ++g.states;
        text += "S\n";
        text += m.dump(s);
        text += m.encode(s);
        text += m.isFinal(s) ? "F" : "-";
        for (ProcId p = 0; p < prog.numThreads(); ++p) {
            std::vector<Addr> addrs;
            m.pendingAddrs(s, p, addrs);
            text += strprintf("|P%u", p);
            for (Addr a : addrs)
                text += strprintf(",%u", a);
        }
        for (auto &succ : m.labeledSuccessors(s)) {
            ++g.edges;
            text += "\nE " + succ.label.toString() + " ";
            text += m.encode(succ.state);
            push(std::move(succ.state));
        }
        text += "\n";
    }
    g.digest = fnv1aHex(text);
    return g;
}

struct Golden
{
    const char *program;
    const char *model;
    std::size_t states;
    std::size_t edges;
    const char *digest;
};

// clang-format off
const Golden golden[] = {
    {"dekker.wo", "wb", 131, 276, "b1e9c6d06393615c"},
    {"dekker.wo", "net", 166, 374, "5d753437cfcf865d"},
    {"dekker.wo", "def1", 166, 374, "89096a67f3ad3b53"},
    {"dekker.wo", "drf0", 166, 374, "87af70ead50781a1"},
    {"dekker.wo", "drf0ro", 166, 374, "87af70ead50781a1"},
    {"fig1.wo", "wb", 34, 58, "ba83962a98d0ef98"},
    {"fig1.wo", "net", 34, 58, "5a7f559f5ade6f9e"},
    {"fig1.wo", "def1", 34, 58, "503bb84dc10bc1de"},
    {"fig1.wo", "drf0", 34, 58, "43e581d634c0e89e"},
    {"fig1.wo", "drf0ro", 34, 58, "43e581d634c0e89e"},
    {"fig3.wo", "wb", 10, 15, "a90b761940831c5d"},
    {"fig3.wo", "net", 10, 15, "26b4f2db3a86fe0d"},
    {"fig3.wo", "def1", 10, 15, "bc015b41092f40b7"},
    {"fig3.wo", "drf0", 12, 19, "17818cef8a4a29dd"},
    {"fig3.wo", "drf0ro", 12, 19, "17818cef8a4a29dd"},
    {"handoff.wo", "wb", 6, 8, "c318894a83e16f0e"},
    {"handoff.wo", "net", 6, 8, "98b3c839e0dd96e0"},
    {"handoff.wo", "def1", 6, 8, "f41f0103d3d7f2e1"},
    {"handoff.wo", "drf0", 7, 10, "616cc7407bb2cf42"},
    {"handoff.wo", "drf0ro", 7, 10, "616cc7407bb2cf42"},
    {"iriw.wo", "wb", 164, 330, "acaec51c97547fda"},
    {"iriw.wo", "net", 164, 330, "a7df7edf6e73cd12"},
    {"iriw.wo", "def1", 164, 330, "c033282ea67ff276"},
    {"iriw.wo", "drf0", 164, 330, "cdbb54c3bab0cbba"},
    {"iriw.wo", "drf0ro", 164, 330, "cdbb54c3bab0cbba"},
    {"mixed.wo", "wb", 253, 685, "099c05c9b3202f4b"},
    {"mixed.wo", "net", 203, 482, "1e3b292815efc88a"},
    {"mixed.wo", "def1", 377, 1123, "ce739103f7a4c8f0"},
    {"mixed.wo", "drf0", 377, 1123, "294621f90b995f82"},
    {"mixed.wo", "drf0ro", 377, 1123, "294621f90b995f82"},
    {"mp.wo", "wb", 23, 33, "b886c196c0f28881"},
    {"mp.wo", "net", 29, 44, "cba00dcc10cbfbfa"},
    {"mp.wo", "def1", 29, 44, "beb8e0e7c64510c5"},
    {"mp.wo", "drf0", 29, 44, "dc1a84b323194bec"},
    {"mp.wo", "drf0ro", 29, 44, "dc1a84b323194bec"},
    {"spinlock.wo", "wb", 44, 70, "4dd7e7b5f7414792"},
    {"spinlock.wo", "net", 44, 70, "7c37a29941a0dda6"},
    {"spinlock.wo", "def1", 44, 70, "f2e0ebd8fbabeaf0"},
    {"spinlock.wo", "drf0", 52, 86, "54a5e9decb0db884"},
    {"spinlock.wo", "drf0ro", 52, 86, "54a5e9decb0db884"},
    {"fig1", "wb", 34, 58, "ba83962a98d0ef98"},
    {"fig1", "net", 34, 58, "5a7f559f5ade6f9e"},
    {"fig1", "def1", 34, 58, "503bb84dc10bc1de"},
    {"fig1", "drf0", 34, 58, "43e581d634c0e89e"},
    {"fig1", "drf0ro", 34, 58, "43e581d634c0e89e"},
    {"mp", "wb", 23, 33, "b886c196c0f28881"},
    {"mp", "net", 29, 44, "cba00dcc10cbfbfa"},
    {"mp", "def1", 29, 44, "beb8e0e7c64510c5"},
    {"mp", "drf0", 29, 44, "dc1a84b323194bec"},
    {"mp", "drf0ro", 29, 44, "dc1a84b323194bec"},
    {"mp_sync", "wb", 6, 8, "259365bb9030a1f8"},
    {"mp_sync", "net", 6, 8, "37fad5aae0faecd6"},
    {"mp_sync", "def1", 6, 8, "987a13edf1244da1"},
    {"mp_sync", "drf0", 7, 10, "659763766cb19ed6"},
    {"mp_sync", "drf0ro", 7, 10, "659763766cb19ed6"},
    {"corr", "wb", 12, 13, "689d79dfead57811"},
    {"corr", "net", 12, 13, "2529d197df24ee9b"},
    {"corr", "def1", 12, 13, "032eb8ac49a18042"},
    {"corr", "drf0", 12, 13, "9224236683639cb7"},
    {"corr", "drf0ro", 12, 13, "9224236683639cb7"},
    {"iriw", "wb", 164, 330, "acaec51c97547fda"},
    {"iriw", "net", 164, 330, "a7df7edf6e73cd12"},
    {"iriw", "def1", 164, 330, "c033282ea67ff276"},
    {"iriw", "drf0", 164, 330, "cdbb54c3bab0cbba"},
    {"iriw", "drf0ro", 164, 330, "cdbb54c3bab0cbba"},
    {"lb", "wb", 22, 28, "be5609299e278bba"},
    {"lb", "net", 22, 28, "77409aa2300671ae"},
    {"lb", "def1", 22, 28, "ee7a36dbf5d0d384"},
    {"lb", "drf0", 22, 28, "8a912a4fdb6c6020"},
    {"lb", "drf0ro", 22, 28, "8a912a4fdb6c6020"},
    {"wrc", "wb", 61, 100, "2c7f2683d607f068"},
    {"wrc", "net", 61, 100, "b8efa2d89c659268"},
    {"wrc", "def1", 61, 100, "ee7d246f7ac4562a"},
    {"wrc", "drf0", 61, 100, "7829b435937a3267"},
    {"wrc", "drf0ro", 61, 100, "7829b435937a3267"},
    {"2+2w", "wb", 42, 76, "cdde601b03eddbc5"},
    {"2+2w", "net", 62, 126, "885f7874df52e3f5"},
    {"2+2w", "def1", 62, 126, "9de507c62d324837"},
    {"2+2w", "drf0", 62, 126, "063e14e147ceb85b"},
    {"2+2w", "drf0ro", 62, 126, "063e14e147ceb85b"},
    {"s", "wb", 30, 46, "8a9b651960add7e9"},
    {"s", "net", 38, 62, "459f186a36348c07"},
    {"s", "def1", 38, 62, "5a9b92d69861b008"},
    {"s", "drf0", 38, 62, "512107194662c5a8"},
    {"s", "drf0ro", 38, 62, "512107194662c5a8"},
    {"coww", "wb", 6, 6, "a9cd0c92c18d223b"},
    {"coww", "net", 6, 6, "fa7e9de606af8c47"},
    {"coww", "def1", 6, 6, "1c676bc37cd51682"},
    {"coww", "drf0", 6, 6, "cadfdac5ffba90b0"},
    {"coww", "drf0ro", 6, 6, "cadfdac5ffba90b0"},
    {"fig3", "wb", 18, 29, "c24ed0f07f84e20e"},
    {"fig3", "net", 18, 29, "0623555ee19abef4"},
    {"fig3", "def1", 18, 29, "9677721a24791ef4"},
    {"fig3", "drf0", 24, 41, "02e059bfae12fd60"},
    {"fig3", "drf0ro", 24, 41, "02e059bfae12fd60"},
    {"fig3_tt", "wb", 21, 34, "30f7ffa5fb2c5e15"},
    {"fig3_tt", "net", 21, 34, "12d6a79b97f528dd"},
    {"fig3_tt", "def1", 21, 34, "9474a2e10d101470"},
    {"fig3_tt", "drf0", 27, 46, "a93b92e8547feb1c"},
    {"fig3_tt", "drf0ro", 27, 46, "a93b92e8547feb1c"},
    {"counter2x2", "wb", 200, 344, "17f2fe83b7c8e9a3"},
    {"counter2x2", "net", 200, 344, "bc1feabefd0f772d"},
    {"counter2x2", "def1", 200, 344, "e214df2eb6fbf01d"},
    {"counter2x2", "drf0", 306, 556, "fed9cff2a72f857e"},
    {"counter2x2", "drf0ro", 306, 556, "fed9cff2a72f857e"},
    {"counter_tas", "wb", 133, 218, "c4fe3dda50c13521"},
    {"counter_tas", "net", 133, 218, "628c3d8de62a5edd"},
    {"counter_tas", "def1", 133, 218, "599be2558785c3c3"},
    {"counter_tas", "drf0", 199, 350, "26aa116f25fb4bc9"},
    {"counter_tas", "drf0ro", 199, 350, "26aa116f25fb4bc9"},
    {"racy_counter", "wb", 190, 350, "28f24878a48352dc"},
    {"racy_counter", "net", 138, 202, "542221f826f95594"},
    {"racy_counter", "def1", 190, 350, "57be4c6b9dd7f0b2"},
    {"racy_counter", "drf0", 190, 350, "251574e386339c66"},
    {"racy_counter", "drf0ro", 190, 350, "251574e386339c66"},
    {"barrier3", "wb", 513, 1377, "cdd063fe97b6668a"},
    {"barrier3", "net", 513, 1377, "c335db1c0fab215e"},
    {"barrier3", "def1", 513, 1377, "7147b86d7e782955"},
    {"barrier3", "drf0", 807, 2274, "59d1c6a99fec5cd0"},
    {"barrier3", "drf0ro", 814, 2456, "30457d6b633c1280"},
    {"pingpong", "wb", 58, 108, "c61ecec1e77582b1"},
    {"pingpong", "net", 58, 108, "be007099a63c97db"},
    {"pingpong", "def1", 58, 108, "444a46086dcc14e7"},
    {"pingpong", "drf0", 75, 149, "da74ff6e4195c29a"},
    {"pingpong", "drf0ro", 75, 149, "da74ff6e4195c29a"},
};
// clang-format on

/** Every program of the suite: the .wo corpus, then the litmus corpus. */
std::vector<std::pair<std::string, Program>>
suitePrograms()
{
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (e.path().extension() == ".wo")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    std::vector<std::pair<std::string, Program>> out;
    for (const std::string &f : files) {
        AsmResult a = assembleFile(f);
        EXPECT_TRUE(a.ok()) << f;
        if (a.ok())
            out.emplace_back(
                std::filesystem::path(f).filename().string(),
                std::move(*a.program));
    }
    for (const auto &e : litmusCorpus())
        out.emplace_back(e.name, e.make());
    return out;
}

} // namespace

TEST(ModelGolden, StateGraphsMatchTheRecordedDigests)
{
    const char *const models[] = {"wb", "net", "def1", "drf0", "drf0ro"};
    std::string table;
    std::size_t pairs = 0, mismatches = 0;
    for (const auto &[name, prog] : suitePrograms()) {
        for (const char *model : models) {
            GraphDigest g;
            ASSERT_TRUE(withModelByName(
                prog, model, [&](auto &m) { g = digestGraph(m, prog); }));
            table += strprintf("    {\"%s\", \"%s\", %zu, %zu, \"%s\"},\n",
                               name.c_str(), model, g.states, g.edges,
                               g.digest.c_str());
            ++pairs;
            const Golden *want = nullptr;
            for (const Golden &r : golden)
                if (name == r.program && std::string(model) == r.model)
                    want = &r;
            if (!want) {
                ADD_FAILURE() << name << " on " << model
                              << ": no recorded digest";
                ++mismatches;
                continue;
            }
            EXPECT_EQ(g.states, want->states) << name << " on " << model;
            EXPECT_EQ(g.edges, want->edges) << name << " on " << model;
            EXPECT_EQ(g.digest, want->digest) << name << " on " << model;
            mismatches += g.digest != want->digest;
        }
    }
    EXPECT_EQ(pairs, std::size(golden)) << "suite and table disagree";
    if (mismatches)
        std::printf("Recorded table for this tree:\n%s", table.c_str());
}
