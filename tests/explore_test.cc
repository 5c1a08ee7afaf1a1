/**
 * @file
 * Golden equivalence suite for the exploration engines and the
 * axiomatic SC evaluator.
 *
 * The DPOR engine (sleep sets + hashed-state dedup) is only admissible
 * as the default explorer if it is *observationally identical* to the
 * naive visited-set BFS: bit-identical outcome sets on every program x
 * model pair, while visiting strictly fewer states on at least one
 * racy program (otherwise the reduction machinery is dead weight).
 * The axiomatic evaluator (src/axiom/, no shared code with the
 * operational simulators) must agree with the operational SC machine
 * wherever it is conclusive, and a seeded soundness bug in it must be
 * caught -- not absorbed -- by the dual-engine verify judge.
 *
 * Budget discipline: a truncated or stuck engine may legitimately see
 * a partial outcome set, so equivalence is only asserted for pairs
 * where BOTH engines ran to completion, and the suite asserts that
 * enough pairs did for the comparison to mean something.
 */

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "asm/assembler.hh"
#include "axiom/axiom_eval.hh"
#include "campaign/cell.hh"
#include "campaign/verify.hh"
#include "models/model_registry.hh"
#include "models/sc_model.hh"
#include "program/builder.hh"

using namespace wo;

namespace {

/** Every .wo file in the checked-in corpus, sorted for determinism. */
std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (e.path().extension() == ".wo")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

Program
load(const std::string &path)
{
    AsmResult a = assembleFile(path);
    EXPECT_TRUE(a.ok()) << path;
    return *a.program;
}

Program
loadByName(const std::string &name)
{
    return load(std::string(WO_PROGRAMS_DIR) + "/" + name);
}

} // namespace

// ------------------------------------------------- DPOR == BFS, golden

TEST(Explore, DporMatchesBfsAcrossCorpusAndModels)
{
    // Outcome sets must be bit-identical wherever both engines are
    // conclusive; under truncation partial sets may differ and prove
    // nothing, so those pairs are skipped -- but the suite insists a
    // solid majority of the matrix completes, or the budget is wrong.
    ExploreCfg cfg;
    cfg.max_states = 20'000;
    std::size_t pairs = 0, conclusive_pairs = 0;
    std::uint64_t dpor_total = 0, bfs_total = 0;
    for (const std::string &file : corpusFiles()) {
        const Program prog = load(file);
        for (const std::string &model : modelNames()) {
            ++pairs;
            ExploreResult dpor, bfs;
            ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
                dpor = exploreOutcomesDpor(m, cfg);
                bfs = exploreOutcomesBfs(m, cfg);
            })) << model;
            if (!dpor.conclusive() || !bfs.conclusive())
                continue;
            ++conclusive_pairs;
            EXPECT_EQ(dpor.outcomes, bfs.outcomes)
                << prog.name() << " on " << model;
            // DPOR counts search nodes -- (state, sleep set) pairs -- so
            // a tiny synchronized program may show a handful more nodes
            // than BFS has states.  The bound that must hold per pair is
            // node count vs the full interleaving space plus that
            // re-entry slack; the reduction itself is asserted in
            // aggregate below and strictly on the racy corpus.
            EXPECT_LE(dpor.states, bfs.states + dpor.revisit_pruned)
                << prog.name() << " on " << model;
            dpor_total += dpor.states;
            bfs_total += bfs.states;
        }
    }
    EXPECT_GE(pairs, 40u);
    EXPECT_GE(conclusive_pairs * 2, pairs)
        << "budget too small for the equivalence claim to have teeth";
    EXPECT_LT(dpor_total, bfs_total)
        << "the reduced engine must do less total work than BFS";
}

TEST(Explore, DporMatchesBfsPastInlineCapacity)
{
    // The same contract on a program whose states outgrow every inline
    // capacity (threads, memory, and on a deep write buffer the pools),
    // so the heap path of a state is held to it too -- at 1 and 2 jobs.
    const Program prog =
        load(std::string(WO_TEST_PROGRAMS_DIR) + "/spill6x10.wo");
    auto check = [&](const auto &m, const std::string &what) {
        ExploreCfg cfg;
        cfg.max_states = 200'000;
        const ExploreResult bfs = exploreOutcomesBfs(m, cfg);
        const ExploreResult dpor = exploreOutcomesDpor(m, cfg);
        cfg.jobs = 2;
        const ExploreResult par = exploreOutcomesDpor(m, cfg);
        ASSERT_TRUE(bfs.conclusive()) << what;
        ASSERT_TRUE(dpor.conclusive()) << what;
        EXPECT_EQ(dpor.outcomes, bfs.outcomes) << what;
        EXPECT_TRUE(par == dpor) << what << ": 2 jobs diverged from 1";
        EXPECT_GT(dpor.outcomes.size(), 1u) << what;
    };
    for (const std::string &model : modelNames()) {
        if (model == "stale")
            continue; // below, with a shallower inbox
        ASSERT_TRUE(withModelByName(
            prog, model, [&](auto &m) { check(m, model); }))
            << model;
    }
    // Each store broadcasts to five inboxes; at the default inbox depth
    // their delivery orders run to hundreds of thousands of states.
    check(StaleCacheModel(prog, /*max_inbox=*/1), "stale, inbox 1");
    check(WriteBufferModel(prog, /*capacity=*/8), "wb, capacity 8");
}

TEST(Explore, DporStrictlyReducesStatesOnARacyProgram)
{
    // The reduction must actually reduce: on a racy program with many
    // commuting interleavings DPOR has to visit strictly fewer states
    // than the full-interleaving BFS while computing the same set.
    const Program prog = loadByName("mixed.wo");
    ExploreCfg cfg;
    cfg.max_states = 100'000;
    ExploreResult dpor, bfs;
    ASSERT_TRUE(withModelByName(prog, "stale", [&](auto &m) {
        dpor = exploreOutcomesDpor(m, cfg);
        bfs = exploreOutcomesBfs(m, cfg);
    }));
    ASSERT_TRUE(dpor.conclusive());
    ASSERT_TRUE(bfs.conclusive());
    EXPECT_EQ(dpor.outcomes, bfs.outcomes);
    EXPECT_LT(dpor.states, bfs.states);
    EXPECT_GT(dpor.sleep_pruned, 0u);
}

// ------------------------------------------ parallel runs, bit-identical

TEST(Explore, ParallelJobsAreBitIdenticalAcrossCorpusAndModels)
{
    // The work-stealing engine dedups on exact (state, sleep-set) nodes,
    // which makes the explored fixpoint -- outcomes and every
    // schedule-independent counter -- a function of the model alone.
    // Anything less than bit-identity here would let --jobs change
    // verdicts.  A truncated run stops at a schedule-dependent frontier,
    // so only the (deterministic) truncated flag is compared there.
    ExploreCfg base;
    base.max_states = 20'000;
    for (const std::string &file : corpusFiles()) {
        const Program prog = load(file);
        for (const std::string &model : modelNames()) {
            ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
                ExploreCfg cfg = base;
                cfg.jobs = 1;
                const ExploreResult one = exploreOutcomesDpor(m, cfg);
                for (int jobs : {2, 8}) {
                    cfg.jobs = jobs;
                    const ExploreResult par = exploreOutcomesDpor(m, cfg);
                    EXPECT_EQ(par.truncated, one.truncated)
                        << prog.name() << " on " << model << " with "
                        << jobs << " jobs";
                    if (one.truncated)
                        continue;
                    EXPECT_TRUE(par == one)
                        << prog.name() << " on " << model << " with "
                        << jobs << " jobs: outcomes/counters diverged "
                        << "from the single-threaded exploration";
                }
            })) << model;
        }
    }
}

TEST(Explore, ParallelExplorationIsDeterministicRunToRun)
{
    // Two parallel runs of the same exploration must agree field by
    // field even though worker interleavings differ -- ExploreResult's
    // operator== deliberately excludes the schedule-dependent
    // diagnostics (memo_hits, visited_bytes) and this test guards that
    // exact contract.
    const Program prog = loadByName("mixed.wo");
    ExploreCfg cfg;
    cfg.max_states = 100'000;
    cfg.jobs = 8;
    ASSERT_TRUE(withModelByName(prog, "stale", [&](auto &m) {
        const ExploreResult a = exploreOutcomesDpor(m, cfg);
        const ExploreResult b = exploreOutcomesDpor(m, cfg);
        ASSERT_TRUE(a.conclusive());
        EXPECT_TRUE(a == b);
        EXPECT_GT(a.commutation_probes, 0u);
    }));
}

// ------------------------------------------------- the model contract

TEST(ModelContract, LabelsStepLabelAndEdgeOrderAgreeOnEveryModel)
{
    // In every reachable state (a few hundred per pair, BFS order):
    //  - labels are unique among the outgoing edges;
    //  - stepLabel(s, l) lands on the same state as edge l, and returns
    //    nullopt for every label the edge list does not name -- a halted
    //    or blocked processor's instr, a drain where nothing is pending;
    //  - edges come instr-by-processor first, then drains by processor.
    constexpr std::size_t states_per_pair = 300;
    std::uint64_t edges = 0, halted_probes = 0, empty_drain_probes = 0;
    for (const std::string &file : corpusFiles()) {
        const Program prog = load(file);
        for (const std::string &model : modelNames()) {
            ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
                using State = typename std::decay_t<decltype(m)>::State;
                const std::string where = prog.name() + " on " + model;
                std::unordered_set<std::string> visited;
                std::deque<State> frontier;
                auto push = [&](State s) {
                    if (visited.insert(m.encode(s)).second)
                        frontier.push_back(std::move(s));
                };
                push(m.initial());
                for (std::size_t n = 0;
                     n < states_per_pair && !frontier.empty(); ++n) {
                    const State s = std::move(frontier.front());
                    frontier.pop_front();
                    auto succs = m.labeledSuccessors(s);
                    std::set<TransLabel> labels;
                    for (std::size_t k = 0; k < succs.size(); ++k) {
                        const TransLabel &l = succs[k].label;
                        EXPECT_TRUE(labels.insert(l).second)
                            << where << ": duplicate " << l.toString();
                        const auto stepped = m.stepLabel(s, l);
                        EXPECT_TRUE(stepped.has_value() &&
                                    m.encode(*stepped) ==
                                        m.encode(succs[k].state))
                            << where << ": stepLabel(" << l.toString()
                            << ") disagrees with its edge";
                        if (k > 0) {
                            const TransLabel &prev = succs[k - 1].label;
                            EXPECT_TRUE(prev.kind < l.kind ||
                                        (prev.kind == l.kind &&
                                         prev.proc <= l.proc))
                                << where << ": " << prev.toString()
                                << " listed before " << l.toString();
                        }
                    }
                    edges += succs.size();
                    for (ProcId p = 0; p < prog.numThreads(); ++p) {
                        std::vector<TransLabel> absent;
                        if (!labels.count(instrLabel(p))) {
                            absent.push_back(instrLabel(p));
                            halted_probes += s.threads[p].halted;
                        }
                        for (Addr a = 0; a < prog.numLocations(); ++a) {
                            if (labels.count(drainLabel(p, a)))
                                continue;
                            absent.push_back(drainLabel(p, a));
                            ++empty_drain_probes;
                        }
                        for (const TransLabel &l : absent)
                            EXPECT_FALSE(m.stepLabel(s, l).has_value())
                                << where << ": disabled " << l.toString()
                                << " stepped";
                    }
                    for (auto &succ : succs)
                        push(std::move(succ.state));
                }
            })) << model;
        }
    }
    EXPECT_GT(edges, 0u);
    EXPECT_GT(halted_probes, 0u);
    EXPECT_GT(empty_drain_probes, 0u);
}

// --------------------------------------- truncation is never a verdict

TEST(Explore, TruncatedExplorationIsNeverConclusive)
{
    const Program prog = loadByName("dekker.wo");
    ExploreCfg cfg;
    cfg.max_states = 10;
    ASSERT_TRUE(withModelByName(prog, "drf0", [&](auto &m) {
        const ExploreResult dpor = exploreOutcomesDpor(m, cfg);
        const ExploreResult bfs = exploreOutcomesBfs(m, cfg);
        EXPECT_TRUE(dpor.truncated);
        EXPECT_FALSE(dpor.conclusive());
        EXPECT_TRUE(bfs.truncated);
        EXPECT_FALSE(bfs.conclusive());
    }));
}

TEST(Explore, ConformanceUnderTinyBudgetIsUnreliable)
{
    // A budget-tripped SC-subset check must come back unknown, so no
    // caller can mint an "appears SC" verdict out of a partial
    // exploration.
    VerifyCfg cfg;
    cfg.max_states = 2;
    const VerifyResult r = checkScSubset(loadByName("dekker.wo"), "sc", cfg);
    EXPECT_EQ(r.def2.state, CheckState::unknown);

    // A starved DRF0-obeying program leaves the contract question open
    // rather than claiming the contract holds.
    const VerifyResult h = checkScSubset(loadByName("handoff.wo"), "sc", cfg);
    EXPECT_EQ(h.def2.state, CheckState::unknown);
    EXPECT_TRUE(h.inconclusive());
    EXPECT_EQ(h.verdict(), "inconclusive");
}

// ------------------------------------- axiomatic vs operational engine

TEST(Axiom, AgreesWithOperationalScOnStraightLineCorpus)
{
    for (const char *name : {"fig1.wo", "iriw.wo", "mp.wo", "mixed.wo"}) {
        const Program prog = loadByName(name);
        const AxiomResult ax = axiomScOutcomes(prog);
        ASSERT_TRUE(ax.conclusive) << name << ": " << ax.why_inconclusive;
        ScModel sc(prog);
        const ExploreResult op = exploreOutcomes(sc);
        ASSERT_TRUE(op.conclusive()) << name;
        EXPECT_EQ(ax.outcomes, op.outcomes) << name;
        EXPECT_GT(ax.candidates, 0u) << name;
    }
}

TEST(Axiom, LoopProgramIsHonestlyInconclusive)
{
    // The unfolder cannot bound a spin loop's read values a priori;
    // the evaluator must say so instead of returning a partial set
    // that a caller could mistake for the outcome set.
    const Program prog = loadByName("spinlock.wo");
    const AxiomResult ax = axiomScOutcomes(prog);
    EXPECT_FALSE(ax.conclusive);
    EXPECT_FALSE(ax.why_inconclusive.empty());
}

TEST(Axiom, RegisterBoundedLoopStaysConclusive)
{
    // A counted loop jumps backward, but its registers differ at every
    // visit of the loop head, so it unfolds to an exact answer.  A
    // static back-edge rule would call it inconclusive.
    ProgramBuilder b("counted_loop", 2, 1);
    b.thread(0)
        .movi(1, 0)
        .label("loop")
        .storeReg(0, 1)
        .addi(1, 1, 1)
        .bne(1, 3, "loop");
    b.thread(1).load(0, 0);
    const Program prog = b.build();
    const AxiomResult ax = axiomScOutcomes(prog);
    ASSERT_TRUE(ax.conclusive) << ax.why_inconclusive;
    ScModel sc(prog);
    const ExploreResult op = exploreOutcomes(sc);
    ASSERT_TRUE(op.conclusive());
    EXPECT_EQ(ax.outcomes, op.outcomes);
    EXPECT_EQ(ax.outcomes.size(), 3u); // thread 1 reads 0, 1 or 2
}

TEST(Axiom, VerdictTableOverLitmusCorpusAndPrograms)
{
    // Where the evaluator concludes it must equal operational SC.  The
    // spinning programs repeat a loop head with the same registers and
    // say so before unfolding anything; the counters whose written
    // values grow with every read never settle a value universe.
    const std::set<std::string> loops = {
        "mp_sync",  "fig3",     "fig3_tt",  "counter2x2", "counter_tas",
        "barrier3", "pingpong", "fig3.wo",  "spinlock.wo", "handoff.wo"};
    const std::set<std::string> unconverged = {"racy_counter",
                                               "dekker.wo"};
    std::vector<std::pair<std::string, Program>> progs;
    for (const LitmusCorpusEntry &e : litmusCorpus())
        progs.emplace_back(e.name, e.make());
    for (const std::string &path : corpusFiles())
        progs.emplace_back(std::filesystem::path(path).filename().string(),
                           load(path));
    std::size_t conclusive = 0, looping = 0, diverging = 0;
    for (const auto &[name, prog] : progs) {
        const AxiomResult ax = axiomScOutcomes(prog);
        if (loops.count(name)) {
            ++looping;
            EXPECT_FALSE(ax.conclusive) << name;
            EXPECT_NE(ax.why_inconclusive.find("loops: pc"),
                      std::string::npos)
                << name << ": " << ax.why_inconclusive;
            EXPECT_EQ(ax.candidates, 0u) << name;
        } else if (unconverged.count(name)) {
            ++diverging;
            EXPECT_EQ(ax.why_inconclusive, "value universe did not converge")
                << name;
        } else {
            ++conclusive;
            ASSERT_TRUE(ax.conclusive) << name << ": " << ax.why_inconclusive;
            ScModel sc(prog);
            const ExploreResult op = exploreOutcomes(sc);
            ASSERT_TRUE(op.conclusive()) << name;
            EXPECT_EQ(ax.outcomes, op.outcomes) << name;
        }
    }
    EXPECT_EQ(looping, loops.size());
    EXPECT_EQ(diverging, unconverged.size());
    EXPECT_EQ(conclusive, 13u); // 9 straight-line litmus shapes, 4 files
}

TEST(Axiom, SeededSoundnessBugIsCaughtByTheVerifyJudge)
{
    // inject_bug drops from-read edges from the acyclicity check, so
    // the axiomatic engine admits executions no SC machine can
    // produce.  The dual-engine judge must catch the divergence on at
    // least one corpus program and classify it precisely.
    std::size_t caught = 0;
    for (const char *name : {"fig1.wo", "iriw.wo", "mp.wo", "mixed.wo"}) {
        const Program prog = loadByName(name);
        VerifyCfg cfg;
        cfg.axiom.inject_bug = true;
        const VerifyResult r = verifyProgramOnModel(prog, "sc", cfg);
        EXPECT_FALSE(r.inconclusive()) << name << ": "
                                       << r.whyInconclusive();
        if (!r.violation())
            continue;
        ++caught;
        EXPECT_EQ(r.violation(), ViolationKind::axiom_divergence) << name;
        EXPECT_EQ(r.verdict(), "hw:axiom_divergence") << name;
        EXPECT_FALSE(r.axiom_sc.witness.empty()) << name;
        EXPECT_NE(r.detail().find("axiom"), std::string::npos) << name;
    }
    EXPECT_GT(caught, 0u)
        << "the seeded bug diverged on no corpus program";
}

// ------------------------------------------------ verify-cell verdicts

TEST(Verify, ConformingPairsReportOk)
{
    // The SC machine trivially appears SC to itself.
    {
        const VerifyResult r =
            verifyProgramOnModel(loadByName("mp.wo"), "sc");
        EXPECT_EQ(r.verdict(), "ok") << r.detail();
        EXPECT_FALSE(r.violation());
        EXPECT_FALSE(r.inconclusive()) << r.whyInconclusive();
    }
    // A race-free straight-line program (disjoint footprints, so DRF0
    // holds with no sync and no loops) appears SC on the claiming
    // weakly-ordered machine: every check is conclusive and green.
    {
        AsmResult a = assembleString("program disjoint\n"
                                     "thread 0\n"
                                     "  st a 1\n"
                                     "  ld r0 a\n"
                                     "thread 1\n"
                                     "  st b 2\n"
                                     "  ld r1 b\n");
        ASSERT_TRUE(a.ok());
        const VerifyResult r = verifyProgramOnModel(*a.program, "drf0");
        EXPECT_EQ(r.verdict(), "ok") << r.detail();
        EXPECT_EQ(r.def2.state, CheckState::agree);
        EXPECT_EQ(r.drf0, "not needed");
        EXPECT_FALSE(r.inconclusive()) << r.whyInconclusive();
    }
}

TEST(Verify, CounterexampleHardwareEscapingScIsExpectedNotAFailure)
{
    // fig1 on the write-buffer machine is the paper's own
    // counterexample: the escape is the point, so the verdict is
    // "nonsc", never a hardware-blaming violation.
    const VerifyResult r =
        verifyProgramOnModel(loadByName("fig1.wo"), "wb");
    EXPECT_EQ(r.verdict(), "nonsc");
    EXPECT_TRUE(r.nonsc());
    EXPECT_FALSE(r.violation());
    EXPECT_FALSE(r.inconclusive()) << r.whyInconclusive();
}

TEST(Verify, BudgetTripReportsInconclusiveNotAVerdict)
{
    VerifyCfg cfg;
    cfg.max_states = 10;
    const VerifyResult r =
        verifyProgramOnModel(loadByName("dekker.wo"), "drf0", cfg);
    EXPECT_TRUE(r.inconclusive());
    EXPECT_EQ(r.verdict(), "inconclusive");
    EXPECT_FALSE(r.violation());
    EXPECT_FALSE(r.whyInconclusive().empty());
}

TEST(Verify, UnknownModelIsInconclusiveNotACrash)
{
    const VerifyResult r =
        verifyProgramOnModel(loadByName("mp.wo"), "tso");
    EXPECT_TRUE(r.inconclusive());
    EXPECT_EQ(r.verdict(), "inconclusive");
}

TEST(Verify, ReproducesIsAFaithfulShrinkPredicate)
{
    // The shrinker keeps a candidate only while the *same* violation
    // kind reproduces; the predicate must hold on the original finding
    // and reject the kind that did not fire.
    const Program prog = loadByName("mixed.wo");
    VerifyCfg cfg;
    cfg.axiom.inject_bug = true;
    const VerifyResult r = verifyProgramOnModel(prog, "sc", cfg);
    ASSERT_EQ(r.violation(), ViolationKind::axiom_divergence);
    EXPECT_TRUE(verifyReproduces(prog, "sc",
                                 ViolationKind::axiom_divergence, cfg));
    EXPECT_FALSE(verifyReproduces(prog, "sc",
                                  ViolationKind::dpor_divergence, cfg));
    // Without the seeded bug nothing reproduces: the engines agree.
    VerifyCfg clean;
    EXPECT_FALSE(verifyReproduces(prog, "sc",
                                  ViolationKind::axiom_divergence,
                                  clean));
}

TEST(Verify, ScSubsetAnswerMatchesVerifyExitCodes)
{
    // `wotool verify` exits 0 within SC, 1 escaping SC, 3 unanswered.
    // One digit per model, in modelNames() order: the table the CLI
    // has always printed for the corpus.
    const std::map<std::string, std::string> expected = {
        {"dekker", "0111111"}, {"fig1", "0111111"},
        {"fig3", "0000000"},   {"handoff", "0000000"},
        {"iriw", "0000000"},   {"mixed", "0010111"},
        {"mp", "0010111"},     {"spinlock", "0000000"}};
    VerifyCfg cfg;
    cfg.max_states = ExploreCfg{}.max_states;
    std::size_t files = 0;
    for (const std::string &path : corpusFiles()) {
        const std::string name =
            std::filesystem::path(path).stem().string();
        const auto want = expected.find(name);
        ASSERT_NE(want, expected.end()) << "no expected row for " << name;
        const Program prog = load(path);
        std::string row;
        for (const std::string &model : modelNames()) {
            const CheckState s = checkScSubset(prog, model, cfg).def2.state;
            row += s == CheckState::agree     ? '0'
                   : s == CheckState::unknown ? '3'
                                              : '1';
        }
        EXPECT_EQ(row, want->second) << name;
        ++files;
    }
    EXPECT_EQ(files, expected.size());
}

TEST(Verify, Definition2ConfirmedWhileTheAxiomCheckIsUnknown)
{
    // handoff.wo spins, so the axiomatic evaluator cannot judge it;
    // the SC-subset check still confirms Definition 2 on its own
    // record, while the one-word cell verdict stays inconclusive.
    const VerifyResult r =
        verifyProgramOnModel(loadByName("handoff.wo"), "drf0");
    EXPECT_EQ(r.engines.state, CheckState::agree) << r.detail();
    EXPECT_EQ(r.def2.state, CheckState::agree) << r.detail();
    EXPECT_EQ(r.axiom_sc.state, CheckState::unknown);
    ASSERT_FALSE(r.axiom.why_inconclusive.empty());
    EXPECT_NE(r.axiom_sc.reason.find(r.axiom.why_inconclusive),
              std::string::npos)
        << r.axiom_sc.reason;
    EXPECT_EQ(r.drf0, "not needed");
    EXPECT_EQ(r.verdict(), "inconclusive");
}

TEST(Verify, AxiomCheckNamesTheEvaluatorsReason)
{
    // dekker's free reads never settle into a value universe.  A larger
    // state budget cannot help, and the check's reason must say why.
    const Program prog = loadByName("dekker.wo");
    ScModel sc(prog);
    const CheckRecord c =
        checkAxiom(axiomScOutcomes(prog), exploreOutcomes(sc));
    EXPECT_EQ(c.state, CheckState::unknown);
    EXPECT_NE(c.reason.find("value universe did not converge"),
              std::string::npos)
        << c.reason;
}
