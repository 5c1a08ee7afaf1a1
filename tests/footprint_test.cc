/**
 * @file
 * The residual footprint table (program/footprint.hh) against a brute
 * force: for every thread and pc of every program in the corpus, the
 * read, write and synchronization sets must equal what a forward
 * depth-first walk from that pc collects, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "common/random.hh"
#include "program/builder.hh"
#include "program/footprint.hh"
#include "program/workload.hh"

namespace wo {
namespace {

/** Reads, writes and syncs, one bitset each. */
using Sets = std::vector<std::vector<std::uint64_t>>;

/** The three location sets of the code reachable from @p start. */
Sets
forwardReach(const Program &prog, ProcId p, Pc start)
{
    const ThreadCode &code = prog.thread(p);
    const std::size_t words = (prog.numLocations() + 63) / 64;
    Sets sets(3, std::vector<std::uint64_t>(words, 0));
    std::vector<bool> seen(code.size(), false);
    std::vector<Pc> work{start};
    while (!work.empty()) {
        const Pc at = work.back();
        work.pop_back();
        if (seen[at])
            continue;
        seen[at] = true;
        const Instruction &i = code.at(at);
        const bool in[3] = {i.readsMemory(), i.writesMemory(),
                            i.isSync()};
        for (int k = 0; k < 3; ++k)
            if (in[k])
                sets[k][i.addr / 64] |= std::uint64_t{1} << (i.addr % 64);
        switch (i.op) {
          case Opcode::halt:
            break;
          case Opcode::jump:
            work.push_back(i.target);
            break;
          case Opcode::branch_eq:
          case Opcode::branch_ne:
            work.push_back(i.target);
            work.push_back(at + 1);
            break;
          default:
            work.push_back(at + 1);
            break;
        }
    }
    return sets;
}

/** Compare every (thread, pc) of @p prog; the number of mismatches. */
int
mismatches(const std::string &name, const Program &prog)
{
    const Footprint fp(prog);
    int bad = 0;
    for (ProcId p = 0; p < prog.numThreads(); ++p)
        for (Pc pc = 0; pc < prog.thread(p).size(); ++pc) {
            const Sets want = forwardReach(prog, p, pc);
            for (const auto k : {Footprint::reads, Footprint::writes,
                                 Footprint::syncs}) {
                const auto got = fp.set(p, pc, k);
                if (!std::equal(got.begin(), got.end(), want[k].begin(),
                                want[k].end())) {
                    ADD_FAILURE() << name << " P" << p << "@" << pc
                                  << " set " << k << "\n"
                                  << prog.toString();
                    ++bad;
                }
                for (Addr a = 0; a < prog.numLocations(); ++a)
                    EXPECT_EQ(fp.may(p, pc, k, a),
                              (want[k][a / 64] >> (a % 64) & 1) != 0);
            }
        }
    return bad;
}

std::vector<std::string>
woFiles(const char *dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".wo")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(Footprint, MatchesForwardReachability)
{
    std::vector<std::pair<std::string, Program>> progs;
    std::vector<std::string> files = woFiles(WO_PROGRAMS_DIR);
    files.push_back(std::string(WO_TEST_PROGRAMS_DIR) + "/spill6x10.wo");
    for (const std::string &f : files) {
        AsmResult a = assembleFile(f);
        ASSERT_TRUE(a.ok()) << f;
        progs.emplace_back(f, std::move(*a.program));
    }
    for (const auto &e : litmusCorpus())
        progs.emplace_back(e.name, e.make());

    // A nested loop whose inner body is reachable only backwards, a
    // jump over dead code, and locations past one 64-bit word.
    ProgramBuilder b("loops", 2, 130);
    b.thread(0)
        .label("outer")
        .load(0, 3)
        .label("inner")
        .syncLoad(1, 100)
        .bne(1, 0, "inner")
        .store(70, 1)
        .beq(0, 0, "outer")
        .jmp("end")
        .store(5, 1)
        .label("end")
        .testAndSet(2, 129);
    b.thread(1).acquire(64).store(65, 2).release(64);
    progs.emplace_back("loops", b.build());

    Rng rng(20261018);
    for (int n = 0; n < 1000; ++n) {
        if (n % 2 == 0) {
            Drf0WorkloadCfg d;
            d.procs = static_cast<ProcId>(rng.range(2, 4));
            d.regions = static_cast<Addr>(rng.range(1, 3));
            d.locs_per_region = static_cast<Addr>(rng.range(1, 3));
            d.sections = static_cast<int>(rng.range(1, 3));
            d.ops_per_section = static_cast<int>(rng.range(1, 3));
            d.test_and_tas = rng.chance(1, 2);
            d.seed = rng.next();
            progs.emplace_back("drf0_rand", randomDrf0Program(d));
        } else {
            RacyWorkloadCfg r;
            r.procs = static_cast<ProcId>(rng.range(2, 4));
            r.locs = static_cast<Addr>(n % 10 == 1 ? rng.range(60, 140)
                                                   : rng.range(1, 4));
            r.ops_per_thread = static_cast<int>(rng.range(1, 6));
            r.seed = rng.next();
            progs.emplace_back("racy_rand", randomRacyProgram(r));
        }
    }

    int bad = 0;
    for (const auto &[name, prog] : progs)
        bad += mismatches(name, prog);
    EXPECT_EQ(bad, 0);
}

} // namespace
} // namespace wo
