#include "fuzzer.hh"

#include "common/random.hh"
#include "models/model_registry.hh"

namespace wo {

namespace {

/** SplitMix64: the stream mix used to derive per-index coordinates. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a, so mutant derivation is identical on every platform. */
std::uint64_t
fnv64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

Fuzzer::Fuzzer(const CampaignSpec &spec) : cfg_(spec)
{
    if (cfg_.verify && cfg_.verify_models.empty())
        cfg_.verify_models = modelNames();
    for (const auto &e : litmusCorpus()) {
        Cell c;
        c.source = CellSource::litmus;
        c.spec = e.name;
        prototypes_.push_back(std::move(c));
    }
    for (const std::string &path : cfg_.program_files) {
        Cell c;
        c.source = CellSource::file;
        c.spec = path;
        prototypes_.push_back(std::move(c));
    }
    // Random generator prototypes: the seed of each draw comes from the
    // stream index, so these stand for whole program families.
    {
        Cell c;
        c.source = CellSource::drf0_rand;
        prototypes_.push_back(c);
        c.source = CellSource::racy_rand;
        prototypes_.push_back(c);
    }
}

Cell
Fuzzer::baseCell(std::uint64_t index) const
{
    const std::uint64_t h = mix64(cfg_.seed * 0x51ed2701u + index);
    Cell cell = prototypes_[index % prototypes_.size()];
    cell.inject_reserve_bug = cfg_.inject_reserve_bug;
    if (cell.source == CellSource::drf0_rand) {
        cell.drf0.seed = h | 1;
        cell.drf0.procs = 2 + (h >> 16) % 2;
        cell.drf0.sections = 1 + (h >> 20) % 2;
    } else if (cell.source == CellSource::racy_rand) {
        cell.racy.seed = h | 1;
        cell.racy.procs = 2 + (h >> 16) % 2;
        cell.racy.ops_per_thread = 2 + (h >> 20) % 3;
    }
    if (cfg_.verify) {
        // Verify streams cross program x model; keys carry no timing
        // coordinates, so deterministic sources repeat after nproto x
        // nmodels indices and the journal's seen set skips the repeats
        // (random sources re-seed per index and never repeat).
        cell.kind = CellKind::verify;
        cell.model = cfg_.verify_models[(index / prototypes_.size()) %
                                        cfg_.verify_models.size()];
        cell.max_states = cfg_.max_states;
        cell.inject_axiom_bug = cfg_.inject_axiom_bug;
        cell.explore_jobs = cfg_.explore_jobs;
        return cell;
    }
    cell.policy = cfg_.policies[(index / prototypes_.size()) %
                                cfg_.policies.size()];
    cell.net_seed = (h % 1024) + 1;
    cell.jitter = (h >> 10) % 4;
    cell.hop = 3 + (h >> 12) % 3; // small hops keep cells fast
    return cell;
}

bool
Fuzzer::insertNovel(std::array<NoveltyShard, num_shards> &shards,
                    std::string key)
{
    NoveltyShard &s = shards[fnv64(key) % num_shards];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.seen.insert(std::move(key)).second;
}

std::vector<Cell>
Fuzzer::observe(const Cell &cell, const CellResult &r)
{
    const bool new_verdict = insertNovel(
        verdict_shards_, cell.familyId() + "|" + r.verdict());
    const bool new_outcome = insertNovel(
        outcome_shards_, cell.programId() + "|" + r.outcome_sig);
    novelty_.fetch_add((new_verdict ? 1 : 0) + (new_outcome ? 1 : 0),
                       std::memory_order_relaxed);
    int energy = 0;
    if (r.hardwareFailure())
        energy = 4; // chase the bug's neighborhood hardest
    else if (new_verdict)
        energy = 3;
    else if (new_outcome)
        energy = 2;
    if (energy == 0)
        return {};

    // Mutants derive from the cell key, so equal discoveries breed
    // equal neighborhoods no matter which worker observed them.
    Rng rng(mix64(cfg_.seed ^ fnv64(r.key)));
    std::vector<Cell> mutants;

    if (cell.kind == CellKind::verify) {
        // Verify keys ignore timing and policy, so the only mutations
        // that produce new work are program-shape ones: random sources
        // breed re-shaped draws, deterministic sources have no
        // neighborhood.
        if (cell.source != CellSource::drf0_rand &&
            cell.source != CellSource::racy_rand)
            return {};
        for (int i = 0; i < energy; ++i) {
            Cell m = cell;
            if (m.source == CellSource::drf0_rand) {
                m.drf0 = mutateDrf0Cfg(m.drf0, rng);
                m.drf0.seed = rng.below(1u << 30) | 1;
            } else {
                m.racy = mutateRacyCfg(m.racy, rng);
                m.racy.seed = rng.below(1u << 30) | 1;
            }
            mutants.push_back(std::move(m));
        }
        return mutants;
    }

    for (int i = 0; i < energy; ++i) {
        Cell m = cell;
        switch (rng.below(4)) {
          case 0: // shape mutation (random sources only; else timing)
            if (m.source == CellSource::drf0_rand) {
                m.drf0 = mutateDrf0Cfg(m.drf0, rng);
                break;
            }
            if (m.source == CellSource::racy_rand) {
                m.racy = mutateRacyCfg(m.racy, rng);
                break;
            }
            [[fallthrough]];
          case 1:
            m.net_seed = rng.below(1 << 20) + 1;
            break;
          case 2:
            m.jitter = rng.below(5);
            m.net_seed = rng.below(1 << 20) + 1;
            break;
          default:
            m.policy = cfg_.policies[rng.below(cfg_.policies.size())];
            m.net_seed = rng.below(1 << 20) + 1;
            break;
        }
        mutants.push_back(std::move(m));
    }
    return mutants;
}

std::uint64_t
Fuzzer::noveltyCount() const
{
    return novelty_.load(std::memory_order_relaxed);
}

} // namespace wo
