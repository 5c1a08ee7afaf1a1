/**
 * @file
 * The fuzz frontier of a campaign.
 *
 * Two jobs: (1) enumerate a deterministic *base stream* of cells --
 * litmus corpus entries, user-supplied .wo files, and random
 * DRF0/racy generator draws, crossed with the campaign's policies and
 * a derived sequence of timing seeds.  Index i of the stream depends
 * only on (campaign seed, i), never on scheduling, so a resumed
 * campaign regenerates the identical stream and the journal can skip
 * finished cells by key.  (2) Turn interesting verdicts into new work:
 * a cell that produced a verdict kind its family had not shown, a new
 * outcome signature for its program, or an outright hardware failure
 * earns fuzz energy, and the observing worker pushes mutated neighbors
 * (new shapes via the workload mutation hooks, new timing seeds,
 * rotated policies) onto its own work-stealing deque.
 */

#ifndef WO_CAMPAIGN_FUZZER_HH
#define WO_CAMPAIGN_FUZZER_HH

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/spec.hh"

namespace wo {

/** The frontier reads only the campaign spec. */
using FuzzerCfg = CampaignSpec;

/** The frontier: deterministic base stream + novelty-guided mutation. */
class Fuzzer
{
  public:
    explicit Fuzzer(const CampaignSpec &spec);

    /**
     * Cell @p index of the base stream.  A pure function of the
     * campaign seed and @p index (see file comment).
     */
    Cell baseCell(std::uint64_t index) const;

    /**
     * Digest one finished cell.  Returns the mutants this result
     * earned (empty for boring results).  Thread-safe.
     */
    std::vector<Cell> observe(const Cell &cell, const CellResult &r);

    /** Distinct (program, outcome) and (family, verdict) pairs seen. */
    std::uint64_t noveltyCount() const;

  private:
    /**
     * Novelty state is sharded by key hash so the whole fleet's
     * observe() calls stop funneling through one mutex: two workers
     * only contend when their keys land in the same shard.  Membership
     * is identical to the old single-set form (a key's shard is a pure
     * function of the key), so jobs=1 behavior is unchanged.
     */
    static constexpr std::size_t num_shards = 16;
    struct alignas(64) NoveltyShard
    {
        std::mutex mu;
        std::unordered_set<std::string> seen;
    };

    /** Insert into the owning shard; true when the key was new. */
    static bool insertNovel(std::array<NoveltyShard, num_shards> &shards,
                            std::string key);

    std::vector<Cell> prototypes_; //!< one per corpus entry
    CampaignSpec cfg_;

    mutable std::array<NoveltyShard, num_shards> outcome_shards_; //!< programId|sig
    mutable std::array<NoveltyShard, num_shards> verdict_shards_; //!< familyId|verdict
    std::atomic<std::uint64_t> novelty_{0};
};

} // namespace wo

#endif // WO_CAMPAIGN_FUZZER_HH
