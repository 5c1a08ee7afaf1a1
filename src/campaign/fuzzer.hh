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
 * rotated policies) onto its own work-stealing queue.
 */

#ifndef WO_CAMPAIGN_FUZZER_HH
#define WO_CAMPAIGN_FUZZER_HH

#include <string>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/spec.hh"
#include "common/sharded_set.hh"

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
    std::uint64_t
    noveltyCount() const
    {
        return verdicts_.size() + outcomes_.size();
    }

  private:
    std::vector<Cell> prototypes_; //!< one per corpus entry
    CampaignSpec cfg_;

    // fnv1a64 of each novelty key seen: a key's hash stands for it, as
    // in the journal's claim set.
    ShardedSet<std::uint64_t> outcomes_; //!< programId|sig
    ShardedSet<std::uint64_t> verdicts_; //!< familyId|verdict
};

} // namespace wo

#endif // WO_CAMPAIGN_FUZZER_HH
