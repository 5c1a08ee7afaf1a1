/**
 * @file
 * The per-layer groups of the traced runs.  Each workload's traced run
 * measures its own layers on its own inputs first; censusLayers() then
 * fills every per-layer metric still missing from small fixed inputs
 * drawn from the same seed, so every traced run reports the full set.
 * Report::metric keeps the first value under a name, which is what
 * gives a workload's own measurement precedence over the census.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "campaign/scheduler.hh"
#include "common.hh"

namespace pb {

/** Per-cell event budget of every run cell the benchmark issues. */
constexpr std::uint64_t cell_max_events = 200'000;

/** One runCampaign call with its host cost. */
struct CampaignRep
{
    wo::CampaignSummary sum;
    double wall_s = 0; //!< the call, as the caller waits for it
    Usage usage;       //!< process usage during the call
};

/** A run campaign over the base stream: frontier and shrink off. */
wo::CampaignCfg runCampaignCfg(const Args &args, std::uint64_t cells,
                               int jobs, const std::string &dir);

CampaignRep timedCampaign(const wo::CampaignCfg &cfg);

/** Append the wall times of @p reps empty campaigns of @p cfg's shape. */
void sampleCampaignSetup(wo::CampaignCfg cfg, int reps,
                         std::vector<double> &out);

/** Failed cells of a run campaign: hw, deadlock, livelock, error. */
std::uint64_t runCellFailures(const wo::CampaignSummary &s);

/** campaign.* and journal.writer_flush_frac from @p reps. */
void reportCampaignLayers(const std::vector<CampaignRep> &reps,
                          Report &rep);

/** The first @p n run cells of the base stream, one per distinct key. */
std::vector<wo::Cell> baseCells(const Args &args, std::uint64_t n);

/** What the traced cell driver observed. */
struct CellTrace
{
    double cells_per_sec = 0;
    std::string digest;        //!< runDigest of one pass over the cells
};

/**
 * The traced cell driver: @p threads closed-loop threads run @p cells
 * (whole passes, at least one, until @p seconds) with a span around
 * each layer call: materializeCell, the System constructor + warmShared,
 * run(), the destructor and Journal::appendCell.  Reports cell.*,
 * journal.append_us, sys.*, event.* and obs.monitor_share.
 */
CellTrace traceCellLayers(const Args &args,
                          const std::vector<wo::Cell> &cells, int threads,
                          double seconds, Report &rep);

/**
 * Call each verify engine directly on litmus-corpus x @p models pairs
 * (DPOR through the timing adapter, so explore.* is measured too).
 * Returns pairs per second.
 */
double traceVerifyLayers(const std::vector<std::string> &models,
                         std::size_t programs, int threads, Report &rep);

/** fleet.* over @p reps fleet campaigns of @p cells; returns cells/s. */
double traceFleetLayers(const Args &args, std::uint64_t cells, int reps,
                        Report &rep);

/** Fill every per-layer metric @p rep still lacks. */
void censusLayers(const Args &args, Report &rep);

/** The model flag names, rotated by the seed. */
std::vector<std::string> seedModels(const Args &args);

} // namespace pb

#endif // PERFBENCH_LAYERS_HH
