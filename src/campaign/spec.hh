/**
 * @file
 * The campaign specification: *what* a campaign runs, independent of
 * where it runs.
 *
 * The deterministic base stream (fuzzer.hh) is a pure function of
 * (seed, index), so this spec plus a list of base indices identifies a
 * unit of work exactly.  One struct serves every producer and consumer:
 * the in-process engine (CampaignCfg derives from it and adds only
 * local-run knobs), the fuzz frontier, a fleet client's submit, every
 * lease a coordinator grants, and the header line of every campaign
 * journal, through the one JSON codec below.
 */

#ifndef WO_CAMPAIGN_SPEC_HH
#define WO_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sys/policy.hh"

namespace wo {

/** The portable description of one campaign. */
struct CampaignSpec
{
    std::uint64_t seed = 1;    //!< base-stream / mutation seed
    std::uint64_t cells = 200; //!< cell budget (includes resumed skips)
    std::vector<OrderingPolicy> policies = {
        OrderingPolicy::sc, OrderingPolicy::wo_def1,
        OrderingPolicy::wo_drf0};
    std::vector<std::string> program_files; //!< extra .wo corpus
    std::uint64_t max_events = 300'000;     //!< per-cell livelock budget
    bool shrink = true;                     //!< minimize hw failures
    std::uint64_t shrink_max_runs = 500;
    bool inject_reserve_bug = false;        //!< seeded-fault campaign

    /**
     * Verify campaign: the base stream enumerates verify cells (program
     * x model, judged by the dual-engine verifier of verify.hh) instead
     * of run cells (program x policy x timing).  Engine disagreements
     * and broken Definition-2 subset claims become shrunk reproducers
     * through the same failure pipeline as monitor findings.
     */
    bool verify = false;
    /** Models verify cells cross with; empty = every registered one. */
    std::vector<std::string> verify_models;
    std::uint64_t max_states = 200'000; //!< per-engine verify budget
    /**
     * DPOR threads inside each verify cell.  Results are bit-identical
     * at any value, so it stays out of cell keys and the journal.
     */
    int explore_jobs = 1;
    bool inject_axiom_bug = false; //!< seeded axiomatic-evaluator fault
};

/** Encode @p spec as the wire / journal-header JSON object. */
Json campaignSpecToJson(const CampaignSpec &spec);

/**
 * Decode a spec object (tolerates absent members; an empty policy list
 * becomes the campaign trio).  False with @p error set when a present
 * member is malformed (unknown policy or model name, zero cells, ...).
 */
bool campaignSpecFromJson(const Json &j, CampaignSpec &out,
                          std::string *error);

/** Split a comma list ("sc,drf0"), dropping empty pieces. */
std::vector<std::string> splitCommas(const std::string &text);

} // namespace wo

#endif // WO_CAMPAIGN_SPEC_HH
