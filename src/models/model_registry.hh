/**
 * @file
 * Name-keyed dispatch over the abstract operational models.
 *
 * Everything that takes a model on its surface -- `wotool explore`,
 * `wotool verify`, and the campaign's dual-engine verify cells -- spells
 * machines with the same short flag names.  This header is the single
 * source of truth for that list, so a model added here appears in the
 * CLI, the verify-cell stream and the docs table at once.
 *
 *   sc      the idealized sequentially consistent machine
 *   wb      bus + per-processor FIFO write buffer (Fig. 1)
 *   net     general network, per-location FIFO reordering
 *   stale   caches with delayed invalidations (broadcast inboxes)
 *   def1    weak ordering per Definition 1
 *   drf0    weak ordering w.r.t. DRF0 (Definition 2 hardware)
 *   drf0ro  drf0 with the Section-6 read-only synchronization refinement
 */

#ifndef WO_MODELS_MODEL_REGISTRY_HH
#define WO_MODELS_MODEL_REGISTRY_HH

#include <string>
#include <vector>

#include "models/network_model.hh"
#include "models/sc_model.hh"
#include "models/stale_cache_model.hh"
#include "models/wo_def1_model.hh"
#include "models/wo_drf0_model.hh"
#include "models/write_buffer_model.hh"
#include "program/program.hh"

namespace wo {

/** Every model flag name, in canonical display order. */
inline const std::vector<std::string> &
modelNames()
{
    static const std::vector<std::string> names = {
        "sc", "wb", "net", "stale", "def1", "drf0", "drf0ro"};
    return names;
}

/**
 * Does the machine @p name claim Definition 2 with respect to DRF0?
 * `drf0ro` claims it for the Section-6 read-only-sync refinement, which
 * classifies every program as DRF0 does (core/drf0_checker.hh).  The
 * paper's *counterexample* hardware (wb, net, stale) claims nothing:
 * its SC-subset misses are results, not bugs.
 */
inline bool
modelClaimsConformance(const std::string &name)
{
    return name == "sc" || name == "def1" || name == "drf0" ||
           name == "drf0ro";
}

/**
 * Instantiate the model @p name over @p prog and call @p fn with it.
 * Returns false (without calling @p fn) when the name is unknown.
 */
template <typename Fn>
bool
withModelByName(const Program &prog, const std::string &name, Fn &&fn)
{
    if (name == "sc") {
        ScModel m(prog);
        fn(m);
    } else if (name == "wb") {
        WriteBufferModel m(prog);
        fn(m);
    } else if (name == "net") {
        NetworkReorderModel m(prog);
        fn(m);
    } else if (name == "stale") {
        StaleCacheModel m(prog);
        fn(m);
    } else if (name == "def1") {
        WoDef1Model m(prog);
        fn(m);
    } else if (name == "drf0") {
        WoDrf0Model m(prog);
        fn(m);
    } else if (name == "drf0ro") {
        WoDrf0Model m(prog, 4, /*weak_sync_read=*/true);
        fn(m);
    } else {
        return false;
    }
    return true;
}

} // namespace wo

#endif // WO_MODELS_MODEL_REGISTRY_HH
