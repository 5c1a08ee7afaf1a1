/**
 * @file
 * Transition labels for the abstract operational models.
 *
 * Every model has one successor relation, `labeledSuccessors()`, which
 * names each outgoing edge with a TransLabel; `stepLabel()` follows a
 * single named edge.  Both are derived once by OpModel (op_model.hh) from
 * the model's per-processor generators.  The label identifies the
 * *transition*, not the target state, and is the unit the DPOR explorer
 * reasons about: sleep sets are sets of labels, and independence is
 * judged between labels by concretely commuting them.
 *
 * A label must be unique among the outgoing edges of any single state.
 * Two coordinates suffice for every model in this repository:
 *
 *   - (proc, instr):      processor `proc` performs the memory access its
 *                         thread currently sits at.  At most one per
 *                         processor per state.
 *   - (proc, drain, addr): a buffered/pending/in-flight effect owned by (or
 *                         destined for) `proc` becomes visible at `addr`.
 *                         Each model drains either only the oldest entry
 *                         (write buffer, stale-cache inbox) or the oldest
 *                         entry *per location* (network flights, pending
 *                         pools), so (proc, addr) never repeats in one
 *                         state's successor list.
 */

#ifndef WO_MODELS_TRANSITION_HH
#define WO_MODELS_TRANSITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace wo {

/** What kind of edge a TransLabel names. */
enum class TransKind : std::uint8_t {
    instr = 0, ///< a processor executes the access its thread sits at
    drain = 1, ///< a buffered write / flight / update becomes visible
};

/** Name of one outgoing transition of a model state. */
struct TransLabel
{
    ProcId proc = 0;
    TransKind kind = TransKind::instr;
    Addr addr = invalid_addr; ///< drain target location; unused for instr

    friend bool operator==(const TransLabel &a, const TransLabel &b)
    {
        return a.proc == b.proc && a.kind == b.kind && a.addr == b.addr;
    }

    friend bool operator<(const TransLabel &a, const TransLabel &b)
    {
        if (a.proc != b.proc)
            return a.proc < b.proc;
        if (a.kind != b.kind)
            return a.kind < b.kind;
        return a.addr < b.addr;
    }

    std::string toString() const
    {
        if (kind == TransKind::instr)
            return strprintf("P%u:instr", proc);
        return strprintf("P%u:drain@%u", proc, addr);
    }
};

/** Convenience constructors keeping model code terse. */
inline TransLabel
instrLabel(ProcId p)
{
    return TransLabel{p, TransKind::instr, invalid_addr};
}

inline TransLabel
drainLabel(ProcId p, Addr a)
{
    return TransLabel{p, TransKind::drain, a};
}

/** One labeled outgoing edge: the label plus the successor state. */
template <typename State>
struct LabeledSucc
{
    TransLabel label;
    State state;
};

} // namespace wo

#endif // WO_MODELS_TRANSITION_HH
