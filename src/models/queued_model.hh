/**
 * @file
 * The queued-write machine every relaxed model of Figure 1 and Section 5
 * is built on.
 *
 * The write-buffer, network, Definition-1 and DRF0 machines share one
 * mechanism.  A data write enters the issuing processor's pool and reaches
 * memory later, in a drain step of its own; a data read sees memory
 * or the processor's own pool; a synchronization operation acts on memory
 * atomically.  They differ only in *when* a queued write may drain and
 * *when* a read or a synchronization operation may proceed, so
 * QueuedModel<Derived, State> owns the state, the encoding, the rendering
 * and both successor generators, and a machine states only its rules as
 * hooks (each has a default, so a machine declares only where it
 * departs):
 *
 *     static constexpr bool fifo_drain = false;
 *         true: only the oldest write drains (a FIFO write buffer).
 *         false: the oldest write per location drains, in any order
 *         across locations (per-location write serialization, condition
 *         2 of Section 5.1).
 *
 *     static constexpr bool forwards_loads = true;
 *         true: a data read returns the youngest own queued write to its
 *         location (store forwarding), else memory, passing older writes.
 *         false: a read stalls while its processor has a queued write to
 *         the same location, and otherwise reads memory.
 *
 *     static constexpr const char *pool_name = "pending";
 *         what dump() calls a processor's pool.
 *
 *     bool syncEnabled(const State &, ProcId p, Addr a) const;
 *         may p's synchronization operation on a commit now?  Default:
 *         only once p's pool is empty (strongly ordered synchronization,
 *         Definition 1's condition 2).
 *
 *     void onSync(State &next, ProcId p, const Instruction &i) const;
 *     void onDrain(State &next, ProcId p, std::size_t k) const;
 *         extra effect of a committed synchronization operation, and of
 *         draining entry k of p's pool (already erased from @p next).
 *         Default: none.
 *
 *     template <typename Enc>
 *     void encodeExtra(const State &, Enc &) const;
 *     void dumpExtra(const State &, std::string &) const;
 *         encode and render whatever the machine's State adds to
 *         QueuedState.  Default: nothing.
 *
 * The skeleton never asks which machine it runs; the hooks are resolved
 * at compile time, as OpModel resolves drainSuccs.  A machine derives as
 * `class M : public QueuedModel<M>` (or `<M, MyState>` where MyState
 * extends QueuedState), declares `friend Base;` for its private hooks,
 * and keeps its name() and constructor.
 *
 * Pools are kept in issue order.  Because erasures preserve relative
 * order, the writes that were pending at any past instant always form a
 * *prefix* of the current pool -- which lets the DRF0 machine represent
 * "the accesses issued before synchronization operation S" as a plain
 * count (see WoDrf0Model), keeping states canonical and the explored
 * graph finite.  The stale-cache machine holds its broadcast inboxes in
 * the same PendingPool type but is not a queued machine: its stores
 * update every processor's copy.
 */

#ifndef WO_MODELS_QUEUED_MODEL_HH
#define WO_MODELS_QUEUED_MODEL_HH

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "models/inline_vec.hh"
#include "models/op_model.hh"

namespace wo {

/** One issued-but-unperformed data write. */
struct PendingWrite
{
    Addr addr;
    Value value;

    bool operator==(const PendingWrite &other) const = default;
};

/**
 * Inline entries of a pool: every model's default capacity, so a pool
 * spills only under a larger capacity.
 */
inline constexpr std::size_t inline_pool = 4;

/** A processor's pending-write pool, in issue order. */
using PendingPool = InlineVec<PendingWrite, inline_pool>;

/** Youngest pending value for @p addr, if any (store-to-load forwarding). */
inline std::optional<Value>
poolForward(const PendingPool &pool, Addr addr)
{
    for (std::size_t k = pool.size(); k-- > 0;)
        if (pool[k].addr == addr)
            return pool[k].value;
    return std::nullopt;
}

/** May entry @p k drain now? Only the oldest pending write per location. */
inline bool
poolMayDrain(const PendingPool &pool, std::size_t k)
{
    for (std::size_t j = 0; j < k; ++j)
        if (pool[j].addr == pool[k].addr)
            return false;
    return true;
}

/** Serialize a pool into a state encoding (StateEnc or HashEnc). */
template <typename Enc>
void
encodePool(Enc &enc, const PendingPool &pool)
{
    for (const auto &w : pool) {
        enc.put(w.addr);
        enc.put(w.value);
    }
    enc.sep();
}

/** Machine state of a queued machine. */
struct QueuedState
{
    ThreadVec threads;
    MemImage mem;
    InlineVec<PendingPool, inline_threads> pools; // per processor

    bool operator==(const QueuedState &other) const = default;
};

/** CRTP skeleton: @p Derived states the rules, this runs the machine. */
template <typename Derived, typename StateT = QueuedState>
class QueuedModel : public OpModel<Derived, StateT>
{
    using Op = OpModel<Derived, StateT>;
    friend Op;

  public:
    using typename Op::State;

    State
    initial() const
    {
        State s = this->startState();
        s.pools.resize(this->prog_.numThreads());
        return s;
    }

    bool
    isFinal(const State &s) const
    {
        for (const auto &pool : s.pools)
            if (!pool.empty())
                return false;
        return Op::allHalted(s);
    }

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, each processor's pool (separator-delimited), then the
     * machine's own additions.
     */
    template <typename Enc>
    void
    encodeInto(const State &s, Enc &enc) const
    {
        for (const auto &t : s.threads)
            enc.putThread(t);
        enc.sep();
        for (Value v : s.mem)
            enc.put(v);
        enc.sep();
        for (const auto &pool : s.pools)
            encodePool(enc, pool);
        self().encodeExtra(s, enc);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string
    dump(const State &s) const
    {
        std::string out = dumpThreadsAndMem(this->prog_, s.threads, s.mem);
        for (ProcId p = 0; p < s.pools.size(); ++p) {
            if (s.pools[p].empty())
                continue;
            out += strprintf("  P%u %s:", p, Derived::pool_name);
            for (const auto &w : s.pools[p])
                out += strprintf(" [%u]<-%lld", w.addr,
                                 static_cast<long long>(w.value));
            out += "\n";
        }
        self().dumpExtra(s, out);
        return out;
    }

    /** Locations @p p's queued writes will still write to memory. */
    void
    pendingAddrs(const State &s, ProcId p, std::vector<Addr> &out) const
    {
        for (const auto &w : s.pools[p])
            out.push_back(w.addr);
    }

  protected:
    /**
     * @param prog      the program (must outlive the model)
     * @param capacity  queued writes allowed per processor; a full pool
     *                  blocks new stores until an entry drains (keeps the
     *                  state space finite)
     */
    QueuedModel(const Program &prog, std::size_t capacity)
        : Op(prog), capacity_(capacity)
    {
        wo_assert(capacity_ > 0, "a queued machine needs capacity >= 1");
    }

    // The rules' defaults (see the file comment).
    static constexpr bool fifo_drain = false;
    static constexpr bool forwards_loads = true;
    static constexpr const char *pool_name = "pending";

    bool
    syncEnabled(const State &s, ProcId p, Addr) const
    {
        return s.pools[p].empty();
    }

    void onSync(State &, ProcId, const Instruction &) const {}
    void onDrain(State &, ProcId, std::size_t) const {}

    template <typename Enc>
    void encodeExtra(const State &, Enc &) const {}
    void dumpExtra(const State &, std::string &) const {}

  private:
    const Derived &self() const { return static_cast<const Derived &>(*this); }

    /**
     * Append @p p's instruction-step successor (if enabled) to @p out.
     * The successor is copied from @p s straight into its slot in
     * @p out and updated there.
     */
    template <typename Out>
    void
    instrSucc(const State &s, ProcId p, Out &out) const
    {
        const ThreadCtx &t = s.threads[p];
        if (t.halted)
            return;
        const ThreadCode &code = this->prog_.thread(p);
        const Instruction *i = currentAccess(code, t);
        switch (i->op) {
          case Opcode::load_data: {
            const auto fwd = poolForward(s.pools[p], i->addr);
            if (fwd && !Derived::forwards_loads)
                return; // behind its own queued write to the location
            State &next = out.emplace_back(instrLabel(p), s).state;
            completeAccess(code, next.threads[p],
                           fwd ? *fwd : s.mem[i->addr]);
            return;
          }
          case Opcode::store_data: {
            if (s.pools[p].size() >= capacity_)
                return; // pool full: wait for a drain
            State &next = out.emplace_back(instrLabel(p), s).state;
            next.pools[p].push_back(PendingWrite{i->addr, storeValue(*i, t)});
            completeAccess(code, next.threads[p], 0);
            return;
          }
          case Opcode::sync_load:
          case Opcode::sync_store:
          case Opcode::test_and_set: {
            if (!self().syncEnabled(s, p, i->addr))
                return;
            State &next = out.emplace_back(instrLabel(p), s).state;
            const Value old = next.mem[i->addr];
            if (i->writesMemory())
                next.mem[i->addr] = storeValue(*i, t);
            self().onSync(next, p, *i);
            completeAccess(code, next.threads[p], old);
            return;
          }
          default:
            wo_panic("unexpected opcode at access point: %s",
                     opcodeName(i->op));
        }
    }

    /**
     * Append @p p's drain successors to @p out; @p only restricts the
     * enumeration to drains of one location.  Only the oldest write per
     * location may drain, so (p, addr) uniquely names each drain edge.
     */
    template <typename Out>
    void
    drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
               Out &out) const
    {
        const PendingPool &pool = s.pools[p];
        const std::size_t n =
            Derived::fifo_drain ? std::min<std::size_t>(pool.size(), 1)
                                : pool.size();
        for (std::size_t k = 0; k < n; ++k) {
            if ((only && pool[k].addr != *only) || !poolMayDrain(pool, k))
                continue;
            const PendingWrite w = pool[k];
            State &next = out.emplace_back(drainLabel(p, w.addr), s).state;
            next.pools[p].erase(next.pools[p].begin() + k);
            next.mem[w.addr] = w.value;
            self().onDrain(next, p, k);
        }
    }

    std::size_t capacity_;
};

} // namespace wo

#endif // WO_MODELS_QUEUED_MODEL_HH
