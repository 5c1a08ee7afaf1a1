/**
 * @file
 * Exhaustive state-space exploration over any abstract operational model.
 *
 * The explorer collects the set of observable Outcomes of the model's
 * final states.  The outcome *set* is the object the new definition of
 * weak ordering talks about: hardware "appears sequentially consistent"
 * to a program exactly when its outcome set is a subset of the SC
 * machine's outcome set for that program.
 *
 * Two engines share that contract:
 *
 *  - exploreOutcomesBfs: the naive visited-set BFS over the full state
 *    graph.  Simple, obviously correct, and the golden reference the
 *    equivalence suite holds the reduced engine to.
 *
 *  - exploreOutcomesDpor (the default): work-stealing depth-first search
 *    with *sleep sets* [Godefroid] and hashed-state deduplication.  Two
 *    transitions enabled in the same state are independent when executing
 *    them in either order is (a) possible and (b) lands in the identical
 *    state; a sleep set carries transitions whose subtrees are already
 *    covered by an equivalent interleaving, and exploring them again is
 *    skipped.  Independence is decided by *concretely commuting* the two
 *    transitions and comparing the resulting state keys -- never by a
 *    static footprint approximation.  That matters: in the stale-cache
 *    model two stores to different locations broadcast inbox updates
 *    whose arrival orders differ, so an addr-disjointness rule would
 *    wrongly commute them.  Concrete commutation is sound for any model
 *    by construction.  On top of the sleep sets, each state expands only
 *    one *persistent* component of processors: the program's residual
 *    footprints (program/footprint.hh) show which processors can never
 *    conflict again.
 *
 *    Hashed-state dedup: search nodes are (state, sleep set) pairs keyed
 *    by a 128-bit FNV pair streamed straight off the state bytes (no
 *    intermediate string; see HashEnc) with the sleep labels folded on
 *    top.  A node is explored exactly once no matter which worker, in
 *    which order, reaches it -- the explored set is a fixpoint of the
 *    transition relation, independent of scheduling.  That is what makes
 *    `jobs N` bit-identical to `jobs 1`: outcomes and the deterministic
 *    counters (states, transitions, sleep_pruned, revisit_pruned,
 *    commutation_probes) never depend on the interleaving of workers.
 *
 *    Parallelism (`ExploreCfg::jobs`): each worker owns a deque of
 *    self-contained tasks {state, sleep set, optional successor list};
 *    it pushes and pops its own tail (depth-first) and idle workers
 *    steal unexplored backtrack branches from another worker's head.
 *    The visited table is sharded (alignas(64), one mutex per shard).
 *    A task carries the successor list its parent already computed
 *    during commutation probing, so each state's successors are
 *    materialized once globally instead of once per probe plus once at
 *    expansion -- the single biggest cost in the old engine.
 *
 * Model concept (one successor relation, seen through labels):
 *     struct State;                         // copyable machine state
 *     State initial() const;
 *     bool isFinal(const State&) const;     // halted and quiescent
 *     std::vector<LabeledSucc<State>> labeledSuccessors(const State&) const;
 *     std::optional<State> stepLabel(const State&, const TransLabel&) const;
 *     Outcome outcome(const State&) const;  // defined for final states
 *     std::string encode(const State&) const; // injective (cold paths)
 *     StateHash hashState(const State&) const; // streamed key (hot path)
 *     const Program &program() const;
 *     void pendingAddrs(const State&, ProcId, std::vector<Addr>&) const;
 *     static const char *name();
 *     static constexpr bool stores_broadcast; // optional, default false
 *
 * Every model in src/models/ gets this concept from OpModel (op_model.hh):
 * it writes initial, isFinal, the per-processor generators instrSucc and
 * drainSuccs, encodeInto, pendingAddrs, dump and name, and inherits
 * labeledSuccessors, stepLabel, outcome, encode, hashState and program.
 * The four queued machines go one layer further through QueuedModel
 * (queued_model.hh), which writes all of the former for them from their
 * drain, load and synchronization rules.
 * Any other type meeting the concept (e.g. a timing wrapper) works too.
 */

#ifndef WO_MODELS_EXPLORER_HH
#define WO_MODELS_EXPLORER_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "execution/execution.hh"
#include "models/inline_vec.hh"
#include "models/state_enc.hh"
#include "models/transition.hh"
#include "program/footprint.hh"
#include "program/program.hh"

namespace wo {

/** Which exploration engine to run. */
enum class ExploreAlgo {
    dpor, ///< sleep-set DPOR with hashed-state dedup (default)
    bfs,  ///< naive visited-set BFS (golden reference)
};

/** Exploration limits. */
struct ExploreCfg
{
    /** Abort after visiting this many states (0 = unlimited). */
    std::uint64_t max_states = 5'000'000;

    /** Engine selection. */
    ExploreAlgo algo = ExploreAlgo::dpor;

    /**
     * Worker threads for the DPOR engine (results are bit-identical for
     * any value; BFS, the golden reference, ignores it and stays
     * single-threaded on purpose).
     */
    int jobs = 1;
};

/** What exploration found. */
struct ExploreResult
{
    std::set<Outcome> outcomes;   //!< outcomes of all reachable final states
    std::uint64_t states = 0;     //!< states visited (expansions)
    bool truncated = false;       //!< state budget hit: outcomes incomplete
    bool stuck = false;           //!< some non-final state had no successors

    std::uint64_t transitions = 0;    //!< edges executed
    std::uint64_t sleep_pruned = 0;   //!< edges skipped by sleep sets
    std::uint64_t revisit_pruned = 0; //!< re-entries deduplicated
    std::uint64_t commutation_probes = 0; //!< independence queries made
    /**
     * Always 0: the engine no longer memoizes commutation verdicts (a
     * per-worker memo answered under 2% of probes).  The field stays
     * because the repository benchmark reads it.
     */
    std::uint64_t memo_hits = 0;
    std::uint64_t visited_bytes = 0;  //!< approx. visited-table footprint

    /** Outcome set conclusively computed (neither truncated nor stuck)? */
    bool conclusive() const { return !truncated && !stuck; }

    /**
     * Schedule-independent equality: the fields the engine guarantees
     * bit-identical across jobs counts and across runs.  visited_bytes
     * (table size at the instant a truncated search stopped) is a
     * diagnostic, deliberately excluded, as is the unused memo_hits.
     */
    bool
    operator==(const ExploreResult &o) const
    {
        return outcomes == o.outcomes && states == o.states &&
               truncated == o.truncated && stuck == o.stuck &&
               transitions == o.transitions &&
               sleep_pruned == o.sleep_pruned &&
               revisit_pruned == o.revisit_pruned &&
               commutation_probes == o.commutation_probes;
    }

    /** True iff every outcome also appears in @p reference. */
    bool
    subsetOf(const ExploreResult &reference) const
    {
        for (const auto &o : outcomes)
            if (!reference.outcomes.count(o))
                return false;
        return true;
    }

    /** Outcomes in this result but not in @p reference. */
    std::set<Outcome>
    minus(const ExploreResult &reference) const
    {
        std::set<Outcome> extra;
        for (const auto &o : outcomes)
            if (!reference.outcomes.count(o))
                extra.insert(o);
        return extra;
    }
};

/** What witnessChain found. */
template <typename State>
struct WitnessPath
{
    std::vector<State> chain;       //!< initial state first; empty if none
    std::vector<TransLabel> labels; //!< labels[k] steps chain[k] to k + 1
    std::uint64_t states = 0;       //!< states tested
    bool truncated = false;         //!< the state budget cut the search
};

/**
 * Search for a shortest transition chain from the initial state to the
 * first state @p accept holds for (BFS with parent links).  A node keeps
 * only its parent and the label reaching it, so memory stays at the
 * visited keys of exploreOutcomesBfs; the chain is replayed through
 * Model::stepLabel once found.  Passing "final with outcome X" asks why
 * outcome X is possible -- the explanation a litmus investigation wants
 * (render the chain with Model::dump); the DRF0 checker passes "two
 * conflicting accesses are co-enabled".
 */
template <typename Model, typename Accept>
WitnessPath<typename Model::State>
witnessChain(const Model &model, Accept &&accept,
             const ExploreCfg &cfg = {})
{
    using State = typename Model::State;
    struct Node
    {
        std::size_t parent; // index into nodes; `root` for the initial
        TransLabel label;   // the transition from the parent
    };
    constexpr auto root = static_cast<std::size_t>(-1);
    std::vector<Node> nodes;
    std::unordered_set<std::string> visited;
    std::deque<std::pair<State, std::size_t>> frontier;
    WitnessPath<State> out;

    auto push = [&](State s, std::size_t parent, const TransLabel &label) {
        if (!visited.insert(model.encode(s)).second)
            return;
        nodes.push_back(Node{parent, label});
        frontier.emplace_back(std::move(s), nodes.size() - 1);
    };

    push(model.initial(), root, TransLabel{});
    while (!frontier.empty()) {
        if (cfg.max_states && out.states >= cfg.max_states) {
            out.truncated = true;
            break;
        }
        auto [s, at] = std::move(frontier.front());
        frontier.pop_front();
        ++out.states;
        if (accept(s)) {
            for (std::size_t n = at; nodes[n].parent != root;
                 n = nodes[n].parent)
                out.labels.push_back(nodes[n].label);
            std::reverse(out.labels.begin(), out.labels.end());
            out.chain.push_back(model.initial());
            for (const TransLabel &l : out.labels)
                out.chain.push_back(*model.stepLabel(out.chain.back(), l));
            return out;
        }
        for (auto &succ : model.labeledSuccessors(s))
            push(std::move(succ.state), at, succ.label);
    }
    return out;
}

/** Naive visited-set BFS: the golden reference engine. */
template <typename Model>
ExploreResult
exploreOutcomesBfs(const Model &model, const ExploreCfg &cfg = {})
{
    ExploreResult result;
    std::unordered_set<std::string> visited;
    std::deque<typename Model::State> frontier;

    auto push = [&](typename Model::State s) {
        std::string key = model.encode(s);
        if (visited.insert(std::move(key)).second)
            frontier.push_back(std::move(s));
    };

    push(model.initial());
    while (!frontier.empty()) {
        if (cfg.max_states && result.states >= cfg.max_states) {
            result.truncated = true;
            warn("%s: exploration truncated at %llu states", Model::name(),
                 static_cast<unsigned long long>(result.states));
            break;
        }
        typename Model::State s = std::move(frontier.front());
        frontier.pop_front();
        ++result.states;

        if (model.isFinal(s)) {
            result.outcomes.insert(model.outcome(s));
            continue;
        }
        auto succs = model.labeledSuccessors(s);
        if (succs.empty()) {
            // A non-final state with nothing enabled: the machine is stuck
            // (e.g. a deadlock in a blocking implementation model).
            result.stuck = true;
            continue;
        }
        result.transitions += succs.size();
        for (auto &n : succs)
            push(std::move(n.state));
    }
    return result;
}

namespace explorer_detail {

/** Fold a transition label's bytes into a running FNV pair. */
inline void
foldLabel(std::uint64_t &a, std::uint64_t &b, const TransLabel &l)
{
    auto fold = [&](const auto &v) {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (std::size_t i = 0; i < sizeof(v); ++i) {
            a = (a ^ p[i]) * 0x100000001b3ULL;
            b = (b ^ p[i]) * 0x00000100000001b3ULL ^ (b >> 47);
        }
    };
    fold(l.proc);
    fold(l.kind);
    fold(l.addr);
}

/**
 * Dedup key of a search node: the state hash with the (sorted) sleep-set
 * labels folded on top.  Exact-match dedup on this key makes the set of
 * explored nodes a schedule-independent fixpoint, which is what the
 * parallel engine's determinism guarantee rests on.
 */
inline StateHash
nodeKey(const StateHash &state, std::span<const TransLabel> sleep)
{
    std::uint64_t a = state.lo, b = state.hi;
    for (const TransLabel &l : sleep)
        foldLabel(a, b, l);
    return StateHash{a, b};
}

/**
 * Conservative over-approximation of everything one processor may still
 * do: the locations reachable code from its current pc may read/write
 * (plus locations its queued effects will write), and whether it may
 * still store or synchronize.  Used to split processors into conflict
 * components: two processors whose footprints are disjoint can never
 * influence each other again, so their transitions commute forever and
 * only one component needs expanding per state.  A *publishing*
 * synchronization read reserves its location in the DRF0 machine, so
 * every synchronization op counts as a write to its location (harmless
 * over-approximation elsewhere).
 */
struct ProcFoot
{
    std::uint64_t reads = 0;  //!< bit per Addr < 64
    std::uint64_t writes = 0; //!< bit per Addr < 64
    bool overflow = false;    //!< an Addr >= 64 appeared: conflict with all
    bool may_sync = false;    //!< a synchronization op is reachable
    bool writes_any = false;  //!< a store (or queued write) is reachable
};

/**
 * The ProcFoot of every (processor, pc) of @p prog, indexed [p][pc], read
 * off the program's residual footprint table.
 */
inline std::vector<std::vector<ProcFoot>>
codeFoots(const Program &prog)
{
    const Footprint fp(prog);
    std::vector<std::vector<ProcFoot>> out(prog.numThreads());
    for (ProcId p = 0; p < prog.numThreads(); ++p)
        for (Pc pc = 0; pc < prog.thread(p).size(); ++pc) {
            ProcFoot f;
            std::uint64_t low[3] = {}, any[3] = {};
            for (std::size_t k = 0; k < 3; ++k) {
                // Word 0 holds locations 0..63; a bit in a later word is
                // an overflow.
                const auto set = fp.set(p, pc, Footprint::Kind(k));
                std::uint64_t high = 0;
                for (std::size_t w = 1; w < set.size(); ++w)
                    high |= set[w];
                low[k] = set.empty() ? 0 : set[0];
                any[k] = low[k] | high;
                f.overflow = f.overflow || high != 0;
            }
            f.reads = low[Footprint::reads];
            f.writes = low[Footprint::writes] | low[Footprint::syncs];
            f.writes_any = any[Footprint::writes] != 0;
            f.may_sync = any[Footprint::syncs] != 0;
            out[p].push_back(f);
        }
    return out;
}

/**
 * May processors with footprints @p a and @p b still influence each
 * other?  In a broadcast model (stale-cache: stores update every inbox,
 * barriers wait on every inbox) any writer or synchronizer conflicts
 * with everyone; elsewhere a conflict needs a shared location with at
 * least one writer.
 */
inline bool
footsConflict(const ProcFoot &a, const ProcFoot &b, bool broadcast)
{
    if (broadcast)
        return a.writes_any || a.may_sync || b.writes_any || b.may_sync;
    if (a.overflow || b.overflow)
        return true;
    return ((a.writes & (b.reads | b.writes)) | (b.writes & a.reads)) != 0;
}

template <typename Model>
constexpr bool
modelBroadcasts()
{
    if constexpr (requires { Model::stores_broadcast; })
        return Model::stores_broadcast;
    else
        return false;
}

/**
 * The work-stealing sleep-set DPOR engine.  One instance per
 * exploration; `jobs <= 1` runs the identical task machinery inline on
 * the calling thread, so there is exactly one code path to trust.
 */
template <typename Model>
class DporEngine
{
  public:
    DporEngine(const Model &model, const ExploreCfg &cfg)
        : model_(model), cfg_(cfg),
          jobs_(cfg.jobs > 1 ? static_cast<unsigned>(cfg.jobs) : 1u),
          code_foot_(codeFoots(model.program())), visited_(visit_shards),
          slots_(jobs_), workers_(jobs_)
    {
        for (unsigned i = 0; i < jobs_; ++i)
            workers_[i].id = i;
    }

    ExploreResult
    run()
    {
        spawn(0, model_.initial(), Sleep{}, std::nullopt);
        if (jobs_ == 1) {
            workerLoop(workers_[0]);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(jobs_);
            for (unsigned i = 0; i < jobs_; ++i)
                threads.emplace_back(
                    [this, i] { workerLoop(workers_[i]); });
            for (auto &t : threads)
                t.join();
        }
        return merge();
    }

  private:
    using State = typename Model::State;
    using Succs = std::vector<LabeledSucc<State>>;
    // A sleep set holds labels enabled at one state: an instr and a
    // drain per processor fit inline for the corpus's 4 threads.
    using Sleep = InlineVec<TransLabel, 8>;

    /**
     * A self-contained unit of work: enter `state` with `sleep` asleep.
     * `succs` carries the successor list the parent already materialized
     * for its commutation probes, if any, so it is never computed twice.
     */
    struct Task
    {
        State state;
        Sleep sleep;
        std::optional<Succs> succs;
    };

    /** A child expand() will spawn: succs[at], entered with `sleep`. */
    struct Child
    {
        std::size_t at;
        Sleep sleep;
    };

    static constexpr std::size_t visit_shards = 64;

    /**
     * One visited-set shard: an open-addressing table of 128-bit node
     * keys (linear probing, power-of-two size, grown at 1/2 load).
     * Unlike the node-based std::unordered_set it replaces, inserting
     * allocates nothing except on growth, and the keys sit contiguous
     * for the probe walk.  The all-zero key doubles as the empty-slot
     * marker and gets a dedicated flag.
     */
    struct alignas(64) VisitShard
    {
        std::mutex mu;
        std::vector<StateHash> slots;
        std::size_t used = 0;
        bool zero_present = false;

        /** True if @p k was absent and is now recorded. */
        bool
        insert(const StateHash &k)
        {
            if (!k.lo && !k.hi) {
                if (zero_present)
                    return false;
                zero_present = true;
                ++used;
                return true;
            }
            if ((used + 1) * 2 > slots.size())
                grow();
            std::size_t i = StateHashHash{}(k) & (slots.size() - 1);
            while (slots[i].lo || slots[i].hi) {
                if (slots[i] == k)
                    return false;
                i = (i + 1) & (slots.size() - 1);
            }
            slots[i] = k;
            ++used;
            return true;
        }

        /** Actual table footprint, for ExploreResult::visited_bytes. */
        std::size_t
        bytes() const
        {
            return slots.size() * sizeof(StateHash);
        }

      private:
        void
        grow()
        {
            std::vector<StateHash> old(slots.empty() ? 64
                                                     : slots.size() * 2);
            old.swap(slots);
            for (const StateHash &k : old) {
                if (!k.lo && !k.hi)
                    continue;
                std::size_t i = StateHashHash{}(k) & (slots.size() - 1);
                while (slots[i].lo || slots[i].hi)
                    i = (i + 1) & (slots.size() - 1);
                slots[i] = k;
            }
        }
    };

    /**
     * A worker's pending tasks.  The owner pushes and pops at the back;
     * thieves take from `head`.  A vector, not a std::deque: a Task
     * holds its state inline, and std::deque would allocate a node for
     * each one.  The stolen prefix is compacted away as pushes arrive.
     */
    struct alignas(64) WorkerSlot
    {
        std::mutex mu;
        std::vector<Task> dq;
        std::size_t head = 0; // dq[0, head) was stolen
    };

    /** Per-worker partial result and scratch; merged after the join. */
    struct alignas(64) Worker
    {
        unsigned id = 0;
        std::set<Outcome> outcomes;
        std::uint64_t transitions = 0;
        std::uint64_t sleep_pruned = 0;
        std::uint64_t revisit_pruned = 0;
        std::uint64_t commutation_probes = 0;
        // persistentFilter scratch, reused across nodes (no per-node
        // allocation).
        std::vector<ProcFoot> foot;
        std::vector<char> active;
        std::vector<Addr> queued;
        std::vector<ProcId> uf_parent;
        std::vector<std::uint32_t> uf_count;
        // expand() scratch, likewise reused across nodes: the children's
        // successor lists (keyed by the label reaching them), the
        // children to spawn, the labels expanded so far and one child's
        // sleep set.
        std::vector<std::pair<TransLabel, Succs>> child_succs;
        std::vector<Child> children;
        Sleep done;
        Sleep child_sleep;
    };

    /** Queue a task on worker @p id, built in place in its slot. */
    void
    spawn(unsigned id, State &&state, const Sleep &sleep,
          std::optional<Succs> &&succs)
    {
        outstanding_.fetch_add(1, std::memory_order_relaxed);
        WorkerSlot &s = slots_[id];
        std::lock_guard<std::mutex> g(s.mu);
        if (s.head > 0 && 2 * s.head >= s.dq.size()) {
            // Drop the stolen prefix once it is half the queue: this
            // moves fewer tasks than were stolen since the last time.
            s.dq.erase(s.dq.begin(),
                       s.dq.begin() + static_cast<std::ptrdiff_t>(s.head));
            s.head = 0;
        }
        s.dq.emplace_back(std::move(state), sleep, std::move(succs));
    }

    bool
    popLocal(unsigned id, Task &out)
    {
        WorkerSlot &s = slots_[id];
        std::lock_guard<std::mutex> g(s.mu);
        if (s.dq.size() == s.head)
            return false;
        out = std::move(s.dq.back());
        s.dq.pop_back();
        if (s.dq.size() == s.head) {
            s.dq.clear();
            s.head = 0;
        }
        return true;
    }

    bool
    steal(unsigned id, Task &out)
    {
        for (unsigned i = 1; i < jobs_; ++i) {
            WorkerSlot &s = slots_[(id + i) % jobs_];
            std::lock_guard<std::mutex> g(s.mu);
            if (s.dq.size() == s.head)
                continue;
            // Steal the oldest (root-most) unexplored backtrack branch:
            // the biggest subtree, touched least recently by its owner.
            out = std::move(s.dq[s.head++]);
            if (s.dq.size() == s.head) {
                s.dq.clear();
                s.head = 0;
            }
            return true;
        }
        return false;
    }

    void
    workerLoop(Worker &w)
    {
        Task t;
        for (;;) {
            if (popLocal(w.id, t) || steal(w.id, t)) {
                runTask(t, w);
                outstanding_.fetch_sub(1, std::memory_order_acq_rel);
                continue;
            }
            if (outstanding_.load(std::memory_order_acquire) == 0)
                break;
            std::this_thread::yield();
        }
    }

    void
    runTask(Task &t, Worker &w)
    {
        if (truncated_.load(std::memory_order_relaxed))
            return; // a tripped budget ends the search; drain fast

        const bool is_final = model_.isFinal(t.state);
        if (is_final)
            t.sleep.clear(); // final states carry no transitions to skip

        const StateHash key = nodeKey(model_.hashState(t.state), t.sleep);
        {
            VisitShard &shard =
                visited_[static_cast<std::size_t>(key.lo) % visit_shards];
            std::lock_guard<std::mutex> g(shard.mu);
            if (!shard.insert(key)) {
                // Exactly one worker wins each node; everyone else is a
                // re-entry.
                ++w.revisit_pruned;
                return;
            }
        }
        if (cfg_.max_states) {
            const std::uint64_t n =
                states_.fetch_add(1, std::memory_order_relaxed);
            if (n >= cfg_.max_states) {
                truncated_.store(true, std::memory_order_relaxed);
                return;
            }
        } else {
            states_.fetch_add(1, std::memory_order_relaxed);
        }

        if (is_final) {
            w.outcomes.insert(model_.outcome(t.state));
            return;
        }
        Succs succs = t.succs ? std::move(*t.succs)
                              : model_.labeledSuccessors(t.state);
        if (succs.empty()) {
            stuck_.store(true, std::memory_order_relaxed);
            return;
        }
        persistentFilter(t.state, succs, w);
        expand(t.sleep, std::move(succs), w);
    }

    /**
     * Persistent-set reduction: split the processors into components
     * that may still influence each other (conservative future
     * footprints) and keep only the cheapest component's transitions.
     * Processors in other components commute with everything the chosen
     * component will ever do, so delaying them to a canonical later
     * point loses no final state.
     */
    void
    persistentFilter(const State &s, Succs &succs, Worker &w)
    {
        const ProcId n = model_.program().numThreads();
        if (n <= 1 || succs.size() <= 1)
            return;
        constexpr bool broadcast = modelBroadcasts<Model>();
        auto &foot = w.foot;
        auto &active = w.active;
        foot.assign(n, ProcFoot{});
        active.assign(n, 0);
        for (ProcId p = 0; p < n; ++p) {
            const auto &t = s.threads[p];
            if (!t.halted) {
                active[p] = 1;
                foot[p] = code_foot_[p][t.pc];
            }
            w.queued.clear();
            model_.pendingAddrs(s, p, w.queued);
            for (Addr a : w.queued) {
                if (a < 64)
                    foot[p].writes |= std::uint64_t{1} << a;
                else
                    foot[p].overflow = true;
                foot[p].writes_any = true;
                active[p] = 1;
            }
        }
        for (const auto &ls : succs)
            active[ls.label.proc] = 1; // e.g. pending inbox deliveries
        // Union-find over conflicting active processors.
        auto &parent = w.uf_parent;
        parent.resize(n);
        for (ProcId p = 0; p < n; ++p)
            parent[p] = p;
        auto find = [&](ProcId p) {
            while (parent[p] != p)
                p = parent[p] = parent[parent[p]];
            return p;
        };
        for (ProcId p = 0; p < n; ++p) {
            if (!active[p])
                continue;
            for (ProcId q = p + 1; q < n; ++q) {
                if (!active[q] ||
                    !footsConflict(foot[p], foot[q], broadcast))
                    continue;
                parent[find(p)] = find(q);
            }
        }
        // Cheapest component with at least one enabled transition wins.
        auto &count = w.uf_count;
        count.assign(n, 0);
        for (const auto &ls : succs)
            ++count[find(ls.label.proc)];
        ProcId best = invalid_proc;
        for (ProcId p = 0; p < n; ++p) {
            const ProcId r = find(p);
            if (r == p && count[r] > 0 &&
                (best == invalid_proc || count[r] < count[best]))
                best = r;
        }
        if (best == invalid_proc || count[best] == succs.size())
            return;
        std::erase_if(succs, [&](const LabeledSucc<State> &ls) {
            return find(ls.label.proc) != best;
        });
    }

    /**
     * Compute every child node of a state from its successors @p succs
     * in label order -- the same order the sequential DFS explored
     * them, so the per-child sleep sets (and with them the whole
     * explored fixpoint) are independent of worker scheduling -- then
     * spawn the children as tasks, handing each one the successor list
     * its probes already materialized.
     */
    void
    expand(const Sleep &sleep, Succs succs, Worker &w)
    {
        // Successor lists of this node's children, keyed by the label
        // that reaches them; shared by every commutation probe and then
        // donated to the child tasks.  A flat array beats a map here:
        // the branching factor is small, and every key is a label of
        // `succs` (probes only chase enabled transitions), so reserving
        // once means no reallocation and stable references throughout.
        auto &child_succs = w.child_succs;
        child_succs.clear();
        child_succs.reserve(succs.size());
        auto cachedSuccs = [&](const TransLabel &l) -> Succs * {
            for (auto &entry : child_succs)
                if (entry.first == l)
                    return &entry.second;
            return nullptr;
        };
        auto childSuccsOf = [&](const TransLabel &l,
                                const State &st) -> const Succs & {
            if (const Succs *have = cachedSuccs(l))
                return *have;
            return child_succs.emplace_back(l, model_.labeledSuccessors(st))
                .second;
        };
        auto findLabel = [](const Succs &list,
                            const TransLabel &l) -> const State * {
            for (const auto &ls : list)
                if (ls.label == l)
                    return &ls.state;
            return nullptr;
        };

        auto &children = w.children;
        children.clear();
        Sleep &done = w.done; // labels already expanded from here, in order
        done.clear();

        for (std::size_t at = 0; at < succs.size(); ++at) {
            const TransLabel label = succs[at].label;
            if (std::binary_search(sleep.begin(), sleep.end(), label)) {
                // Asleep: an equivalent interleaving already covers this
                // subtree.
                ++w.sleep_pruned;
                continue;
            }
            ++w.transitions;
            const State &child = succs[at].state;

            // Transitions that stay asleep in the child: everything
            // asleep here (or already expanded from here) that
            // concretely commutes with the chosen label.
            Sleep &child_sleep = w.child_sleep;
            child_sleep.clear();
            auto considerSleeper = [&](const TransLabel &t) {
                if (t == label)
                    return;
                ++w.commutation_probes;
                // t is enabled here and must stay enabled after the
                // chosen label (whose list is materialized anyway: it is
                // donated to the spawned child)...
                const State *s_t = findLabel(succs, t);
                const State *s_lt =
                    s_t ? findLabel(childSuccsOf(label, child), t) : nullptr;
                if (!s_lt)
                    return;
                // ...and the chosen label after t.  When t is asleep its
                // child is never expanded from this frame, so don't
                // materialize that child's whole successor list; chase
                // the single (t, label) edge instead -- unless a probe
                // for an expanded sibling already paid for the list.
                // Both orders must land in the identical state (direct
                // comparison: exact, allocation-free, and with early
                // exit on the first differing field).
                if (const Succs *have = cachedSuccs(t)) {
                    const State *s_tl = findLabel(*have, label);
                    if (s_tl && *s_lt == *s_tl)
                        child_sleep.push_back(t);
                } else if (const auto s_tl = model_.stepLabel(*s_t, label);
                           s_tl && *s_lt == *s_tl) {
                    child_sleep.push_back(t);
                }
            };
            for (const TransLabel &t : sleep)
                considerSleeper(t);
            for (const TransLabel &t : done)
                considerSleeper(t);
            std::sort(child_sleep.begin(), child_sleep.end());
            child_sleep.erase(
                std::unique(child_sleep.begin(), child_sleep.end()),
                child_sleep.end());

            done.push_back(label);
            children.push_back(Child{at, child_sleep});
        }

        // Spawn in reverse: the local deque is LIFO, so the first child
        // is popped first, matching the sequential DFS order (and its
        // memory profile).  Stealers take from the other end.
        for (std::size_t i = children.size(); i-- > 0;) {
            const Child &c = children[i];
            // Each label spawns at most once, so donating by move
            // without erasing is safe.
            std::optional<Succs> carried;
            if (Succs *have = cachedSuccs(succs[c.at].label))
                carried.emplace(std::move(*have));
            spawn(w.id, std::move(succs[c.at].state), c.sleep,
                  std::move(carried));
        }
    }

    ExploreResult
    merge()
    {
        ExploreResult result;
        const std::uint64_t claimed =
            states_.load(std::memory_order_relaxed);
        result.states = cfg_.max_states
                            ? std::min(claimed, cfg_.max_states)
                            : claimed;
        result.truncated = truncated_.load(std::memory_order_relaxed);
        result.stuck = stuck_.load(std::memory_order_relaxed);
        for (Worker &w : workers_) {
            result.outcomes.insert(w.outcomes.begin(), w.outcomes.end());
            result.transitions += w.transitions;
            result.sleep_pruned += w.sleep_pruned;
            result.revisit_pruned += w.revisit_pruned;
            result.commutation_probes += w.commutation_probes;
        }
        for (VisitShard &shard : visited_)
            result.visited_bytes += shard.bytes();
        return result;
    }

    const Model &model_;
    const ExploreCfg &cfg_;
    const unsigned jobs_;
    // Footprint of the code reachable from each (processor, pc).
    const std::vector<std::vector<ProcFoot>> code_foot_;

    std::vector<VisitShard> visited_;
    std::vector<WorkerSlot> slots_;
    std::vector<Worker> workers_;

    // One cache line each: every task reads truncated_, and every
    // state and task updates states_ and outstanding_ from any worker;
    // sharing a line would make each of those reads a miss.
    alignas(64) std::atomic<std::uint64_t> states_{0};
    alignas(64) std::atomic<std::uint64_t> outstanding_{0};
    alignas(64) std::atomic<bool> truncated_{false};
    alignas(64) std::atomic<bool> stuck_{false};
};

} // namespace explorer_detail

/**
 * Sleep-set DPOR with hashed-node deduplication and work stealing.
 * Explores a sound subset of the BFS transition graph that still reaches
 * every final state (the equivalence suite asserts outcome sets are
 * bit-identical to exploreOutcomesBfs across programs x models x jobs).
 */
template <typename Model>
ExploreResult
exploreOutcomesDpor(const Model &model, const ExploreCfg &cfg = {})
{
    explorer_detail::DporEngine<Model> engine(model, cfg);
    ExploreResult result = engine.run();
    if (result.truncated)
        warn("%s: DPOR exploration truncated at %llu states", Model::name(),
             static_cast<unsigned long long>(result.states));
    return result;
}

/** Exhaustively explore @p model and collect final-state outcomes. */
template <typename Model>
ExploreResult
exploreOutcomes(const Model &model, const ExploreCfg &cfg = {})
{
    return cfg.algo == ExploreAlgo::bfs ? exploreOutcomesBfs(model, cfg)
                                        : exploreOutcomesDpor(model, cfg);
}

} // namespace wo

#endif // WO_MODELS_EXPLORER_HH
