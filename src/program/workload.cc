#include "workload.hh"

#include <algorithm>

#include "common/random.hh"
#include "common/text.hh"
#include "program/builder.hh"

namespace wo {

Program
randomDrf0Program(const Drf0WorkloadCfg &cfg)
{
    Rng rng(cfg.seed);
    const Addr locks_base = 0;
    const Addr data_base = cfg.regions;
    const Addr private_base = data_base + cfg.regions * cfg.locs_per_region;

    ProgramBuilder b(numbered("drf0-rand-s", cfg.seed), cfg.procs);
    // Unique value per store so reads identify their writer exactly.
    Value next_value = 1;

    for (ProcId p = 0; p < cfg.procs; ++p) {
        auto &t = b.thread(p);
        const Addr my_private = private_base + p * cfg.private_locs;
        for (int s = 0; s < cfg.sections; ++s) {
            // Private work before the section.
            for (int k = 0; k < cfg.private_ops; ++k) {
                if (cfg.private_locs == 0)
                    break;
                Addr a = my_private +
                         static_cast<Addr>(rng.below(cfg.private_locs));
                if (rng.chance(1, 2))
                    t.load(static_cast<RegId>(rng.below(4)), a);
                else
                    t.store(a, next_value++);
                if (cfg.work_cycles > 0)
                    t.work(cfg.work_cycles);
            }
            // One critical section on a random region.
            Addr region = static_cast<Addr>(rng.below(cfg.regions));
            Addr lock = locks_base + region;
            Addr rdata = data_base + region * cfg.locs_per_region;
            if (cfg.test_and_tas)
                t.acquire(lock);
            else
                t.acquireTasOnly(lock);
            for (int k = 0; k < cfg.ops_per_section; ++k) {
                Addr a = rdata +
                         static_cast<Addr>(rng.below(cfg.locs_per_region));
                if (rng.chance(1, 2))
                    t.load(static_cast<RegId>(rng.below(4)), a);
                else
                    t.store(a, next_value++);
                if (cfg.work_cycles > 0)
                    t.work(cfg.work_cycles);
            }
            t.release(lock);
        }
        t.halt();
    }
    for (Addr r = 0; r < cfg.regions; ++r)
        b.nameLocation(locks_base + r, numbered("L", r));
    return b.build();
}

Program
randomRacyProgram(const RacyWorkloadCfg &cfg)
{
    Rng rng(cfg.seed);
    ProgramBuilder b(numbered("racy-rand-s", cfg.seed), cfg.procs);
    Value next_value = 1;
    for (ProcId p = 0; p < cfg.procs; ++p) {
        auto &t = b.thread(p);
        for (int k = 0; k < cfg.ops_per_thread; ++k) {
            Addr a = static_cast<Addr>(rng.below(cfg.locs));
            if (rng.chance(1, 2))
                t.load(static_cast<RegId>(k % 8), a);
            else
                t.store(a, next_value++);
        }
        t.halt();
    }
    return b.build();
}

namespace {

/** Nudge @p v by +/-1 within [lo, hi]. */
template <typename T>
T
nudge(T v, T lo, T hi, Rng &rng)
{
    long long next =
        static_cast<long long>(v) + (rng.chance(1, 2) ? 1 : -1);
    next = std::max(next, static_cast<long long>(lo));
    next = std::min(next, static_cast<long long>(hi));
    return static_cast<T>(next);
}

} // namespace

Drf0WorkloadCfg
mutateDrf0Cfg(const Drf0WorkloadCfg &base, Rng &rng)
{
    Drf0WorkloadCfg cfg = base;
    switch (rng.below(8)) {
      case 0:
        cfg.procs = nudge<ProcId>(cfg.procs, 2, 4, rng);
        break;
      case 1:
        cfg.regions = nudge<Addr>(cfg.regions, 1, 3, rng);
        break;
      case 2:
        cfg.locs_per_region = nudge<Addr>(cfg.locs_per_region, 1, 3, rng);
        break;
      case 3:
        cfg.private_locs = nudge<Addr>(cfg.private_locs, 0, 2, rng);
        break;
      case 4:
        cfg.sections = nudge(cfg.sections, 1, 3, rng);
        break;
      case 5:
        cfg.ops_per_section = nudge(cfg.ops_per_section, 1, 4, rng);
        break;
      case 6:
        cfg.test_and_tas = !cfg.test_and_tas;
        break;
      default:
        cfg.work_cycles = nudge<Value>(cfg.work_cycles, 0, 3, rng);
        break;
    }
    cfg.seed = rng.next();
    return cfg;
}

RacyWorkloadCfg
mutateRacyCfg(const RacyWorkloadCfg &base, Rng &rng)
{
    RacyWorkloadCfg cfg = base;
    switch (rng.below(3)) {
      case 0:
        cfg.procs = nudge<ProcId>(cfg.procs, 2, 4, rng);
        break;
      case 1:
        cfg.locs = nudge<Addr>(cfg.locs, 1, 3, rng);
        break;
      default:
        cfg.ops_per_thread = nudge(cfg.ops_per_thread, 1, 6, rng);
        break;
    }
    cfg.seed = rng.next();
    return cfg;
}

Program
syntheticMix(ProcId procs, Addr data_locs, Addr sync_locs, int ops,
             int sync_pct, Value work_cycles, std::uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b(strprintf("mix-%d%%sync", sync_pct), procs);
    Value next_value = 1;
    for (ProcId p = 0; p < procs; ++p) {
        auto &t = b.thread(p);
        for (int k = 0; k < ops; ++k) {
            bool is_sync = sync_locs > 0 &&
                           rng.chance(static_cast<std::uint64_t>(sync_pct),
                                      100);
            if (is_sync) {
                Addr a = data_locs + static_cast<Addr>(rng.below(sync_locs));
                switch (rng.below(3)) {
                  case 0:
                    t.syncLoad(static_cast<RegId>(k % 8), a);
                    break;
                  case 1:
                    t.syncStore(a, next_value++);
                    break;
                  default:
                    t.testAndSet(static_cast<RegId>(k % 8), a);
                    break;
                }
            } else {
                Addr a = static_cast<Addr>(rng.below(data_locs));
                if (rng.chance(1, 2))
                    t.load(static_cast<RegId>(k % 8), a);
                else
                    t.store(a, next_value++);
            }
            if (work_cycles > 0)
                t.work(work_cycles);
        }
        t.halt();
    }
    return b.build();
}

} // namespace wo
