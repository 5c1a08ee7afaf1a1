/**
 * @file
 * Event-kernel throughput of the calendar/bucket queue, on (a) a
 * synthetic self-rescheduling event mesh that isolates the queue itself
 * and (b) a full-system run where the kernel is one cost among caches,
 * directory and interconnect.  The artifact records events/sec and
 * simulated ticks/sec, so CI can hold the hot path to its trajectory.
 */

#include <chrono>
#include <cstdio>

#include "common/table.hh"
#include "event/event_queue.hh"
#include "obs/artifact.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace wo {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * The synthetic mesh: eight self-rescheduling chains with mixed
 * short/medium delays, same-tick collisions and occasional hops past
 * the bucket-wheel window -- the same traffic shape the allocation
 * audit uses, scaled up to benchmark length.
 */
struct MicroResult
{
    double wall_s = 0;
    std::uint64_t events = 0;
    double events_per_sec = 0;
};

MicroResult
microBench(std::uint64_t events)
{
    EventQueue q;

    struct Chain
    {
        EventQueue *q;
        std::uint64_t *remaining;
        std::uint64_t rng;

        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const Tick delay =
                (rng % 97 == 0) ? 5000 + rng % 3000 : rng % 24;
            q->schedule(delay, "chain", *this);
        }
    };

    static std::uint64_t budgets[8];
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < 8; ++c) {
        budgets[c] = events / 8;
        Chain chain{&q, &budgets[c], 0x9e3779b97f4a7c15ULL * (c + 1)};
        q.schedule(static_cast<Tick>(c), "seed", chain);
    }
    q.runAll(events + 64);

    MicroResult r;
    r.wall_s = secondsSince(t0);
    r.events = q.executed();
    r.events_per_sec = r.wall_s > 0 ? r.events / r.wall_s : 0.0;
    return r;
}

/** A full-system run: contended locked counters, repeated. */
struct SysResult
{
    double wall_s = 0;
    std::uint64_t events = 0;
    Tick ticks = 0;
    double events_per_sec = 0;
    double ticks_per_sec = 0;
};

SysResult
sysBench(int repeats)
{
    Program p = litmus::lockedCounter(4, 40);
    SysResult r;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < repeats; ++i) {
        SystemCfg cfg;
        cfg.policy = OrderingPolicy::wo_drf0;
        cfg.net.jitter = 3;
        cfg.net.seed = 7 + i;
        System sys(p, cfg);
        SystemResult res = sys.run();
        if (!res.completed)
            wo_panic("bench_kernel: locked counter did not complete");
        r.events += sys.eventQueue().executed();
        r.ticks += sys.eventQueue().now();
    }
    r.wall_s = secondsSince(t0);
    r.events_per_sec = r.wall_s > 0 ? r.events / r.wall_s : 0.0;
    r.ticks_per_sec = r.wall_s > 0 ? r.ticks / r.wall_s : 0.0;
    return r;
}

} // namespace
} // namespace wo

int
main()
{
    using namespace wo;

    constexpr std::uint64_t micro_events = 4'000'000;
    constexpr int sys_repeats = 60;

    std::printf("== event-kernel throughput ==\n");
    // Warm the allocator and caches once, unmeasured.
    microBench(micro_events / 8);

    const MicroResult micro_cal = microBench(micro_events);
    const SysResult sys_cal = sysBench(sys_repeats);

    Json payload = Json::object();
    payload.set("micro_events", Json(micro_events));
    payload.set("micro_events_per_sec", Json(micro_cal.events_per_sec));
    payload.set("sys_events_per_sec", Json(sys_cal.events_per_sec));
    payload.set("ticks_per_sec", Json(sys_cal.ticks_per_sec));

    Table t({"workload", "kernel", "events/s", "ticks/s"});
    t.addRow({"mesh", "calendar",
              strprintf("%.0f", micro_cal.events_per_sec), "-"});
    t.addRow({"system", "calendar",
              strprintf("%.0f", sys_cal.events_per_sec),
              strprintf("%.0f", sys_cal.ticks_per_sec)});

    t.print();

    payload.set("table", tableToJson(t));
    writeBenchArtifact("kernel", std::move(payload));
    return 0;
}
