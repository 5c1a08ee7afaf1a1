#include "system.hh"

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/metrics.hh"
#include "obs/monitor.hh"
#include "obs/profiler.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"

namespace wo {

std::uint64_t
SystemResult::cpu_stat_total(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &m : cpu_counters) {
        auto it = m.find(name);
        if (it != m.end())
            total += it->second;
    }
    return total;
}

std::uint64_t
SystemResult::stall_stat_total(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &m : stall_counters) {
        auto it = m.find(name);
        if (it != m.end())
            total += it->second;
    }
    return total;
}

System::System(const Program &prog, const SystemCfg &cfg)
{
    reset(prog, cfg);
}

void
System::reset(const Program &prog, const SystemCfg &cfg)
{
    prog_ = &prog;
    cfg_ = cfg;
    const ProcId procs = prog.numThreads();
    const Addr nlocs = prog.numLocations();
    const NodeId dir_id = procs;
    cfg_.cache.sync_reads_as_reads =
        cfg_.policy == OrderingPolicy::wo_drf0_ro;

    eq_.reset();
    obs_.reset(procs);
    if (cfg_.trace)
        obs_.enableTrace();
    // The monitor binds to the run's record once it is re-armed.
    exec_.reset(procs, prog.initialMemory());
    monitor_ = nullptr;
    if (cfg_.monitor) {
        const HbRelation::SyncFlavor flavor =
            cfg_.policy == OrderingPolicy::wo_drf0_ro
                ? HbRelation::SyncFlavor::weak_sync_read
                : HbRelation::SyncFlavor::drf0;
        if (monitor_store_)
            monitor_store_->reset(exec_, flavor);
        else
            monitor_store_ = std::make_unique<Monitor>(exec_, flavor);
        monitor_ = monitor_store_.get();
        obs_.attachMonitor(monitor_);
    }
    // A failure dump without the full trace reads the ring.
    recorder_.reset();
    if (cfg_.flight_recorder || (!cfg_.dump_on_fail.empty() && !cfg_.trace)) {
        recorder_ =
            std::make_unique<FlightRecorder>(cfg_.flight_recorder_capacity);
        obs_.attachRecorder(recorder_.get());
    }
    eq_.setObs(&obs_);
    evidence_dumped_ = false;

    net_.reset(cfg_.net);
    dir_.reset(dir_id, prog.initialMemory(), cfg_.dir);
    net_.attach(dir_id, &dir_);
    cpus_.clear();
    caches_.clear();
    for (ProcId p = 0; p < procs; ++p) {
        if (p == cpu_pool_.size()) {
            cpu_pool_.push_back(std::make_unique<Cpu>(
                p, prog, eq_, cfg_.policy, exec_, cfg_.cpu));
            cache_pool_.push_back(std::make_unique<Cache>(
                p, dir_id, procs, eq_, net_, cpu_pool_[p].get(), nlocs,
                cfg_.cache));
        } else {
            cpu_pool_[p]->reset(prog, cfg_.policy, cfg_.cpu);
            cache_pool_[p]->reset(dir_id, cpu_pool_[p].get(), nlocs,
                                  cfg_.cache);
        }
        cpus_.push_back(cpu_pool_[p].get());
        caches_.push_back(cache_pool_[p].get());
        cpus_.back()->attachCache(caches_.back());
        net_.attach(p, caches_.back());
    }

    sampler_.reset();
    if (cfg_.sample_interval > 0) {
        sampler_ = std::make_unique<Sampler>(cfg_.sample_interval);
        for (ProcId p = 0; p < procs; ++p) {
            sampler_->addProbe(
                strprintf("cpu%u.outstanding", p),
                [c = caches_[p]]() -> std::uint64_t {
                    const int v = c->counter();
                    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
                });
            for (std::size_t s = 0; s <= stall_total_slot; ++s)
                sampler_->addProbe(
                    strprintf("cpu%u.stall.%s", p, stall_stat_names[s]),
                    [this, p, s]() -> std::uint64_t {
                        return obs_.stallStats(p).value(s);
                    });
        }
        sampler_->addProbe("net.in_flight", [n = &net_] {
            return n->inFlight();
        });
        sampler_->addProbe("dir.busy_lines", [d = &dir_] {
            return d->busyLines();
        });
        obs_.attachSampler(sampler_.get());
    }
}

System::~System() = default;

void
System::warmShared(Addr addr, const std::vector<ProcId> &procs)
{
    for (ProcId p : procs) {
        caches_[p]->warmShared(addr, prog_->initialValue(addr));
        dir_.warmSharer(addr, p);
    }
}

std::vector<Value>
System::finalMemory() const
{
    std::vector<Value> mem(prog_->numLocations());
    for (Addr a = 0; a < prog_->numLocations(); ++a) {
        const NodeId owner = dir_.ownerOf(a);
        if (owner != invalid_proc && caches_[owner]->holdsModified(a))
            mem[a] = caches_[owner]->lineValue(a);
        else
            mem[a] = dir_.memoryValue(a);
    }
    return mem;
}

void
System::dumpEvidence(const char *why)
{
    if (cfg_.dump_on_fail.empty() || evidence_dumped_)
        return;
    evidence_dumped_ = true;
    const std::string &prefix = cfg_.dump_on_fail;
    if (!cfg_.quiet)
        inform("dumping failure evidence (%s) to %s.*", why,
               prefix.c_str());
    const std::string trace =
        recorder_ ? recorder_->chromeTraceJson(
                        static_cast<ProcId>(cpus_.size()))
                  : obs_.chromeTraceJson();
    writeFile(prefix + ".trace.json", trace);
    if (monitor_) {
        // A livelocked spin can retire millions of ops; rendering the
        // full hb graph would dwarf the failure it documents.
        const std::size_t nops = exec_.ops().size();
        if (nops <= SystemCfg::max_witness_dot_ops) {
            writeFile(prefix + ".hb.dot", monitor_->witnessDot());
            writeFile(prefix + ".hb.svg", monitor_->witnessSvg());
        } else {
            writeFile(prefix + ".hb.dot",
                      strprintf("// hb witness omitted: %zu retired "
                                "ops exceed the render cap (%zu)\n",
                                nops, SystemCfg::max_witness_dot_ops));
        }
        writeFile(prefix + ".monitor.txt",
                  strprintf("reason: %s\n", why) + monitor_->report());
    }
}

SystemResult
System::run()
{
    // Self-profiling covers exactly the simulated run: the calling
    // thread registers as the "sim" lane and the pacer samples it for
    // the duration of the event loop.
    std::unique_ptr<Profiler::ThreadGuard> prof_guard;
    std::unique_ptr<Profiler> prof;
    if (cfg_.profile) {
        prof_guard = std::make_unique<Profiler::ThreadGuard>("sim");
        ProfilerCfg pcfg;
        pcfg.hz = cfg_.profile_hz;
        prof = std::make_unique<Profiler>(pcfg);
        if (!prof->start()) {
            warn("profiler: another instance is active; sampling off");
            prof.reset();
        }
    }

    for (auto &cpu : cpus_)
        cpu->boot();
    if (sampler_)
        sampler_->start(eq_);

    SystemResult r;
    std::uint64_t events = 0;
    while (!eq_.empty()) {
        if (++events > cfg_.max_events) {
            r.livelocked = true;
            if (cfg_.quiet)
                break;
            // Satellite diagnostics: where each processor is stuck and
            // what it has mostly been waiting on.
            std::string snap;
            Tick finish_so_far = 0;
            for (ProcId p = 0; p < cpus_.size(); ++p) {
                finish_so_far =
                    std::max(finish_so_far, cpus_[p]->finishTick());
                const StatGroup &g = obs_.stallStats(p);
                const char *top = "none";
                std::uint64_t top_cycles = 0;
                for (int b = 0; b < num_stall_buckets; ++b) {
                    if (g.value(b) > top_cycles) {
                        top_cycles = g.value(b);
                        top = stall_stat_names[b];
                    }
                }
                snap += strprintf(
                    " cpu%u{%s pc=%u top_stall=%s:%llu}", p,
                    cpus_[p]->halted() ? "halted" : "running",
                    cpus_[p]->pc(),
                    top, static_cast<unsigned long long>(top_cycles));
            }
            warn("system livelocked after %llu events at tick %llu "
                 "running '%s' (%s); finish tick so far %llu;%s",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(eq_.now()),
                 prog_->name().c_str(), policyName(cfg_.policy),
                 static_cast<unsigned long long>(finish_so_far),
                 snap.c_str());
            break;
        }
        eq_.step();
        // Evidence is worth the two loads per event: dump the window
        // around the *first* hardware violation, not the run's end.
        if (monitor_ && !evidence_dumped_ &&
            monitor_->hardwareViolations() > 0)
            dumpEvidence("monitor violation");
    }

    bool all_halted = true;
    Tick finish = 0;
    for (auto &cpu : cpus_) {
        all_halted = all_halted && cpu->halted();
        finish = std::max(finish, cpu->finishTick());
    }
    r.completed = all_halted && !r.livelocked;
    r.deadlocked = !all_halted && !r.livelocked;
    r.finish_tick = finish;
    r.drain_tick = eq_.now();
    r.policy = cfg_.policy;
    r.weak_sync_read_policy = cfg_.policy == OrderingPolicy::wo_drf0_ro;

    if (monitor_) {
        monitor_->finalize(eq_.now(), r.completed, obs_.unfinishedOps());
        r.monitor_violations = monitor_->totalViolations();
        r.monitor_hw_violations = monitor_->hardwareViolations();
        r.monitor_races = monitor_->races();
        if (cfg_.collect_stats)
            r.monitor_report = monitor_->report();
    }
    if (sampler_)
        r.sampler_csv = sampler_->csv();
    if (r.deadlocked || r.livelocked)
        dumpEvidence(r.deadlocked ? "deadlock" : "livelock");
    else if (monitor_ && monitor_->hardwareViolations() > 0)
        dumpEvidence("monitor violation");

    r.outcome.regs.reserve(cpus_.size());
    for (auto &cpu : cpus_)
        r.outcome.regs.emplace_back(cpu->regs().begin(),
                                    cpu->regs().end());
    r.outcome.memory = finalMemory();

    // Stop sampling before result assembly so the profile describes the
    // simulation, not the JSON rendering below it.
    if (prof) {
        prof->stop();
        if (!cfg_.profile_out.empty())
            writeFile(cfg_.profile_out, prof->folded());
    }

    if (!cfg_.collect_stats)
        return r;

    r.execution = exec_;
    for (auto &cpu : cpus_)
        r.timings.push_back(cpu->timings());

    auto countersOf = [](const StatGroup &g) {
        std::map<std::string, std::uint64_t> counters;
        g.forEach(
            [&](const char *name, std::uint64_t v) {
                counters.emplace(name, v);
            },
            [](const char *, const Histogram &) {});
        return counters;
    };
    for (auto &cpu : cpus_) {
        r.stats += cpu->stats().dump();
        r.cpu_counters.push_back(countersOf(cpu->stats()));
    }
    for (ProcId p = 0; p < cpus_.size(); ++p) {
        r.stats += obs_.stallStats(p).dump();
        r.stall_counters.push_back(countersOf(obs_.stallStats(p)));
    }
    for (auto &cache : caches_)
        r.stats += cache->stats().dump();
    r.stats += dir_.stats().dump();
    r.stats += net_.stats().dump();

    // The unified machine-readable view: run metadata plus every
    // component group mounted in one hierarchical namespace.
    MetricsRegistry reg;
    reg.set("run.program", Json(prog_->name()));
    reg.set("run.policy", Json(policyName(cfg_.policy)));
    reg.set("run.completed", Json(r.completed));
    reg.set("run.deadlocked", Json(r.deadlocked));
    reg.set("run.livelocked", Json(r.livelocked));
    reg.set("run.finish_tick", Json(r.finish_tick));
    reg.set("run.drain_tick", Json(r.drain_tick));
    reg.set("run.events", Json(eq_.executed()));
    for (ProcId p = 0; p < cpus_.size(); ++p) {
        reg.addGroup(strprintf("cpu%u", p), cpus_[p]->stats());
        reg.addGroup(strprintf("cpu%u.stall", p), obs_.stallStats(p));
    }
    for (ProcId p = 0; p < caches_.size(); ++p)
        reg.addGroup(strprintf("cache%u", p), caches_[p]->stats());
    reg.addGroup("dir", dir_.stats());
    reg.addGroup("net", net_.stats());
    if (monitor_)
        reg.set("monitor", monitor_->toJson());
    if (recorder_) {
        reg.set("flight_recorder.window", Json(recorder_->size()));
        reg.set("flight_recorder.recorded", Json(recorder_->recorded()));
        reg.set("flight_recorder.dropped", Json(recorder_->dropped()));
    }
    if (sampler_)
        reg.set("sampler.samples",
                Json(std::uint64_t{sampler_->sampleCount()}));
    if (prof)
        reg.set("profiler", prof->toJson());
    r.stats_json = reg.dump(1);
    return r;
}

} // namespace wo
