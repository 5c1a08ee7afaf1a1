/**
 * @file
 * `wobench`: the repository benchmark's measuring binary.  run.py builds
 * it and calls it; see README.md for the workloads and metrics.
 *
 *   wobench --workload NAME --seed N --seconds S --trace 0|1
 *           [--tiny] [--expect-digest HEX] [--commit ID]
 *
 * Prints a stamp line (host, build, resource usage and diagnostics) and
 * then, as the last line, the result object.  Exit 2 on a bad argument
 * or a build that is not an optimized Release build.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"
#include "common/logging.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "wobench: %s\nusage: wobench --workload "
                 "campaign_run|campaign_verify|explore_dpor|fleet_run "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--expect-digest HEX] [--commit ID]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Args args;
    std::string commit = "unknown";
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    args.jobs = static_cast<int>(std::clamp(nproc, 1L, 4L));
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (!has_value)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                args.workload = v;
            else if (a == "--seed")
                args.seed = std::stoull(v);
            else if (a == "--seconds")
                args.seconds = std::stod(v);
            else if (a == "--trace")
                args.trace = v == "1";
            else if (a == "--expect-digest")
                args.expect_digest = v;
            else if (a == "--commit")
                commit = v;
            else
                return usage(("unknown argument " + a).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + a + ": " + v).c_str());
        }
    }
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return usage("refusing to measure a " PERFBENCH_BUILD_TYPE
                     " build; configure with CMAKE_BUILD_TYPE=Release");

    void (*workload)(const pb::Args &, pb::Report &) = nullptr;
    if (args.workload == "campaign_run")
        workload = pb::campaignRun;
    else if (args.workload == "campaign_verify")
        workload = pb::campaignVerify;
    else if (args.workload == "explore_dpor")
        workload = pb::exploreDpor;
    else if (args.workload == "fleet_run")
        workload = pb::fleetRun;
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());

    wo::setLogLevel(wo::LogLevel::quiet);
    args.out_dir += "/" + args.workload;
    pb::freshDir(args.out_dir);

    const pb::Usage u0 = pb::usageNow();
    pb::Report rep;
    workload(args, rep);
    rep.metric("pass_ratio", rep.passRatio(), "ratio");
    const pb::Usage used = pb::usageNow().minus(u0);
    std::error_code ec;
    std::filesystem::remove_all(args.out_dir, ec);

    wo::Json stamp = wo::Json::object();
    stamp.set("workload", wo::Json(args.workload));
    stamp.set("seed", wo::Json(args.seed));
    stamp.set("seconds", wo::Json(args.seconds));
    stamp.set("trace", wo::Json(args.trace));
    stamp.set("jobs", wo::Json(args.jobs));
    stamp.set("nproc", wo::Json(static_cast<std::int64_t>(nproc)));
    stamp.set("compiler", wo::Json(PERFBENCH_COMPILER));
    stamp.set("build_type", wo::Json(PERFBENCH_BUILD_TYPE));
    stamp.set("commit", wo::Json(commit));
    wo::Json line = wo::Json::object();
    line.set("stamp", std::move(stamp));
    line.set("rusage", used.toJson());
    line.set("info", rep.info);
    std::printf("%s\n%s\n", line.dump().c_str(),
                rep.result().dump().c_str());
    return 0;
}
