/**
 * @file
 * Hunting a data race with the DRF0 checker: a "double-checked" flag
 * handoff that forgets to make one access a synchronization operation.
 * The checker exhibits an idealized execution and the precise pair of
 * unordered conflicting accesses; after the fix it certifies the program.
 */

#include <cstdio>

#include "campaign/verify.hh"
#include "core/drf0_checker.hh"
#include "program/builder.hh"

namespace wo {
namespace {

Program
buggy()
{
    const Addr data = 0, flag = 1;
    ProgramBuilder b("handoff-buggy", 2);
    b.thread(0)
        .store(data, 7)
        .store(flag, 1); // BUG: the release is an ordinary store
    b.thread(1)
        .label("spin")
        .syncLoad(0, flag)
        .beq(0, 0, "spin")
        .load(1, data);
    return b.build();
}

Program
fixed()
{
    const Addr data = 0, flag = 1;
    ProgramBuilder b("handoff-fixed", 2);
    b.thread(0).store(data, 7).syncStore(flag, 1);
    b.thread(1)
        .label("spin")
        .syncLoad(0, flag)
        .beq(0, 0, "spin")
        .load(1, data);
    return b.build();
}

void
inspect(const Program &p)
{
    std::printf("---- %s ----\n%s", p.name().c_str(),
                p.toString().c_str());
    auto v = checkDrf0(p);
    std::printf("verdict: %s\n", v.toString().c_str());
    if (!v.obeys && v.witness) {
        std::printf("witness idealized execution:\n%s",
                    v.witness->toString().c_str());
        for (const auto &r : v.races)
            std::printf("  %s\n", r.toString(*v.witness).c_str());
    }
    // Show what the race costs on weak hardware: the outcome set.
    auto c = checkScSubset(p, "drf0");
    std::printf("on the weakly ordered machine:\n%s\n",
                c.def2.report("def2_subset").c_str());
}

} // namespace
} // namespace wo

int
main()
{
    std::printf("A handoff whose release write is NOT declared as "
                "synchronization races -- and really breaks on weak "
                "hardware; declaring it fixes both.\n\n");
    wo::inspect(wo::buggy());
    wo::inspect(wo::fixed());
    return 0;
}
