#include "footprint.hh"

namespace wo {

Footprint::Footprint(const Program &prog)
    : words_((prog.numLocations() + 63) / 64)
{
    std::size_t rows = 0;
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        first_.push_back(rows);
        rows += prog.thread(p).size();
    }
    const std::size_t row_words = 3 * words_;
    bits_.assign(rows * row_words, 0);
    auto row = [&](ProcId p, Pc pc) {
        return bits_.data() + (first_[p] + pc) * row_words;
    };

    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        const ThreadCode &code = prog.thread(p);
        // Each point's own access...
        for (Pc pc = 0; pc < code.size(); ++pc) {
            const Instruction &i = code.at(pc);
            const bool in[3] = {i.readsMemory(), i.writesMemory(),
                                i.isSync()};
            for (std::size_t k = 0; k < 3; ++k)
                if (in[k])
                    row(p, pc)[k * words_ + i.addr / 64] |=
                        std::uint64_t{1} << (i.addr % 64);
        }
        // ...then everything its successors reach.  Walking backwards
        // settles straight-line code in one pass; loops take a few more.
        bool changed = true;
        while (changed) {
            changed = false;
            for (Pc pc = code.size(); pc-- > 0;) {
                std::uint64_t *to = row(p, pc);
                code.at(pc).forEachSuccessor(pc, [&](Pc succ, bool) {
                    const std::uint64_t *from = row(p, succ);
                    for (std::size_t w = 0; w < row_words; ++w) {
                        changed |= (from[w] & ~to[w]) != 0;
                        to[w] |= from[w];
                    }
                });
            }
        }
    }
}

} // namespace wo
