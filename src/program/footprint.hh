/**
 * @file
 * Residual footprints: for every thread and program point, the locations
 * that the code reachable from that point (the point itself included) may
 * still read, write or synchronize on.
 *
 * Conflicting accesses -- same location, at least one a write -- are what
 * make two transitions fail to commute.  The DPOR explorer, the table's
 * one reader, splits processors into components whose residuals never
 * conflict.  Residuals only shrink as control advances, which is what
 * makes "no conflict now" a permanent verdict.  (The DRF0 checker needs
 * no static table: it looks for conflicting next accesses in each SC
 * state it reaches.)
 *
 * The table is computed once per program by one reverse fixpoint over
 * each thread's control-flow graph: a point's set is its own access
 * united with its successors' sets.
 */

#ifndef WO_PROGRAM_FOOTPRINT_HH
#define WO_PROGRAM_FOOTPRINT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "program/program.hh"

namespace wo {

/** Per-(thread, pc) residual read, write and synchronization sets. */
class Footprint
{
  public:
    /**
     * The three sets: `reads` and `writes` follow
     * Instruction::readsMemory / writesMemory (a TestAndSet is in both),
     * `syncs` holds the locations of the synchronization opcodes.
     */
    enum Kind : std::size_t { reads, writes, syncs };

    explicit Footprint(const Program &prog);

    /**
     * Set @p k of thread @p p from @p pc on, as a bitset of
     * (locations + 63) / 64 words: location a is bit a % 64 of word
     * a / 64.
     */
    std::span<const std::uint64_t>
    set(ProcId p, Pc pc, Kind k) const
    {
        return {bits_.data() + ((first_[p] + pc) * 3 + k) * words_, words_};
    }

    /** Is location @p a in set @p k of thread @p p from @p pc on? */
    bool
    may(ProcId p, Pc pc, Kind k, Addr a) const
    {
        return (set(p, pc, k)[a / 64] >> (a % 64)) & 1;
    }

  private:
    std::size_t words_;
    std::vector<std::size_t> first_;  //!< row of each thread's pc 0
    std::vector<std::uint64_t> bits_; //!< rows of 3 sets each
};

} // namespace wo

#endif // WO_PROGRAM_FOOTPRINT_HH
