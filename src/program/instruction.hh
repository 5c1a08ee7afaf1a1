/**
 * @file
 * The instruction set of the laboratory's parallel-program IR.
 *
 * Programs are small register machines, one code sequence per processor.
 * Memory accesses come in the three synchronization classes the paper's
 * Section 6 distinguishes -- ordinary (data), read-only synchronization
 * (e.g. Test), write-only synchronization (e.g. Unset/Set) -- plus the
 * read-write TestAndSet primitive.  Every synchronization operation accesses
 * exactly one memory location, as DRF0's Definition 3 requires.
 */

#ifndef WO_PROGRAM_INSTRUCTION_HH
#define WO_PROGRAM_INSTRUCTION_HH

#include <string>

#include "common/types.hh"

namespace wo {

/** Number of general-purpose registers per thread. */
inline constexpr RegId num_regs = 16;

/** Opcodes of the program IR. */
enum class Opcode : std::uint8_t
{
    load_data,   //!< r[dst] = M[addr]                       (ordinary read)
    store_data,  //!< M[addr] = value-operand                (ordinary write)
    sync_load,   //!< r[dst] = M[addr]              (read-only sync, "Test")
    sync_store,  //!< M[addr] = value-operand      (write-only sync, "Unset")
    test_and_set,//!< r[dst] = M[addr]; M[addr] = 1  (read-write sync, "TAS")
    mov_imm,     //!< r[dst] = imm
    add,         //!< r[dst] = r[src] + r[src2]
    add_imm,     //!< r[dst] = r[src] + imm
    branch_eq,   //!< if (r[src] == imm) goto target
    branch_ne,   //!< if (r[src] != imm) goto target
    jump,        //!< goto target
    delay,       //!< consume imm cycles of local work (timed models only)
    halt,        //!< thread terminates
};

/** One decoded instruction. */
struct Instruction
{
    Opcode op = Opcode::halt;
    RegId dst = 0;     //!< destination register
    RegId src = 0;     //!< first source register
    RegId src2 = 0;    //!< second source register
    Addr addr = invalid_addr; //!< memory location for accesses
    Value imm = 0;     //!< immediate operand
    bool use_imm = false; //!< stores: value comes from imm, else r[src]
    Pc target = 0;     //!< branch destination

    /** True for the three memory-reading opcodes. */
    bool readsMemory() const;

    /** True for the three memory-writing opcodes. */
    bool writesMemory() const;

    /** True for any of the three synchronization opcodes. */
    bool isSync() const;

    /** True for sync_load (a read-only synchronization operation). */
    bool isReadOnlySync() const { return op == Opcode::sync_load; }

    /** True for any memory access. */
    bool accessesMemory() const { return readsMemory() || writesMemory(); }

    /** True for the control transfers: branch_eq, branch_ne and jump. */
    bool
    isBranch() const
    {
        return op == Opcode::branch_eq || op == Opcode::branch_ne ||
               op == Opcode::jump;
    }

    /**
     * Call @p f(succ, fall_through) for each control-flow successor of
     * this instruction sitting at @p pc: the branch target first
     * (fall_through false), then pc + 1 unless control cannot fall
     * through (jump, halt).  A validated Program keeps every successor
     * in range.
     */
    template <typename F>
    void
    forEachSuccessor(Pc pc, F &&f) const
    {
        if (isBranch())
            f(target, false);
        if (op != Opcode::jump && op != Opcode::halt)
            f(pc + 1, true);
    }

    /** Human-readable rendering, e.g. "ST  [3] <- 1". */
    std::string toString() const;
};

/** Name of an opcode for diagnostics. */
const char *opcodeName(Opcode op);

} // namespace wo

#endif // WO_PROGRAM_INSTRUCTION_HH
