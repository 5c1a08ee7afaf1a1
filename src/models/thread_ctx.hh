/**
 * @file
 * Per-thread interpreter state shared by every abstract operational model.
 *
 * Local instructions (register moves, arithmetic, branches, delays) are
 * invisible to other processors, so the models execute them eagerly: after
 * every visible step a thread is advanced until it either halts or sits at
 * a memory access.  This canonicalizes states and shrinks the explored
 * state graph without losing any behaviour.
 */

#ifndef WO_MODELS_THREAD_CTX_HH
#define WO_MODELS_THREAD_CTX_HH

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "execution/memory_op.hh"
#include "models/inline_vec.hh"
#include "program/program.hh"

namespace wo {

/** Interpreter state of one thread. */
struct ThreadCtx
{
    Pc pc = 0;
    std::array<Value, num_regs> regs{};
    bool halted = false;

    bool operator==(const ThreadCtx &other) const = default;
};

/**
 * Inline capacities of a machine state (see inline_vec.hh), sized to the
 * explored corpus: at most 4 threads and 8 locations.  A bigger program
 * spills to the heap and explores the same states, only slower.
 */
inline constexpr std::size_t inline_threads = 4;
inline constexpr std::size_t inline_locations = 8;

/** Every thread's interpreter state, indexed by processor. */
using ThreadVec = InlineVec<ThreadCtx, inline_threads>;

/** A memory image, indexed by location. */
using MemImage = InlineVec<Value, inline_locations>;

/**
 * Execute local instructions of @p code until @p t halts or reaches a
 * memory access.  Abstract models treat `delay` as a no-op.
 */
void runLocal(const ThreadCode &code, ThreadCtx &t);

/**
 * The memory instruction @p t currently sits at, or nullptr if halted.
 * Requires runLocal to have been applied (panics on a local instruction).
 */
const Instruction *currentAccess(const ThreadCode &code, const ThreadCtx &t);

/** The value a store-class instruction writes given the register file. */
Value storeValue(const Instruction &inst, const ThreadCtx &t);

/** The dynamic access class of a memory instruction. */
AccessKind accessKindOf(Opcode op);

/**
 * Complete the memory access @p t sits at: for reads and rmw, latch
 * @p value_read into the destination register; advance the pc; then run
 * local instructions to the next access.
 */
void completeAccess(const ThreadCode &code, ThreadCtx &t, Value value_read);

/**
 * Render thread contexts and a memory image for model state dumps
 * (shared by every model's dump()).
 */
std::string dumpThreadsAndMem(const Program &prog,
                              std::span<const ThreadCtx> threads,
                              std::span<const Value> mem);

} // namespace wo

#endif // WO_MODELS_THREAD_CTX_HH
