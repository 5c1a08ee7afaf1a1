/**
 * @file
 * A small textual assembly format for the program IR, in the spirit of
 * litmus-test files, so programs can be written, shared and fed to the
 * command-line tool without recompiling.
 *
 * Grammar (line oriented; '#' starts a comment; blank lines ignored):
 *
 *     program <name>             -- optional, first non-comment line
 *     init <loc> <value>         -- initial value of a location
 *     warm <loc> <n>...          -- pre-install loc (initial value) as a
 *                                   shared line in the caches of the
 *                                   listed threads before a timed run
 *                                   (Figure 1's "initially in the cache";
 *                                   abstract models ignore it)
 *     probe <n> <reg> <value>    -- litmus condition term: thread n's
 *                                   final reg equals value (terms conjoin)
 *     probe mem <loc> <value>    -- ... or a final-memory term
 *     thread <n>                 -- start of thread n's code (0-based)
 *     <label>:                   -- label at the current position
 *     ld    <reg> <loc>          -- r = M[loc]            (data read)
 *     st    <loc> <imm>          -- M[loc] = imm          (data write)
 *     st    <loc> <reg>          -- M[loc] = r            (data write)
 *     syncld <reg> <loc>         -- read-only synchronization (Test)
 *     syncst <loc> <imm>         -- write-only synchronization (Set/Unset)
 *     tas   <reg> <loc>          -- TestAndSet
 *     movi  <reg> <imm>
 *     add   <reg> <reg> <reg>
 *     addi  <reg> <reg> <imm>
 *     beq   <reg> <imm> <label>
 *     bne   <reg> <imm> <label>
 *     jmp   <label>
 *     work  <cycles>
 *     halt                       -- implicit at end of thread
 *
 * Registers are written r0..r15.  Locations are symbolic names (assigned
 * addresses in order of first appearance) or explicit numbers in
 * 0..65535.
 */

#ifndef WO_ASM_ASSEMBLER_HH
#define WO_ASM_ASSEMBLER_HH

#include <optional>
#include <string>

#include "common/logging.hh"
#include "execution/execution.hh"
#include "program/program.hh"

namespace wo {

/** A parse failure with its location. */
struct AsmError
{
    int line = 0;        //!< 1-based source line
    std::string message;

    std::string
    toString() const
    {
        return strprintf("line %d: %s", line, message.c_str());
    }
};

/** One conjunct of a litmus probe condition. */
struct ProbeTerm
{
    bool is_memory = false; //!< else a register term
    ProcId proc = 0;        //!< register terms
    RegId reg = 0;
    Addr addr = 0;          //!< memory terms
    Value value = 0;

    std::string toString() const;
};

/** A 'warm' directive: pre-share a line in the listed threads' caches. */
struct WarmTerm
{
    Addr addr = 0;
    std::vector<ProcId> procs;
};

/** Result of assembling a source text. */
struct AsmResult
{
    std::optional<Program> program;
    std::vector<ProbeTerm> probe; //!< litmus condition (conjunction)
    std::vector<WarmTerm> warm;   //!< timed-run cache warm-up
    std::vector<AsmError> errors;

    bool ok() const { return program.has_value() && errors.empty(); }
};

/** Does @p outcome satisfy every term of @p probe? */
bool probeMatches(const std::vector<ProbeTerm> &probe,
                  const Outcome &outcome);

/** Assemble program source text. */
AsmResult assembleString(const std::string &source);

/** Assemble a file; adds an error if the file cannot be read. */
AsmResult assembleFile(const std::string &path);

/**
 * Render @p prog back to assembly text (round-trips through
 * assembleString up to label naming and location naming).
 */
std::string disassemble(const Program &prog);

} // namespace wo

#endif // WO_ASM_ASSEMBLER_HH
