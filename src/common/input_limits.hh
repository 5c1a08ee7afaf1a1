/**
 * @file
 * The rules for counts taken from outside input.
 *
 * An unsigned number from a command line, a campaign spec or an assembly
 * source is plain decimal digits: no sign, no 0x or octal prefix, no
 * trailing junk, and leading zeros are still decimal ("010" is ten).
 *
 * Two kinds of count decide how much a process starts or allocates, and
 * each has one named ceiling.  A value past it is refused with a message,
 * never truncated into range:
 *
 *  - thread counts: a campaign spec's `explore_jobs` and wotool's `--jobs`
 *    and `--explore-jobs` each become the number of threads an explorer,
 *    a campaign or a fleet worker starts, and a fleet `submit` carries
 *    the spec to every worker;
 *  - cell budgets: a spec's `cells` and wotool's `--cells` size the
 *    journal's seen-key table, which a campaign driver or a fleet
 *    coordinator reserves before the first cell runs.
 */

#ifndef WO_COMMON_INPUT_LIMITS_HH
#define WO_COMMON_INPUT_LIMITS_HH

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace wo {

/** The most threads one count from outside input may ask for. */
inline constexpr std::uint64_t max_thread_count = 256;

/**
 * The largest cell budget one campaign may ask for.  The journal's
 * seen-key table keeps its load under one half, so it reserves the
 * smallest power of two above 2 * cells 8-byte slots: 10^8 cells is 2^28
 * slots, 2 GiB, the most set-up memory one spec may commit.
 */
inline constexpr std::uint64_t max_cell_count = 100'000'000;

/** Is @p n a thread count that may be started (1..max_thread_count)? */
constexpr bool
threadCountOk(std::uint64_t n)
{
    return n >= 1 && n <= max_thread_count;
}

/** Is @p n a cell budget a campaign may take (1..max_cell_count)? */
constexpr bool
cellCountOk(std::uint64_t n)
{
    return n >= 1 && n <= max_cell_count;
}

/**
 * Parse @p text, all of it, as a decimal number of type T: digits, a
 * leading '-' only when T is signed, and for a floating T a fraction and
 * exponent too (std::from_chars: no '+', blank, 0x or octal prefix).
 * Returns false, leaving @p out alone, on anything else or a value
 * outside T.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    T x{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc{} || stop != end)
        return false;
    out = x;
    return true;
}

/**
 * Parse @p text as a thread count.  Returns false, leaving @p out alone,
 * on anything but a decimal number from 1 to max_thread_count.
 */
inline bool
parseThreadCount(std::string_view text, int &out)
{
    std::uint64_t x = 0;
    if (!parseDecimal(text, x) || !threadCountOk(x))
        return false;
    out = static_cast<int>(x);
    return true;
}

} // namespace wo

#endif // WO_COMMON_INPUT_LIMITS_HH
