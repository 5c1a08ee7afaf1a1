/**
 * @file
 * The ceiling on thread counts taken from outside input.
 *
 * A campaign spec's `explore_jobs` and wotool's `--jobs` and
 * `--explore-jobs` each become the number of threads an explorer, a
 * campaign or a fleet worker starts -- and a fleet `submit` carries the
 * spec to every worker.  One named ceiling bounds them all, and a value
 * past it is refused with a message, never truncated into range.
 */

#ifndef WO_COMMON_THREAD_COUNT_HH
#define WO_COMMON_THREAD_COUNT_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace wo {

/** The most threads one count from outside input may ask for. */
inline constexpr std::uint64_t max_thread_count = 256;

/** Is @p n a thread count that may be started (1..max_thread_count)? */
constexpr bool
threadCountOk(std::uint64_t n)
{
    return n >= 1 && n <= max_thread_count;
}

/**
 * Parse @p text (whole string, decimal or 0x-prefixed) as a thread
 * count.  Returns false, leaving @p out alone, on junk or a value
 * outside 1..max_thread_count.
 */
inline bool
parseThreadCount(const char *text, int &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(text, &end, 0);
    if (end == text || *end || errno == ERANGE || !threadCountOk(x))
        return false;
    out = static_cast<int>(x);
    return true;
}

} // namespace wo

#endif // WO_COMMON_THREAD_COUNT_HH
