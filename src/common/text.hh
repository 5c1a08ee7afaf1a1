/**
 * @file
 * Text building without printf: numbers through std::to_chars and a
 * streaming FNV-1a hash, both written against one tiny sink interface
 * (`append(std::string_view)`), so a key or id writer can fill a
 * std::string or fold straight into a hash with the same code.
 *
 * std::to_chars prints integers exactly as printf's %d/%u/%lld/%llu
 * do, and a double with (general, 17) exactly as "%.17g" does, but
 * without the locale and format-string work (or the C varargs).
 */

#ifndef WO_COMMON_TEXT_HH
#define WO_COMMON_TEXT_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace wo {

/** Append std::to_chars(@p v, @p fmt...) to @p out. */
template <class Out, class T, class... Fmt>
void
appendNumber(Out &out, T v, Fmt... fmt)
{
    char buf[32]; // "-1.2345678901234567e-308" is the longest
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, fmt...);
    out.append(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

/** @p prefix, then @p v in decimal: numbered("L", 3u) is "L3". */
template <class T>
std::string
numbered(std::string_view prefix, T v)
{
    std::string out(prefix);
    appendNumber(out, v);
    return out;
}

/**
 * FNV-1a folded piece by piece: appending "a" then "b" leaves the hash
 * of "ab", so an id can be hashed without being concatenated first.
 */
struct Fnv1a64
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    append(std::string_view text)
    {
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
};

} // namespace wo

#endif // WO_COMMON_TEXT_HH
