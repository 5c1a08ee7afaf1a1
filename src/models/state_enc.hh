/**
 * @file
 * Byte-string encoding of model states for visited-set hashing.  Encoders
 * must be injective over the reachable state space of their model; each
 * model documents what it serializes.
 *
 * Two encoders share one interface (put / putThread / sep), so a model
 * writes its layout once as `encodeInto(state, enc)` and gets both:
 *
 *  - StateEnc materializes the byte string.  Cold paths only: golden
 *    equivalence tests, witness search, divergence dumps.
 *
 *  - HashEnc folds the bytes straight into a 128-bit FNV pair, a whole
 *    scalar at a time, without ever touching the heap.  This is the
 *    explorer's hot path: hashing a state allocates nothing and
 *    produces exactly the key that hashing the StateEnc bytes would
 *    (the equivalence is itself under test).
 */

#ifndef WO_MODELS_STATE_ENC_HH
#define WO_MODELS_STATE_ENC_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "models/thread_ctx.hh"

namespace wo {

/** 128-bit FNV pair over a state's encoded bytes. */
struct StateHash
{
    std::uint64_t lo = 0, hi = 0;
    bool operator==(const StateHash &other) const = default;
};

/** Hash functor for unordered containers keyed by StateHash. */
struct StateHashHash
{
    std::size_t
    operator()(const StateHash &k) const
    {
        return static_cast<std::size_t>(k.lo ^
                                        (k.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/** Append-only byte encoder. */
class StateEnc
{
  public:
    /** Append any trivially copyable scalar. */
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        buf_.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    /** Append a thread context. */
    void
    putThread(const ThreadCtx &t)
    {
        put(t.pc);
        put(t.halted);
        for (Value v : t.regs)
            put(v);
    }

    /** A separator to keep variable-length sections unambiguous. */
    void
    sep()
    {
        buf_.push_back('\x1f');
    }

    /** The encoded bytes. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Streaming hasher with the StateEnc interface: every byte that StateEnc
 * would append is packed into a 64-bit word and the word folded into the
 * running FNV pair -- one multiply round per eight bytes instead of eight,
 * which matters because the multiply chain is serial.  A scalar of up to
 * eight bytes is packed in one shift-and-or (on a little-endian host its
 * bytes already sit in stream order), so the stream costs a few
 * instructions per field rather than per byte.  No buffer, no
 * allocation, and `HashEnc` over a state equals `hashBytes` over that
 * state's StateEnc string byte for byte (the equivalence is under test).
 */
class HashEnc
{
  public:
    /** Fold any trivially copyable scalar. */
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if constexpr (sizeof(T) <= 8 &&
                      std::endian::native == std::endian::little) {
            std::uint64_t w = 0;
            std::memcpy(&w, &v, sizeof(T));
            putWord(w, sizeof(T));
        } else {
            const auto *p = reinterpret_cast<const unsigned char *>(&v);
            for (std::size_t i = 0; i < sizeof(v); ++i)
                putWord(p[i], 1);
        }
    }

    /** Fold a thread context. */
    void
    putThread(const ThreadCtx &t)
    {
        put(t.pc);
        put(t.halted);
        for (Value v : t.regs)
            put(v);
    }

    /** Fold the section separator byte. */
    void
    sep()
    {
        putWord(0x1f, 1);
    }

    /**
     * The accumulated 128-bit key.  The partial trailing word is folded
     * with its byte count tagged into the (always unused) top byte, so
     * streams that differ only in trailing zero bytes keep distinct keys.
     */
    StateHash
    take() const
    {
        std::uint64_t tail =
            pending_ | (std::uint64_t(n_ + 1) << 56);
        std::uint64_t a = (a_ ^ tail) * 0x100000001b3ULL;
        std::uint64_t b =
            (b_ ^ tail) * 0x00000100000001b3ULL ^ (b_ >> 47);
        return StateHash{a, b};
    }

  private:
    /**
     * Append the @p len (1..8) low bytes of @p w, least significant
     * first, folding each word the stream completes.
     */
    void
    putWord(std::uint64_t w, unsigned len)
    {
        pending_ |= w << (8 * n_);
        const unsigned room = 8 - n_;
        if (len < room) {
            n_ += len;
            return;
        }
        a_ = (a_ ^ pending_) * 0x100000001b3ULL;
        b_ = (b_ ^ pending_) * 0x00000100000001b3ULL ^ (b_ >> 47);
        // The bytes that did not fit start the next word.
        pending_ = room < 8 ? w >> (8 * room) : 0;
        n_ = len - room;
    }

    std::uint64_t a_ = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    std::uint64_t b_ = 0x6c62272e07bb0142ULL; // second basis (FNV-0 of seed)
    std::uint64_t pending_ = 0;               // bytes awaiting a full word
    unsigned n_ = 0;                          // how many are pending (< 8)
};

/** Hash a finished byte encoding (reference path for the golden tests). */
inline StateHash
hashBytes(const std::string &enc)
{
    HashEnc h;
    for (unsigned char c : enc)
        h.put(c);
    return h.take();
}

} // namespace wo

#endif // WO_MODELS_STATE_ENC_HH
