/**
 * @file
 * A vector with inline capacity, the storage of every abstract-machine
 * state.
 *
 * The explorers copy, hash, compare and drop states by the million, so a
 * state must be a flat value: copying it may not touch the allocator.
 * InlineVec<T, N> keeps up to N elements inside the object itself and
 * moves them to the heap only when the N+1st arrives (the *spill*); a
 * spilled vector stays on the heap until it is destroyed or moved from.
 * Either way it has value semantics -- copy, move and == see only the
 * elements, never where they live -- so a model that outgrows a
 * capacity loses nothing but speed.
 *
 * It offers the subset of std::vector the models use: size, indexing,
 * pointer iterators (so it converts to std::span), push_back, erase,
 * resize, assign and clear.  Sizes fit 32 bits.
 */

#ifndef WO_MODELS_INLINE_VEC_HH
#define WO_MODELS_INLINE_VEC_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

namespace wo {

template <typename T, std::size_t N>
class InlineVec
{
    static_assert(N > 0, "an InlineVec needs inline room");

  public:
    using value_type = T;
    using size_type = std::uint32_t;

    InlineVec() noexcept {}

    InlineVec(std::initializer_list<T> init)
    {
        assign(init.begin(), init.end());
    }

    InlineVec(const InlineVec &other) { appendCopies(other); }

    InlineVec(InlineVec &&other) noexcept { steal(other); }

    InlineVec &
    operator=(const InlineVec &other)
    {
        if (this != &other) {
            clear();
            appendCopies(other);
        }
        return *this;
    }

    InlineVec &
    operator=(InlineVec &&other) noexcept
    {
        if (this != &other) {
            clear();
            release();
            steal(other);
        }
        return *this;
    }

    ~InlineVec()
    {
        clear();
        release();
    }

    T *data() { return heap_ ? heap_ : local(); }
    const T *data() const { return heap_ ? heap_ : local(); }
    size_type size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Did the elements outgrow the inline room (test hook)? */
    bool spilled() const { return heap_ != nullptr; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    const T &front() const { return data()[0]; }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_) {
            // Build first: the arguments may refer into this vector.
            T v(std::forward<Args>(args)...);
            grow(size_ + 1);
            return *::new (static_cast<void *>(data() + size_++))
                T(std::move(v));
        }
        return *::new (static_cast<void *>(data() + size_++))
            T(std::forward<Args>(args)...);
    }

    /** Remove the element at @p pos, keeping the others' order. */
    T *erase(const T *pos) { return erase(pos, pos + 1); }

    /** Remove [@p first, @p last), keeping the others' order. */
    T *
    erase(const T *first, const T *last)
    {
        T *d = data();
        const auto i = static_cast<size_type>(first - d);
        const auto n = static_cast<size_type>(last - first);
        std::move(d + i + n, d + size_, d + i);
        std::destroy(d + size_ - n, d + size_);
        size_ -= n;
        return d + i;
    }

    /** Grow with value-initialized elements, or drop the tail. */
    void
    resize(size_type n)
    {
        if (n > cap_)
            grow(n);
        while (size_ < n)
            ::new (static_cast<void *>(data() + size_++)) T();
        while (size_ > n)
            data()[--size_].~T();
    }

    void
    assign(size_type n, const T &v)
    {
        clear();
        if (n > cap_)
            grow(n);
        std::uninitialized_fill_n(data(), n, v);
        size_ = n;
    }

    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        const auto n = static_cast<size_type>(std::distance(first, last));
        if (n > cap_)
            grow(n);
        std::uninitialized_copy(first, last, data());
        size_ = n;
    }

    void
    clear()
    {
        std::destroy_n(data(), size_);
        size_ = 0;
    }

    friend bool
    operator==(const InlineVec &a, const InlineVec &b)
    {
        return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    T *local() { return reinterpret_cast<T *>(local_); }
    const T *local() const { return reinterpret_cast<const T *>(local_); }

    /** Append copies of @p other's elements (this holds none). */
    void
    appendCopies(const InlineVec &other)
    {
        if (other.size_ > cap_)
            grow(other.size_);
        std::uninitialized_copy_n(other.data(), other.size_, data());
        size_ = other.size_;
    }

    /** Take @p other's elements (this holds none and owns no heap). */
    void
    steal(InlineVec &other) noexcept
    {
        if (other.heap_) {
            heap_ = std::exchange(other.heap_, nullptr);
            cap_ = std::exchange(other.cap_, size_type{N});
            size_ = std::exchange(other.size_, 0);
            return;
        }
        std::uninitialized_move_n(other.local(), other.size_, local());
        size_ = other.size_;
        other.clear();
    }

    /** Spill to (or regrow on) the heap with room for @p need. */
    void
    grow(size_type need)
    {
        const size_type cap = std::max<size_type>(need, 2 * cap_);
        T *fresh = std::allocator<T>().allocate(cap);
        std::uninitialized_move_n(data(), size_, fresh);
        std::destroy_n(data(), size_);
        release();
        heap_ = fresh;
        cap_ = cap;
    }

    /** Free the heap block, if any, and return to inline storage. */
    void
    release() noexcept
    {
        if (heap_)
            std::allocator<T>().deallocate(heap_, cap_);
        heap_ = nullptr;
        cap_ = N;
    }

    T *heap_ = nullptr;      // the elements once spilled, else nullptr
    size_type size_ = 0;
    size_type cap_ = N;      // N while inline
    alignas(T) unsigned char local_[N * sizeof(T)];
};

} // namespace wo

#endif // WO_MODELS_INLINE_VEC_HH
