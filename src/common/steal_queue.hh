/**
 * @file
 * Per-worker task queues with stealing, shared by parallel DPOR (its
 * node tasks) and the campaign engine (frontier mutants).
 *
 * A worker pushes and pops at the back of its own queue (LIFO keeps a
 * depth-first search in order and a fresh neighborhood hot); a thief
 * takes the oldest task from a victim's front, the biggest and least
 * recently touched piece of work.  Victims are tried round-robin from
 * the thief's right neighbor.  Each queue is a vector plus a `head`
 * index, not a std::deque, so a task held inline costs no allocation
 * of its own; the stolen prefix is compacted away once it is half the
 * queue.  Mutexed, not lock-free: a task costs far more than the lock.
 */

#ifndef WO_COMMON_STEAL_QUEUE_HH
#define WO_COMMON_STEAL_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace wo {

template <typename T>
class StealQueue
{
  public:
    explicit StealQueue(unsigned workers) : slots_(workers) {}

    /** Queue a task on worker @p w, built in place from @p args. */
    template <typename... Args>
    void
    push(unsigned w, Args &&...args)
    {
        Slot &s = slots_[w];
        std::lock_guard<std::mutex> g(s.mu);
        if (s.head > 0 && 2 * s.head >= s.q.size()) {
            // Drop the stolen prefix once it is half the queue: this
            // moves fewer tasks than were stolen since the last time.
            s.q.erase(s.q.begin(),
                      s.q.begin() + static_cast<std::ptrdiff_t>(s.head));
            s.head = 0;
        }
        s.q.emplace_back(std::forward<Args>(args)...);
    }

    /**
     * Take worker @p w's newest task or, when it has none, steal the
     * oldest task of the first other worker that has one.
     */
    bool
    take(unsigned w, T &out)
    {
        const std::size_t n = slots_.size();
        for (std::size_t i = 0; i < n; ++i) {
            Slot &s = slots_[(w + i) % n];
            std::lock_guard<std::mutex> g(s.mu);
            if (s.q.size() == s.head)
                continue;
            if (i == 0) {
                out = std::move(s.q.back());
                s.q.pop_back();
            } else {
                out = std::move(s.q[s.head++]);
                ++s.stolen;
            }
            return true;
        }
        return false;
    }

    /** Tasks stolen so far, over all victims. */
    std::uint64_t
    steals() const
    {
        std::uint64_t n = 0;
        for (Slot &s : slots_) {
            std::lock_guard<std::mutex> g(s.mu);
            n += s.stolen;
        }
        return n;
    }

  private:
    struct alignas(64) Slot
    {
        std::mutex mu;
        std::vector<T> q;
        std::size_t head = 0; // q[0, head) was stolen
        std::uint64_t stolen = 0; // tasks thieves took from q
    };

    mutable std::vector<Slot> slots_;
};

} // namespace wo

#endif // WO_COMMON_STEAL_QUEUE_HH
