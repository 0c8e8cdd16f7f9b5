/**
 * @file
 * Read/write request queues with request coalescing (Sec. 3.4).
 *
 * Due to matrix sparsity, several short rows can share one 64 B block, so
 * in iteration 0 different prefetch buffers issue loads for the same
 * block. Request coalescing compares each incoming load against every
 * occupied read-queue slot (hardware: a comparator per entry, like a CAM)
 * and merges duplicates into the existing slot. The eventual memory
 * response is broadcast to all prefetch buffers, so merging never affects
 * correctness and requesters need not be tracked.
 *
 * Host-side representation: entries live in fixed slots recycled through
 * a free list and chained into an intrusive FIFO, so removal from the
 * middle (a scheduled request retiring out of age order) is O(1) instead
 * of an O(n) deque erase. The hardware CAM is modeled by a hash map from
 * block address to slot, making the coalescing probe O(1) per enqueue —
 * same match semantics, no linear scan. Age order is the order of the
 * intrusive list, and ids are monotonic in it.
 */

#ifndef MENDA_MEM_REQUEST_QUEUE_HH
#define MENDA_MEM_REQUEST_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "mem/request.hh"

namespace menda::mem
{

/**
 * A bounded FIFO of outstanding block requests. The read queue optionally
 * coalesces; the write queue never does (stores carry distinct data).
 */
class RequestQueue
{
  public:
    /** Invalid slot sentinel (list terminator). */
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** What RequestQueue::insert did with a request. */
    enum class Insert : std::uint8_t
    {
        Rejected, ///< queue full, no matching slot
        Fresh,    ///< a new slot was allocated
        Merged,   ///< coalesced into an existing slot
    };

    /**
     * @param entries   queue capacity (Tab. 1: 32 for both RD and WR)
     * @param coalesce  enable CAM matching of incoming loads
     */
    RequestQueue(std::size_t entries, bool coalesce);

    bool full() const { return size_ >= entries_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return entries_; }

    /**
     * Try to insert @p req. Returns true if it was accepted — either into
     * a fresh slot or merged into an existing one (reads only). Returns
     * false when the queue is full and no slot matches.
     */
    bool
    enqueue(const MemRequest &req)
    {
        std::uint32_t slot;
        return insert(req, slot) != Insert::Rejected;
    }

    /**
     * Like enqueue(), but reports what happened and which slot the
     * request landed in (valid unless Rejected), so callers indexing
     * requests by slot (the memory controller's per-bank scheduler
     * bookkeeping) need not rediscover it.
     */
    Insert insert(const MemRequest &req, std::uint32_t &slot_out);

    /** Oldest request. Queue must be non-empty. */
    const MemRequest &front() const { return slots_[head_].req; }

    // --- O(1) slot-handle interface (age order = list order) ---
    /** Slot of the oldest request, or npos when empty. */
    std::uint32_t headSlot() const { return head_; }
    /** Next-younger slot after @p slot, or npos at the tail. */
    std::uint32_t nextSlot(std::uint32_t slot) const
    {
        return slots_[slot].next;
    }
    const MemRequest &slotAt(std::uint32_t slot) const
    {
        return slots_[slot].req;
    }
    MemRequest &slotAt(std::uint32_t slot) { return slots_[slot].req; }

    /** Remove the request in @p slot (any position) in O(1). */
    MemRequest removeSlot(std::uint32_t slot);

    // --- position interface (0 = oldest; walks the list, O(i)) ---
    /** Access entry @p i for age-ordered scans (reference scheduler). */
    const MemRequest &at(std::size_t i) const
    {
        return slots_[slotOf(i)].req;
    }
    MemRequest &at(std::size_t i) { return slots_[slotOf(i)].req; }

    /** Remove entry @p i once its last command has been issued. */
    MemRequest remove(std::size_t i) { return removeSlot(slotOf(i)); }

    /** Loads merged into an already-occupied slot. */
    const Counter &coalescedHits() const { return coalescedHits_; }

  private:
    struct Slot
    {
        MemRequest req;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    std::uint32_t slotOf(std::size_t i) const;

    std::size_t entries_;
    bool coalesce_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeList_;
    std::uint32_t head_ = npos;
    std::uint32_t tail_ = npos;
    std::size_t size_ = 0;
    std::uint64_t nextId_ = 0;

    /**
     * CAM model: block address -> occupied read slot. Only maintained
     * when coalescing is on; at most one read slot per address can then
     * be live (a second arrival merges instead of allocating).
     */
    std::unordered_map<Addr, std::uint32_t> readSlotByAddr_;

    Counter coalescedHits_;

#ifdef MENDA_CHECKS
    /** Invariant checker: which slots are currently on the live list. */
    std::vector<bool> live_;
#endif
};

} // namespace menda::mem

#endif // MENDA_MEM_REQUEST_QUEUE_HH
