#include "mem/request_queue.hh"

#include "common/log.hh"

namespace menda::mem
{

RequestQueue::RequestQueue(std::size_t entries, bool coalesce)
    : entries_(entries), coalesce_(coalesce), slots_(entries)
{
    menda_assert(entries > 0, "request queue needs at least one entry");
    menda_assert(entries < npos, "request queue capacity too large");
    freeList_.reserve(entries);
    for (std::uint32_t s = static_cast<std::uint32_t>(entries); s-- > 0;)
        freeList_.push_back(s);
    if (coalesce_)
        readSlotByAddr_.reserve(entries);
#ifdef MENDA_CHECKS
    live_.assign(entries, false);
#endif
}

RequestQueue::Insert
RequestQueue::insert(const MemRequest &req, std::uint32_t &slot_out)
{
    menda_assert(req.addr == blockAlign(req.addr),
                 "requests must be block aligned");
    if (coalesce_ && !req.isWrite) {
        // CAM address match against the occupied read slots.
        auto match = readSlotByAddr_.find(req.addr);
        if (match != readSlotByAddr_.end()) {
#ifdef MENDA_CHECKS
            menda_assert(live_[match->second],
                         "request coalesced into a freed slot");
#endif
            ++slots_[match->second].req.coalesced;
            ++coalescedHits_;
            slot_out = match->second;
            return Insert::Merged;
        }
    }
    if (full()) {
        slot_out = npos;
        return Insert::Rejected;
    }
    const std::uint32_t slot = freeList_.back();
    freeList_.pop_back();
    Slot &entry = slots_[slot];
    entry.req = req;
    entry.req.id = nextId_++;
    entry.prev = tail_;
    entry.next = npos;
    if (tail_ != npos)
        slots_[tail_].next = slot;
    else
        head_ = slot;
    tail_ = slot;
    ++size_;
    if (coalesce_ && !req.isWrite)
        readSlotByAddr_.emplace(req.addr, slot);
    slot_out = slot;
#ifdef MENDA_CHECKS
    menda_assert(!live_[slot], "free list handed out a live slot");
    live_[slot] = true;
    menda_assert(freeList_.size() + size_ == entries_,
                 "request queue slot accounting out of balance");
#endif
    return Insert::Fresh;
}

MemRequest
RequestQueue::removeSlot(std::uint32_t slot)
{
    menda_assert(slot < slots_.size() && size_ > 0,
                 "request queue remove out of range");
#ifdef MENDA_CHECKS
    menda_assert(live_[slot], "removed a slot that was not live");
#endif
    Slot &entry = slots_[slot];
    if (entry.prev != npos)
        slots_[entry.prev].next = entry.next;
    else
        head_ = entry.next;
    if (entry.next != npos)
        slots_[entry.next].prev = entry.prev;
    else
        tail_ = entry.prev;
    if (coalesce_ && !entry.req.isWrite) {
        auto match = readSlotByAddr_.find(entry.req.addr);
        if (match != readSlotByAddr_.end() && match->second == slot)
            readSlotByAddr_.erase(match);
    }
    --size_;
    freeList_.push_back(slot);
#ifdef MENDA_CHECKS
    live_[slot] = false;
    menda_assert(freeList_.size() + size_ == entries_,
                 "request queue slot accounting out of balance");
#endif
    return entry.req;
}

std::uint32_t
RequestQueue::slotOf(std::size_t i) const
{
    menda_assert(i < size_, "request queue index out of range");
    std::uint32_t slot = head_;
    while (i-- > 0)
        slot = slots_[slot].next;
    return slot;
}

} // namespace menda::mem
