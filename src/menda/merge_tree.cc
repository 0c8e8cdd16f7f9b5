#include "menda/merge_tree.hh"

#include <bit>

#include "common/log.hh"

namespace menda::core
{

MergeTree::MergeTree(const PuConfig &config, MergeKey key)
    : leaves_(config.leaves),
      entries_(config.fifoEntries),
      key_(key)
{
    if (leaves_ < 2 || (leaves_ & (leaves_ - 1)) != 0)
        menda_fatal("merge tree needs a power-of-two leaf count >= 2, got ",
                    leaves_);
    if (entries_ < 1 || entries_ > 255)
        menda_fatal("merge tree FIFOs need 1..255 entries, got ", entries_);
    levels_ = static_cast<unsigned>(std::countr_zero(leaves_));
    const unsigned nodes = 2 * leaves_ - 1;
    fifos_.assign(nodes, Node{});
    slots_.assign(static_cast<std::size_t>(nodes) * entries_, Packet{});
    current_.assign((peCount() + 63) / 64, 0);
    next_.assign(current_.size(), 0);
#ifdef MENDA_CHECKS
    lastPeKey_.assign(peCount(), 0);
    peHasLast_.assign(peCount(), false);
#endif
}

inline void
MergeTree::popFrom(unsigned k)
{
    Node &f = fifos_[k];
#ifdef MENDA_CHECKS
    menda_assert(f.size > 0, "pop from empty merge-tree FIFO ", k);
#endif
    f.tokens -= !slots_[k * entries_ + f.head].valid;
    f.head = f.head + 1u == entries_ ? 0
                                     : static_cast<std::uint8_t>(f.head + 1);
    --f.size;
}

inline void
MergeTree::pushTo(unsigned k, const Packet &packet)
{
    Node &f = fifos_[k];
#ifdef MENDA_CHECKS
    menda_assert(f.size < entries_, "push to full merge-tree FIFO ", k);
#endif
    unsigned tail = f.head + f.size;
    if (tail >= entries_)
        tail -= entries_;
    slots_[k * entries_ + tail] = packet;
    f.tokens += !packet.valid;
    ++f.size;
}

bool
MergeTree::canPush(unsigned slot) const
{
    menda_assert(slot < streamSlots(), "bad stream slot");
    return fifos_[leaves_ - 1 + slot].size < entries_;
}

void
MergeTree::push(unsigned slot, const Packet &packet)
{
    menda_assert(canPush(slot), "push to full stream slot");
    const unsigned k = leaves_ - 1 + slot;
    pushTo(k, packet);
    ++buffered_;
    schedule((k - 1) / 2);
}

Packet
MergeTree::pop()
{
    menda_assert(canPop(), "pop from empty merge tree");
    const Packet packet = frontOf(0);
    popFrom(0);
    --buffered_;
#ifdef MENDA_CHECKS
    if (packet.valid) {
        menda_assert(!rootHasLast_ ||
                         mergeKey(packet, key_) >= lastRootKey_,
                     "merge tree root emitted a decreasing key within "
                     "a round");
        rootHasLast_ = true;
        lastRootKey_ = mergeKey(packet, key_);
    }
    if (packet.eol)
        rootHasLast_ = false;
#endif
    if (packet.valid)
        ++rootPops_;
    if (packet.eol)
        ++roundsDone_;
    schedule(0);
    return packet;
}

inline void
MergeTree::scheduleNeighbours(unsigned pe)
{
    schedule(pe);
    if (pe != 0)
        schedule((pe - 1) / 2);
    // Leaf PEs have stream slots, not PEs, as children.
    if (pe < leaves_ / 2 - 1) {
        schedule(2 * pe + 1);
        schedule(2 * pe + 2);
    }
}

inline void
MergeTree::noteFifoPop(unsigned k)
{
    if (k >= leaves_ - 1)
        freedSlots_.push_back(k - (leaves_ - 1));
}

unsigned
MergeTree::absorbTokens(unsigned pe, unsigned eol, unsigned sides)
{
    for (unsigned side = 0; side < 2; ++side) {
        const unsigned k = 2 * pe + 1 + side;
        if ((sides & (1u << side)) && !frontOf(k).valid) {
            menda_assert(frontOf(k).eol, "invalid packet without EOL");
            popFrom(k);
            --buffered_;
            eol |= 1u << side;
            noteFifoPop(k);
        }
    }
    return eol;
}

inline bool
MergeTree::evaluate(unsigned pe)
{
    const unsigned in0 = 2 * pe + 1;
    Node &node = fifos_[pe];
    const Node &left = fifos_[in0];
    const Node &right = fifos_[in0 + 1];
    unsigned eol = node.eol;
    bool changed = false;

    // Absorb empty-stream tokens: pure control, no data slot consumed.
    // Only an input still in its stream with a token buffered can have
    // one at its front.
    const unsigned maybe_token =
        ~eol & ((left.tokens != 0) | (right.tokens != 0) << 1);
    if (maybe_token != 0) [[unlikely]] {
        const unsigned before = eol;
        eol = absorbTokens(pe, eol, maybe_token);
        changed = eol != before;
    }

    // A PE only pops when each side has either supplied a packet or
    // finished its stream — otherwise a smaller index might still arrive.
    const unsigned ready = eol | (left.size != 0) | (right.size != 0) << 1;
    if (node.size == entries_ || ready != 3u) {
        node.eol = static_cast<std::uint8_t>(eol);
        return changed;
    }

    if (eol == 3u) {
        // Both streams of this round were empty (or ended on absorbed
        // tokens): propagate a pure end-of-line and start the next round.
        node.eol = 0;
        pushTo(pe, Packet::endOfLine());
        ++buffered_;
#ifdef MENDA_CHECKS
        peHasLast_[pe] = false;
#endif
        return true;
    }

    // Tie pops the LEFT child: stability keeps equal merge indices in
    // leaf order, i.e. ascending secondary index. A side whose stream
    // ended this round waits for the other.
    unsigned side;
    if (eol != 0)
        side = eol == 1u ? 1 : 0;
    else
        side = mergeKey(frontOf(in0), key_) <=
                       mergeKey(frontOf(in0 + 1), key_)
                   ? 0
                   : 1;

    const unsigned k = in0 + side;
    Packet packet = frontOf(k);
    popFrom(k);
    noteFifoPop(k);
    if (packet.eol)
        eol |= 1u << side;
    packet.eol = eol == 3u;
    if (packet.eol) {
        // Last element of the merged stream: round completes here.
        eol = 0;
    }
    node.eol = static_cast<std::uint8_t>(eol);
#ifdef MENDA_CHECKS
    if (packet.valid) {
        menda_assert(!peHasLast_[pe] ||
                         mergeKey(packet, key_) >= lastPeKey_[pe],
                     "merge PE forwarded a decreasing key within a round");
        peHasLast_[pe] = true;
        lastPeKey_[pe] = mergeKey(packet, key_);
    }
    if (packet.eol)
        peHasLast_[pe] = false;
#endif
    pushTo(pe, packet);
    return true;
}

void
MergeTree::tick()
{
    freedSlots_.clear();
    occupancyCycles_ += buffered_;
    // Scheduling during the walk lands in next_, so current_ is stable.
    // Ascending bit order visits parents before children: a packet
    // advances one level per cycle.
    current_.swap(next_);
    for (std::size_t w = 0; w < current_.size(); ++w) {
        std::uint64_t bits = current_[w];
        if (bits == 0)
            continue;
        current_[w] = 0;
        const unsigned base = static_cast<unsigned>(w * 64);
        do {
            const unsigned pe =
                base + static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (evaluate(pe))
                scheduleNeighbours(pe);
        } while (bits != 0);
    }
}

bool
MergeTree::drained() const
{
    for (const Node &node : fifos_)
        if (node.size != 0 || node.eol != 0)
            return false;
    return true;
}

} // namespace menda::core
