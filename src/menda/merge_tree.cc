#include "menda/merge_tree.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace menda::core
{

MergeTree::MergeTree(const PuConfig &config, MergeKey key)
    : leaves_(config.leaves),
      key_(key),
      rootOut_(config.fifoEntries)
{
    if (leaves_ < 2 || (leaves_ & (leaves_ - 1)) != 0)
        menda_fatal("merge tree needs a power-of-two leaf count >= 2, got ",
                    leaves_);
    levels_ = static_cast<unsigned>(std::countr_zero(leaves_));
    pes_.reserve(peCount());
    for (unsigned p = 0; p < peCount(); ++p)
        pes_.emplace_back(config.fifoEntries);
    scheduledEpoch_.assign(peCount(), 0);
#ifdef MENDA_CHECKS
    lastPeKey_.assign(peCount(), 0);
    peHasLast_.assign(peCount(), false);
#endif
}

bool
MergeTree::canPush(unsigned slot) const
{
    menda_assert(slot < streamSlots(), "bad stream slot");
    const unsigned pe = leaves_ / 2 - 1 + slot / 2;
    return !pes_[pe].in[slot % 2].full();
}

void
MergeTree::push(unsigned slot, const Packet &packet)
{
    menda_assert(canPush(slot), "push to full stream slot");
    const unsigned pe = leaves_ / 2 - 1 + slot / 2;
    pes_[pe].in[slot % 2].push(packet);
    ++buffered_;
    schedule(pe);
}

Packet
MergeTree::pop()
{
    Packet packet = rootOut_.pop();
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

Fifo<Packet> &
MergeTree::outputOf(unsigned pe, bool &is_root)
{
    if (pe == 0) {
        is_root = true;
        return rootOut_;
    }
    is_root = false;
    return pes_[(pe - 1) / 2].in[(pe - 1) % 2];
}

void
MergeTree::schedule(unsigned pe)
{
    if (scheduledEpoch_[pe] == epoch_ + 1)
        return;
    scheduledEpoch_[pe] = epoch_ + 1;
    next_.push_back(pe);
}

void
MergeTree::scheduleNeighbours(unsigned pe)
{
    schedule(pe);
    if (pe != 0)
        schedule((pe - 1) / 2);
    const unsigned left = 2 * pe + 1;
    if (left < peCount())
        schedule(left);
    const unsigned right = 2 * pe + 2;
    if (right < peCount())
        schedule(right);
}

bool
MergeTree::evaluate(unsigned pe)
{
    Pe &node = pes_[pe];
    bool changed = false;

    // Absorb empty-stream tokens: pure control, no data slot consumed.
    for (int side = 0; side < 2; ++side) {
        if (!node.terminated[side] && !node.in[side].empty() &&
            !node.in[side].front().valid) {
            menda_assert(node.in[side].front().eol,
                         "invalid packet without EOL");
            node.in[side].pop();
            --buffered_;
            node.terminated[side] = true;
            noteLeafPop(pe, side);
            changed = true;
        }
    }

    bool is_root = false;
    Fifo<Packet> &out = outputOf(pe, is_root);
    if (out.full())
        return changed;

    const bool have[2] = {
        !node.terminated[0] && !node.in[0].empty(),
        !node.terminated[1] && !node.in[1].empty(),
    };

    if (node.terminated[0] && node.terminated[1]) {
        // Both streams of this round were empty (or ended on absorbed
        // tokens): propagate a pure end-of-line and start the next round.
        out.push(Packet::endOfLine());
        ++buffered_;
        node.terminated[0] = node.terminated[1] = false;
#ifdef MENDA_CHECKS
        peHasLast_[pe] = false;
#endif
        return true;
    }

    // A PE only pops when each side has either supplied a packet or
    // finished its stream — otherwise a smaller index might still arrive.
    if ((!have[0] && !node.terminated[0]) ||
        (!have[1] && !node.terminated[1]))
        return changed;

    int side;
    if (have[0] && have[1]) {
        // Tie pops the LEFT child: stability keeps equal merge indices in
        // leaf order, i.e. ascending secondary index.
        side = mergeKey(node.in[0].front(), key_) <=
                       mergeKey(node.in[1].front(), key_)
                   ? 0
                   : 1;
    } else {
        side = have[0] ? 0 : 1;
    }

    Packet packet = node.in[side].pop();
    noteLeafPop(pe, side);
    if (packet.eol)
        node.terminated[side] = true;
    packet.eol = node.terminated[0] && node.terminated[1];
    if (packet.eol) {
        // Last element of the merged stream: round completes here.
        node.terminated[0] = node.terminated[1] = false;
    }
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
    out.push(packet);
    return true;
}

void
MergeTree::noteLeafPop(unsigned pe, int side)
{
    const unsigned first_leaf = leaves_ / 2 - 1;
    if (pe >= first_leaf)
        freedSlots_.push_back((pe - first_leaf) * 2 +
                              static_cast<unsigned>(side));
}

void
MergeTree::tick()
{
    freedSlots_.clear();
    occupancyCycles_ += buffered_;
    ++epoch_;
    current_.swap(next_);
    next_.clear();
    // Parents before children: a packet advances one level per cycle.
    std::sort(current_.begin(), current_.end());
    for (unsigned pe : current_) {
        if (evaluate(pe))
            scheduleNeighbours(pe);
    }
    current_.clear();
}

bool
MergeTree::drained() const
{
    if (!rootOut_.empty())
        return false;
    for (const Pe &node : pes_) {
        if (!node.in[0].empty() || !node.in[1].empty())
            return false;
        if (node.terminated[0] || node.terminated[1])
            return false;
    }
    return true;
}

} // namespace menda::core
