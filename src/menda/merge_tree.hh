/**
 * @file
 * The hardware multi-way merge tree (Sec. 3.2, 3.3).
 *
 * An l-leaf tree has l-1 PEs in log2(l) levels. Each PE is connected to
 * its two children through 2-entry FIFOs, so every PE can move one packet
 * per cycle with no root-to-leaf critical path. A PE forwards the child
 * packet whose merge index (column for transposition, row for SpMV) is
 * smaller; ties pop the left child, keeping the merge stable. End-of-line
 * bits delimit sorted streams and let consecutive rounds of merge sort
 * flow through back-to-back with no drain/refill stalls (Sec. 3.3).
 *
 * Layout: the tree is a binary heap of 2l-1 nodes, and FIFO k is the
 * output of node k. Node 0 is the root PE, nodes 1..l-2 are the inner
 * PEs and nodes l-1..2l-2 are the stream slots. PE p reads FIFOs 2p+1
 * (left) and 2p+2 (right) and writes FIFO p; FIFO 0 is the root output.
 * All packets sit in one flat array, FIFO k owning entries
 * [k*fifoEntries, (k+1)*fifoEntries).
 *
 * Timing model: a tick visits, in ascending PE id (parents before
 * children), only the PEs scheduled for it: those next to a FIFO that
 * changed on the previous tick or since (a push, a root pop, or a move
 * of a neighbouring PE). A FIFO change is seen by a PE visited later in
 * the same tick, so a scheduled child can refill the slot its parent
 * freed this cycle. An unscheduled child cannot, because it is not
 * visited. The schedule is therefore part of the timing model, not just
 * a speed-up: visiting every PE each tick in the same order would give
 * different cycle counts (DESIGN.md Sec. 2). It costs O(log l) PE visits
 * per popped element instead of O(l).
 */

#ifndef MENDA_MENDA_MERGE_TREE_HH
#define MENDA_MENDA_MERGE_TREE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "menda/packet.hh"
#include "menda/pu_config.hh"

namespace menda::core
{

class MergeTree
{
  public:
    /** Throws (menda_fatal) unless leaves is a power of two >= 2 and
     *  1 <= fifoEntries <= 255. */
    MergeTree(const PuConfig &config, MergeKey key);

    unsigned leaves() const { return leaves_; }
    unsigned peCount() const { return leaves_ - 1; }
    unsigned levels() const { return levels_; }

    /** The merge key every PE compares. */
    MergeKey key() const { return key_; }

    /** Stream slots (== leaves); slot s feeds leaf PE s/2, side s%2. */
    unsigned streamSlots() const { return leaves_; }

    /** True if stream slot @p slot can accept a packet this cycle. */
    bool canPush(unsigned slot) const;

    /** Push a packet into stream slot @p slot (prefetch buffer side). */
    void push(unsigned slot, const Packet &packet);

    /** True if the root has produced a packet that can be popped. */
    bool canPop() const { return fifos_[0].size != 0; }

    /** Peek the root output. */
    const Packet &front() const { return slots_[fifos_[0].head]; }

    /** Pop the root output (output buffer side). */
    Packet pop();

    /** Advance every scheduled PE by one cycle. */
    void tick();

    /**
     * Stream slots whose leaf FIFO gained space during the last tick().
     * The PU uses this to wake prefetch buffers that were blocked on a
     * full leaf FIFO. Cleared at the start of every tick.
     */
    const std::vector<unsigned> &freedSlots() const { return freedSlots_; }

    /** True when no packet is buffered anywhere in the tree. */
    bool drained() const;

    /** Number of data packets popped from the root so far. */
    std::uint64_t rootPops() const { return rootPops_.value(); }

    /** Root-side end-of-line tokens emitted (== rounds completed). */
    std::uint64_t roundsCompleted() const { return roundsDone_.value(); }

    /**
     * Sum over ticks of the packets buffered anywhere in the tree
     * (PE FIFOs + root FIFO). Divided by the PU cycle count this gives
     * the mean tree occupancy in packets — the utilization figure the
     * Fig. 12 ablation bench reports next to the stall counters.
     */
    std::uint64_t occupancyPacketCycles() const
    {
        return occupancyCycles_.value();
    }

    /** Packets currently buffered anywhere in the tree. */
    std::uint64_t occupancy() const { return buffered_; }

  private:
    /**
     * Per heap node: the ring state of its output FIFO, the number of
     * empty-stream tokens in it (so a visit with none to absorb reads no
     * packet) and, for a PE, the end-of-line flags of its two inputs
     * (bit 0 left, bit 1 right: that input's stream ended this round).
     * Four bytes, so the state of a PE's three FIFOs sits on one or two
     * cache lines.
     */
    struct Node
    {
        std::uint8_t head = 0;   ///< ring index of the oldest packet
        std::uint8_t size = 0;   ///< packets buffered
        std::uint8_t eol = 0;    ///< PE only: inputs that ended this round
        std::uint8_t tokens = 0; ///< empty-stream tokens buffered
    };

    /** Evaluate PE @p pe; returns true if any state changed. */
    bool evaluate(unsigned pe);

    /**
     * Pop the empty-stream tokens at the front of the inputs of PE @p pe
     * named in @p sides (bit per side); returns @p eol with the sides
     * that absorbed one set.
     */
    unsigned absorbTokens(unsigned pe, unsigned eol, unsigned sides);

    /** Oldest packet of FIFO @p k (must be non-empty). */
    Packet &frontOf(unsigned k)
    {
        return slots_[k * entries_ + fifos_[k].head];
    }
    /** Drop the oldest packet of FIFO @p k (must be non-empty). */
    void popFrom(unsigned k);
    /** Append @p packet to FIFO @p k (must not be full). */
    void pushTo(unsigned k, const Packet &packet);

    void schedule(unsigned pe)
    {
        next_[pe >> 6] |= std::uint64_t{1} << (pe & 63);
    }
    void scheduleNeighbours(unsigned pe);
    /** Record that a packet left FIFO @p k (a stream slot if k >= l-1). */
    void noteFifoPop(unsigned k);

    unsigned leaves_;
    unsigned levels_;
    unsigned entries_; ///< fifoEntries: capacity of every FIFO
    MergeKey key_;

    std::vector<Node> fifos_;    ///< 2l-1 nodes in heap order
    std::vector<Packet> slots_;  ///< (2l-1) * entries_ packets
    std::vector<unsigned> freedSlots_;

    // Active set: bit p of current_ (next_) schedules PE p for this
    // (the next) tick. current_ is all zero outside tick().
    std::vector<std::uint64_t> current_;
    std::vector<std::uint64_t> next_;

    Counter rootPops_, roundsDone_, occupancyCycles_;
    std::uint64_t buffered_ = 0; ///< packets currently in any FIFO

#ifdef MENDA_CHECKS
    // Invariant-checker state: the last merge key each PE (and the root
    // consumer) emitted in the current round. Every output stream of a
    // correct merge is non-decreasing between end-of-line tokens.
    std::vector<std::uint64_t> lastPeKey_;
    std::vector<bool> peHasLast_;
    std::uint64_t lastRootKey_ = 0;
    bool rootHasLast_ = false;
#endif
};

} // namespace menda::core

#endif // MENDA_MENDA_MERGE_TREE_HH
