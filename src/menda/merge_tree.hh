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
 * Simulation note: the model is cycle-accurate but visits a PE only on
 * cycles where one of its FIFOs changed ("active set"). Because a PE
 * moves at most one packet per cycle and its inputs/outputs only change
 * through its neighbours, a PE that stalled with unchanged FIFOs would
 * stall again — skipping it is exact, and the per-popped-element cost
 * drops from O(l) to O(log l).
 */

#ifndef MENDA_MENDA_MERGE_TREE_HH
#define MENDA_MENDA_MERGE_TREE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "menda/packet.hh"
#include "menda/pu_config.hh"
#include "sim/fifo.hh"

namespace menda::core
{

class MergeTree
{
  public:
    MergeTree(const PuConfig &config, MergeKey key);

    unsigned leaves() const { return leaves_; }
    unsigned peCount() const { return leaves_ - 1; }
    unsigned levels() const { return levels_; }

    /** Stream slots (== leaves); slot s feeds leaf PE s/2, side s%2. */
    unsigned streamSlots() const { return leaves_; }

    /** True if stream slot @p slot can accept a packet this cycle. */
    bool canPush(unsigned slot) const;

    /** Push a packet into stream slot @p slot (prefetch buffer side). */
    void push(unsigned slot, const Packet &packet);

    /** True if the root has produced a packet that can be popped. */
    bool canPop() const { return !rootOut_.empty(); }

    /** Peek the root output. */
    const Packet &front() const { return rootOut_.front(); }

    /** Pop the root output (output buffer side). */
    Packet pop();

    /** Advance every active PE by one cycle. */
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
    struct Pe
    {
        Fifo<Packet> in[2];      ///< FIFOs from the two children
        bool terminated[2] = {false, false}; ///< EOL seen this round

        Pe(unsigned fifo_entries)
            : in{Fifo<Packet>(fifo_entries), Fifo<Packet>(fifo_entries)}
        {}
    };

    /** Evaluate PE @p pe; returns true if any state changed. */
    bool evaluate(unsigned pe);

    /** Output FIFO of PE @p pe: root FIFO for 0, else parent input. */
    Fifo<Packet> &outputOf(unsigned pe, bool &is_root);

    void schedule(unsigned pe);
    void scheduleNeighbours(unsigned pe);
    void noteLeafPop(unsigned pe, int side);

    unsigned leaves_;
    unsigned levels_;
    MergeKey key_;

    std::vector<Pe> pes_;
    Fifo<Packet> rootOut_;
    std::vector<unsigned> freedSlots_;

    // Active-set scheduling.
    std::vector<unsigned> current_;
    std::vector<unsigned> next_;
    std::vector<std::uint64_t> scheduledEpoch_;
    std::uint64_t epoch_ = 1;

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
