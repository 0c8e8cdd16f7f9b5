/**
 * @file
 * Output buffer behind the root PE (Sec. 3.2).
 *
 * Collects the packets popped from the root, assembles them into 64 B
 * blocks per destination array, and emits store requests at block
 * granularity. In intermediate iterations the destination is a COO
 * ping-pong buffer (row/col/val arrays) and the unit records each merged
 * stream's bounds for the next iteration. In the final iteration the
 * destination is the output CSC (ptr/idx/val): the unit synthesizes the
 * column pointer array on the fly as the column index advances, which is
 * the pointer-update traffic the paper's throughput discussion calls out
 * (Sec. 6.5). SpMV iterations store (index, value) pairs, and the SpMV
 * final iteration stores a dense vector (Sec. 3.6).
 */

#ifndef MENDA_MENDA_OUTPUT_UNIT_HH
#define MENDA_MENDA_OUTPUT_UNIT_HH

#include <deque>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "menda/memory_map.hh"
#include "menda/packet.hh"
#include "menda/pu_config.hh"

namespace menda::core
{

/** What one iteration writes back to memory. */
enum class OutputMode : std::uint8_t
{
    CooIntermediate,  ///< transposition/SpGEMM, more iterations follow
    CscFinal,         ///< transposition, last iteration (ptr/idx/val)
    PairIntermediate, ///< SpMV, (index, value) pairs
    DenseFinal,       ///< SpMV, dense result vector
    CsrFinal,         ///< SpGEMM, last iteration: row-pointer synthesis
};

/** Functional sink for merged non-zeros. */
struct MergedOutput
{
    std::vector<Index> row;
    std::vector<Index> col;
    std::vector<Value> val;

    void
    clear()
    {
        row.clear();
        col.clear();
        val.clear();
    }

    std::uint64_t size() const { return row.size(); }
};

class OutputUnit
{
  public:
    OutputUnit(const PuConfig &config, const PuMemoryMap *map);

    /**
     * Arm the unit for one iteration.
     * @param mode            what to write (see OutputMode)
     * @param dst_coo         ping-pong buffer index for intermediates
     * @param expected_rounds end-of-line tokens before the iteration ends
     * @param total_cols      pointer entries - 1 (CscFinal only)
     */
    void beginIteration(OutputMode mode, int dst_coo,
                        std::uint64_t expected_rounds, Index total_cols);

    /** True if the unit can accept a packet from the root this cycle. */
    bool
    canAccept() const
    {
        return pendingStores_.size() < config_->outputPendingStores;
    }

    /** Consume one packet popped from the root PE. */
    void accept(const Packet &packet);

    /** Pre-size the merged arrays (fast tiers know the element count). */
    void
    reserveMerged(std::size_t elements)
    {
        merged_.row.reserve(merged_.row.size() + elements);
        merged_.col.reserve(merged_.col.size() + elements);
        merged_.val.reserve(merged_.val.size() + elements);
    }

    /** Pending store blocks awaiting the PU's store port. */
    bool hasPendingStore() const { return !pendingStores_.empty(); }
    Addr nextStore() const { return pendingStores_.front(); }
    void storeIssued();

    /** All rounds seen and every store block handed to the write queue. */
    bool
    iterationDone() const
    {
        return roundsSeen_ == expectedRounds_ && pendingStores_.empty();
    }

    /** Per-round output bounds recorded this iteration. */
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &
    roundBounds() const
    {
        return roundBounds_;
    }

    /** Functional merged data of this iteration. */
    const MergedOutput &merged() const { return merged_; }

    std::uint64_t storesQueued() const { return stores_.value(); }

    /** Cycles the root had data while this unit was back-pressured. */
    std::uint64_t stallCycles() const { return stalls_.value(); }

    /** Count a cycle the root had data but the unit was back-pressured. */
    void noteStall() { ++stalls_; }

  private:
    /** One destination array filling up block by block. */
    struct ArraySink
    {
        Region region = Region::OutIdx;
        std::uint64_t elements = 0;
    };

    /** Append @p count elements to @p sink, emitting completed blocks. */
    void append(ArraySink &sink, std::uint64_t count);

    /** Emit the trailing partial block of @p sink, if any. */
    void flush(ArraySink &sink);

    /** Emit pointer entries up to and including column @p col. */
    void advancePointer(Index col);

    void finishIteration();
    void pushStore(Addr block);

    const PuConfig *config_;
    const PuMemoryMap *map_;

    OutputMode mode_ = OutputMode::CscFinal;
    int dstCoo_ = 0;
    std::uint64_t expectedRounds_ = 0;
    std::uint64_t roundsSeen_ = 0;
    Index totalCols_ = 0;

    ArraySink rowSink_, colSink_, valSink_, ptrSink_;
    Index nextPtrEntry_ = 0;  ///< pointer entries emitted so far
    Addr denseBlock_ = ~Addr(0); ///< current dense-vector block

    std::deque<Addr> pendingStores_;
    std::uint64_t roundStart_ = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> roundBounds_;
    MergedOutput merged_;

    Counter stores_, stalls_;
};

} // namespace menda::core

#endif // MENDA_MENDA_OUTPUT_UNIT_HH
