#include "menda/output_unit.hh"

#include <algorithm>

#include "common/log.hh"

namespace menda::core
{

OutputUnit::OutputUnit(const PuConfig &config, const PuMemoryMap *map)
    : config_(&config), map_(map)
{
}

void
OutputUnit::beginIteration(OutputMode mode, int dst_coo,
                           std::uint64_t expected_rounds, Index total_cols)
{
    mode_ = mode;
    dstCoo_ = dst_coo;
    expectedRounds_ = expected_rounds;
    roundsSeen_ = 0;
    totalCols_ = total_cols;
    nextPtrEntry_ = 0;
    denseBlock_ = ~Addr(0);
    roundStart_ = 0;
    roundBounds_.clear();
    merged_.clear();
    pendingStores_.clear();

    switch (mode) {
      case OutputMode::CooIntermediate:
        rowSink_ = {map_->cooRow(dst_coo), 0};
        colSink_ = {map_->cooCol(dst_coo), 0};
        valSink_ = {map_->cooVal(dst_coo), 0};
        break;
      case OutputMode::CscFinal:
      case OutputMode::CsrFinal:
        // Index array holds row indices (CSC) or column indices (CSR);
        // either way one idx + one val element per merged non-zero and
        // an on-the-fly synthesized pointer array.
        colSink_ = {Region::OutIdx, 0};
        valSink_ = {Region::OutVal, 0};
        ptrSink_ = {Region::OutPtr, 0};
        break;
      case OutputMode::PairIntermediate:
        rowSink_ = {map_->cooRow(dst_coo), 0};
        valSink_ = {map_->cooVal(dst_coo), 0};
        break;
      case OutputMode::DenseFinal:
        break;
    }

    if (expectedRounds_ == 0) {
        // Degenerate slice with no streams at all: the iteration still
        // writes its (all-zero) pointer array in CscFinal mode.
        finishIteration();
    }
}

void
OutputUnit::pushStore(Addr block)
{
    pendingStores_.push_back(block);
}

void
OutputUnit::append(ArraySink &sink, std::uint64_t count)
{
    while (count > 0) {
        const std::uint64_t in_block = sink.elements % elemsPerBlock;
        const std::uint64_t step =
            std::min(count, elemsPerBlock - in_block);
        const std::uint64_t block_first =
            sink.elements - in_block;
        sink.elements += step;
        count -= step;
        if (sink.elements % elemsPerBlock == 0)
            pushStore(map_->blockOf(sink.region, block_first));
    }
}

void
OutputUnit::flush(ArraySink &sink)
{
    if (sink.elements % elemsPerBlock != 0)
        pushStore(map_->blockOf(sink.region, sink.elements));
}

void
OutputUnit::advancePointer(Index col)
{
    // Pointer entry c holds the output offset of column c's first NZ;
    // entries [nextPtrEntry_, col] become final when an element of
    // column `col` is produced.
    if (col < nextPtrEntry_)
        return;
    append(ptrSink_, col + 1 - nextPtrEntry_);
    nextPtrEntry_ = col + 1;
}

void
OutputUnit::accept(const Packet &packet)
{
    menda_assert(canAccept(), "accept while back-pressured");
    if (packet.valid) {
        merged_.row.push_back(packet.row);
        merged_.col.push_back(packet.col);
        merged_.val.push_back(packet.val);
        switch (mode_) {
          case OutputMode::CooIntermediate:
            append(rowSink_, 1);
            append(colSink_, 1);
            append(valSink_, 1);
            break;
          case OutputMode::CscFinal:
            advancePointer(packet.col);
            append(colSink_, 1);
            append(valSink_, 1);
            break;
          case OutputMode::CsrFinal:
            // SpGEMM final: packets arrive in (row, col) order, so the
            // ROW index drives the pointer synthesis. totalCols_ holds
            // the slice's row count here.
            advancePointer(packet.row);
            append(colSink_, 1);
            append(valSink_, 1);
            break;
          case OutputMode::PairIntermediate:
            append(rowSink_, 1);
            append(valSink_, 1);
            break;
          case OutputMode::DenseFinal: {
            // Dense vector: one 4-byte element at position row.
            const Addr block = map_->blockOf(Region::OutVal, packet.row);
            if (block != denseBlock_) {
                if (denseBlock_ != ~Addr(0))
                    pushStore(denseBlock_);
                denseBlock_ = block;
            }
            break;
          }
        }
    }
    if (packet.eol) {
        ++roundsSeen_;
        menda_assert(roundsSeen_ <= expectedRounds_,
                     "more rounds than expected");
        roundBounds_.emplace_back(roundStart_, merged_.size());
        roundStart_ = merged_.size();
        if (roundsSeen_ == expectedRounds_)
            finishIteration();
    }
}

void
OutputUnit::finishIteration()
{
    switch (mode_) {
      case OutputMode::CooIntermediate:
        flush(rowSink_);
        flush(colSink_);
        flush(valSink_);
        break;
      case OutputMode::CscFinal:
      case OutputMode::CsrFinal:
        // Trailing pointer entries for columns (rows) past the last
        // non-zero.
        append(ptrSink_, totalCols_ + 1 - nextPtrEntry_);
        nextPtrEntry_ = totalCols_ + 1;
        flush(ptrSink_);
        flush(colSink_);
        flush(valSink_);
        break;
      case OutputMode::PairIntermediate:
        flush(rowSink_);
        flush(valSink_);
        break;
      case OutputMode::DenseFinal:
        if (denseBlock_ != ~Addr(0)) {
            pushStore(denseBlock_);
            denseBlock_ = ~Addr(0);
        }
        break;
    }
}

void
OutputUnit::storeIssued()
{
    menda_assert(!pendingStores_.empty(), "no pending store");
    pendingStores_.pop_front();
    ++stores_;
}

} // namespace menda::core
