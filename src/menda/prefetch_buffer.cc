#include "menda/prefetch_buffer.hh"

#include <algorithm>

#include "common/log.hh"

namespace menda::core
{

PrefetchBuffer::PrefetchBuffer(unsigned slot, const PuConfig &config,
                               const PuMemoryMap *map, ElementReader reader,
                               CondensedChunkPlanner condensed)
    : slot_(slot), config_(&config), map_(map), reader_(std::move(reader)),
      condensed_(std::move(condensed))
{
    // A buffer must hold at least one whole 64 B span (16 NZs), or long
    // streams could never make progress.
    menda_assert(config.prefetchBufferEntries >= elemsPerBlock,
                 "prefetch buffers need >= 16 entries");
}

void
PrefetchBuffer::assign(const StreamDesc &desc)
{
    menda_assert(assignments_.size() < 2, "assignment queue overflow");
    const bool was_empty = assignments_.empty();
    assignments_.push_back(desc);
    if (was_empty)
        cursor_ = desc.begin;
    maybeStartChunk();
}

Packet
PrefetchBuffer::popPacket()
{
    menda_assert(!ready_.empty(), "pop from empty prefetch buffer");
    Packet packet = ready_.front();
    ready_.pop_front();
    if (packet.valid) {
        menda_assert(occupancy_ > 0, "occupancy underflow");
        --occupancy_;
    }
    maybeStartChunk();
    return packet;
}

void
PrefetchBuffer::drainTrivialAssignments()
{
    while (!assignments_.empty() && cursor_ >= assignments_.front().end) {
        if (assignments_.front().empty()) {
            // Empty stream: hand the leaf a pure end-of-line token.
            ready_.push_back(Packet::endOfLine());
        }
        assignments_.pop_front();
        if (!assignments_.empty())
            cursor_ = assignments_.front().begin;
    }
}

void
PrefetchBuffer::maybeStartChunk()
{
    if (chunk_.active)
        return; // at most one chunk of outstanding requests (Sec. 3.4)
    drainTrivialAssignments();
    if (assignments_.empty())
        return;

    const StreamDesc &desc = assignments_.front();

    // Chunk granularity is one 64 B span of the backing arrays (the
    // "16 NZs" of the paper's Sec. 3.4 example); stream tails shorter
    // than a span are taken whole. The policies differ in *when* a
    // request launches: stall-reducing prefetching tops up as soon as
    // the next span fits in free space, the ablation baseline only
    // requests once the buffer has completely drained.
    const std::uint64_t space =
        config_->prefetchBufferEntries - occupancy_;
    if (!config_->stallReducingPrefetch && occupancy_ != 0) {
        // Baseline ("load requests as soon as the prefetch buffers
        // become empty"): no request while any data remains, so each
        // drain costs a full memory round trip — the stall the
        // optimization removes.
        return;
    }
    std::uint64_t chunk_end = 0;
    std::vector<Addr> condensed_blocks;
    if (desc.source == StreamSource::CondensedLeaf) {
        // Packed leaf: the virtual-to-physical mapping lives in the PU;
        // its planner bounds the chunk to one packed sub-stream's share
        // of one aligned B span and names the physical blocks.
        menda_assert(static_cast<bool>(condensed_),
                     "condensed stream without a chunk planner");
        chunk_end = condensed_(desc, cursor_, condensed_blocks);
        menda_assert(chunk_end > cursor_ && chunk_end <= desc.end,
                     "condensed chunk out of stream bounds");
    } else {
        const std::uint64_t span_end =
            (cursor_ / elemsPerBlock + 1) * elemsPerBlock;
        chunk_end = std::min<std::uint64_t>(desc.end, span_end);
    }
    const std::uint64_t count = chunk_end - cursor_;
    menda_assert(count > 0, "empty chunk");
    if (count > space)
        return; // the next span does not fit yet

    chunk_.active = true;
    chunk_.firstElem = cursor_;
    chunk_.count = count;
    chunk_.desc = desc;
    chunk_.blocksToIssue.clear();
    chunk_.blocksAwaited.clear();
    if (desc.source == StreamSource::CondensedLeaf) {
        chunk_.blocksToIssue = std::move(condensed_blocks);
    } else {
        for (std::uint64_t span = cursor_ / elemsPerBlock;
             span <= (chunk_end - 1) / elemsPerBlock; ++span) {
            const std::uint64_t elem = span * elemsPerBlock;
            switch (desc.source) {
              case StreamSource::CsrRow:
              case StreamSource::CscColumn:
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(Region::ColIdx, elem));
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(Region::NzVal, elem));
                break;
              case StreamSource::Coo:
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(map_->cooRow(desc.cooBuffer), elem));
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(map_->cooCol(desc.cooBuffer), elem));
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(map_->cooVal(desc.cooBuffer), elem));
                break;
              case StreamSource::ScaledBRow:
                // SpGEMM partial product: the stream is a row of the
                // replicated B operand; the scaling factor A(i, k) rode
                // in with the stream descriptor, so only B's arrays are
                // read.
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(Region::BColIdx, elem));
                chunk_.blocksToIssue.push_back(
                    map_->blockOf(Region::BNzVal, elem));
                break;
              case StreamSource::CondensedLeaf:
                break; // handled above
            }
        }
    }
    occupancy_ += static_cast<unsigned>(count);

    cursor_ = chunk_end;
    if (cursor_ >= desc.end) {
        // Stream fully planned; advance to the next assignment so the
        // controller can queue one more behind it.
        assignments_.pop_front();
        if (!assignments_.empty())
            cursor_ = assignments_.front().begin;
    }
}

Addr
PrefetchBuffer::pendingBlock() const
{
    if (!chunk_.active || chunk_.blocksToIssue.empty())
        return 0;
    return chunk_.blocksToIssue.back();
}

void
PrefetchBuffer::issuedBlock()
{
    menda_assert(chunk_.active && !chunk_.blocksToIssue.empty(),
                 "issuedBlock without pending block");
    chunk_.blocksAwaited.push_back(chunk_.blocksToIssue.back());
    chunk_.blocksToIssue.pop_back();
    ++blocksReq_;
}

bool
PrefetchBuffer::fillFromResponse(Addr block_addr)
{
    if (!chunk_.active)
        return false;
    auto it = std::find(chunk_.blocksAwaited.begin(),
                        chunk_.blocksAwaited.end(), block_addr);
    if (it == chunk_.blocksAwaited.end())
        return false;
    chunk_.blocksAwaited.erase(it);
    if (!chunk_.blocksAwaited.empty() || !chunk_.blocksToIssue.empty())
        return true;

    // All backing blocks arrived: decode the chunk into packets.
    for (std::uint64_t k = chunk_.firstElem;
         k < chunk_.firstElem + chunk_.count; ++k)
        ready_.push_back(reader_(chunk_.desc, k));
    chunk_.active = false;
    maybeStartChunk();
    return true;
}

} // namespace menda::core
