/**
 * @file
 * Per-PU physical memory layout inside its DRAM rank.
 *
 * The page-coloring allocator (Sec. 3.5) places each PU's slice of the
 * row pointer / index / value arrays, the ping-pong COO intermediate
 * buffers, and the output CSC arrays in the PU's own rank so that no
 * request ever crosses the rank boundary. Regions are page aligned, which
 * is what lets page coloring steer them.
 */

#ifndef MENDA_MENDA_MEMORY_MAP_HH
#define MENDA_MENDA_MEMORY_MAP_HH

#include "common/types.hh"

namespace menda::core
{

/** 4-byte array elements per 64 B block. */
inline constexpr std::uint64_t elemsPerBlock = blockBytes / 4;

/** Aligned 64 B spans of a 4-byte-element array covering [begin, end). */
constexpr std::uint64_t
spanBlocks(std::uint64_t begin, std::uint64_t end)
{
    if (begin >= end)
        return 0;
    return (end - 1) / elemsPerBlock - begin / elemsPerBlock + 1;
}

/** Identifies a simulated array for address computation. */
enum class Region : std::uint8_t
{
    RowPtr,    ///< input CSR row pointers (4 B entries)
    ColIdx,    ///< input CSR column indices (4 B)
    NzVal,     ///< input CSR values (4 B)
    CooRowA, CooColA, CooValA, ///< intermediate ping buffer
    CooRowB, CooColB, CooValB, ///< intermediate pong buffer
    OutPtr,    ///< output CSC column pointers (4 B)
    OutIdx,    ///< output CSC row indices (4 B)
    OutVal,    ///< output CSC values (4 B)
    VecIn,     ///< SpMV input vector x (4 B)
    AuxPtr,    ///< SpMV auxiliary pointer array (Sec. 3.6)
    BRowPtr,   ///< SpGEMM: replicated B row pointers (4 B)
    BColIdx,   ///< SpGEMM: replicated B column indices (4 B)
    BNzVal,    ///< SpGEMM: replicated B values (4 B)
};

/**
 * Base addresses for one PU. All arrays hold 4-byte elements, matching
 * the 32-bit indices/values of the packet format.
 */
class PuMemoryMap
{
  public:
    PuMemoryMap() = default;

    /**
     * Lay out regions for a slice with @p slice_rows rows, @p cols
     * columns, and @p slice_nnz non-zeros, starting at @p base (a
     * rank-local physical address, typically 0). SpGEMM additionally
     * replicates the second operand B into every rank (PUs never
     * communicate, Sec. 3.5); its arrays are sized by @p b_rows /
     * @p b_nnz and stay zero-length for the other dataflows.
     */
    PuMemoryMap(Addr base, std::uint64_t slice_rows, std::uint64_t cols,
                std::uint64_t slice_nnz, std::uint64_t b_rows = 0,
                std::uint64_t b_nnz = 0)
    {
        // Regions are staggered across DRAM banks (32 KiB steps move
        // the bank bits of the rank's address layout): COO keeps its
        // row/col/val in three separate arrays precisely so concurrent
        // streams exploit bank-level parallelism instead of thrashing
        // one bank's row buffer (Sec. 3.1).
        Addr cursor = base;
        unsigned region_index = 0;
        auto place = [&cursor, &region_index](std::uint64_t entries) {
            constexpr Addr bank_stride = 32 * 1024;
            cursor += ((region_index * 3) % 8) * bank_stride;
            ++region_index;
            Addr region = cursor;
            Addr bytes = entries * 4;
            cursor += (bytes + pageBytes - 1) & ~(pageBytes - 1);
            return region;
        };
        rowPtr_ = place(slice_rows + 1);
        colIdx_ = place(slice_nnz);
        nzVal_ = place(slice_nnz);
        cooRow_[0] = place(slice_nnz);
        cooCol_[0] = place(slice_nnz);
        cooVal_[0] = place(slice_nnz);
        cooRow_[1] = place(slice_nnz);
        cooCol_[1] = place(slice_nnz);
        cooVal_[1] = place(slice_nnz);
        outPtr_ = place(cols + 1);
        outIdx_ = place(slice_nnz);
        outVal_ = place(slice_nnz);
        vecIn_ = place(cols);
        auxPtr_ = place((cols + 1 + 15) / 16);
        bRowPtr_ = place(b_rows ? b_rows + 1 : 0);
        bColIdx_ = place(b_nnz);
        bNzVal_ = place(b_nnz);
        end_ = cursor;
    }

    /** Address of 4-byte element @p index within @p region. */
    Addr
    addrOf(Region region, std::uint64_t index) const
    {
        return base(region) + index * 4;
    }

    /** Block address containing element @p index of @p region. */
    Addr
    blockOf(Region region, std::uint64_t index) const
    {
        return blockAlign(addrOf(region, index));
    }

    Addr
    base(Region region) const
    {
        switch (region) {
          case Region::RowPtr: return rowPtr_;
          case Region::ColIdx: return colIdx_;
          case Region::NzVal: return nzVal_;
          case Region::CooRowA: return cooRow_[0];
          case Region::CooColA: return cooCol_[0];
          case Region::CooValA: return cooVal_[0];
          case Region::CooRowB: return cooRow_[1];
          case Region::CooColB: return cooCol_[1];
          case Region::CooValB: return cooVal_[1];
          case Region::OutPtr: return outPtr_;
          case Region::OutIdx: return outIdx_;
          case Region::OutVal: return outVal_;
          case Region::VecIn: return vecIn_;
          case Region::AuxPtr: return auxPtr_;
          case Region::BRowPtr: return bRowPtr_;
          case Region::BColIdx: return bColIdx_;
          case Region::BNzVal: return bNzVal_;
        }
        return 0;
    }

    /** COO region selectors for ping-pong buffer @p which (0/1). */
    Region cooRow(int which) const
    {
        return which == 0 ? Region::CooRowA : Region::CooRowB;
    }
    Region cooCol(int which) const
    {
        return which == 0 ? Region::CooColA : Region::CooColB;
    }
    Region cooVal(int which) const
    {
        return which == 0 ? Region::CooValA : Region::CooValB;
    }

    /** One past the last byte used. */
    Addr end() const { return end_; }

  private:
    Addr rowPtr_ = 0, colIdx_ = 0, nzVal_ = 0;
    Addr cooRow_[2] = {0, 0}, cooCol_[2] = {0, 0}, cooVal_[2] = {0, 0};
    Addr outPtr_ = 0, outIdx_ = 0, outVal_ = 0;
    Addr vecIn_ = 0, auxPtr_ = 0;
    Addr bRowPtr_ = 0, bColIdx_ = 0, bNzVal_ = 0;
    Addr end_ = 0;
};

} // namespace menda::core

#endif // MENDA_MENDA_MEMORY_MAP_HH
