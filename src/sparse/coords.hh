/**
 * @file
 * Coordinates to sorted CSR: the one path the generators, the fuzzer's
 * samplers and cooToCsr all take.
 *
 * A coordinate packs into a 64-bit key with the row in the high half, so
 * key order is row-major order. DistinctKeys collects distinct keys in a
 * flat open-addressing table and remembers them in insertion order;
 * sortIntoRows counting-sorts entries by row and then sorts each row on
 * its own. Assembly is O(n + rows) plus the per-row sorts, with no
 * global sort and no per-key heap node.
 */

#ifndef MENDA_SPARSE_COORDS_HH
#define MENDA_SPARSE_COORDS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "sparse/format.hh"

namespace menda::sparse
{

/** Pack a coordinate: key order is row-major order. */
constexpr std::uint64_t
packKey(Index row, Index col)
{
    return (static_cast<std::uint64_t>(row) << 32) | col;
}

/**
 * Set of distinct packed keys: linear probing over a power-of-two table
 * kept at most half full, plus the keys in insertion order.
 */
class DistinctKeys
{
  public:
    /** Room for @p expected keys before the table grows. */
    explicit DistinctKeys(std::uint64_t expected);

    /** Add @p key; returns false if it was already present. */
    bool
    insert(std::uint64_t key)
    {
        std::uint64_t slot = (key * kMul) >> shift_;
        for (;;) {
            const std::uint64_t held = table_[slot];
            if (held == key)
                return false;
            if (held == kEmpty)
                break;
            slot = (slot + 1) & mask_;
        }
        table_[slot] = key;
        keys_.push_back(key);
        if (keys_.size() * 2 > table_.size())
            rehash(table_.size() * 2);
        return true;
    }

    std::uint64_t size() const { return keys_.size(); }

    /** The distinct keys in insertion order. Spends the set. */
    std::vector<std::uint64_t> take();

  private:
    /** No packed key is all ones: rows and columns stay below 2^32 - 1. */
    static constexpr std::uint64_t kEmpty = ~0ull;
    static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;

    void rehash(std::uint64_t capacity);

    std::vector<std::uint64_t> table_;
    std::vector<std::uint64_t> keys_;
    std::uint64_t mask_ = 0;
    int shift_ = 64;
};

/**
 * Row-bucketed sort: a stable counting sort of @p n items by row, then
 * each row's entries sorted ascending with equal entries collapsed.
 * @p row_of(k) is item k's row (< @p rows) and @p entry_of(k) its entry.
 * Returns the CSR row pointer; @p out holds the entries in CSR order.
 */
template <typename Entry, typename RowOf, typename EntryOf>
std::vector<std::uint32_t>
sortIntoRows(Index rows, std::size_t n, RowOf row_of, EntryOf entry_of,
             std::vector<Entry> &out)
{
    menda_assert(n <= 0xffffffffu, "sortIntoRows: ", n,
                 " entries overflow the 32-bit row pointer");
    std::vector<std::uint32_t> ptr(static_cast<std::size_t>(rows) + 1, 0);
    for (std::size_t k = 0; k < n; ++k) {
        const Index r = row_of(k);
        menda_assert(r < rows, "sortIntoRows: row ", r, " of ", rows);
        ++ptr[r + 1];
    }
    for (Index r = 0; r < rows; ++r)
        ptr[r + 1] += ptr[r];
    // Scatter with ptr[r] as row r's cursor; afterwards ptr[r] is where
    // row r + 1 starts, so one shift restores the row starts.
    out.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        out[ptr[row_of(k)]++] = entry_of(k);
    for (Index r = rows; r > 0; --r)
        ptr[r] = ptr[r - 1];
    ptr[0] = 0;

    std::uint32_t kept = 0;
    for (Index r = 0; r < rows; ++r) {
        const std::uint32_t begin = ptr[r], end = ptr[r + 1];
        std::sort(out.begin() + begin, out.begin() + end);
        ptr[r] = kept;
        for (std::uint32_t i = begin; i < end; ++i)
            if (i == begin || out[i] != out[i - 1])
                out[kept++] = out[i];
    }
    ptr[rows] = kept;
    out.resize(kept);
    out.shrink_to_fit();
    return ptr;
}

/**
 * CSR of the packed @p keys, repeats collapsed, with one value drawn from
 * @p values per non-zero in CSR order.
 */
CsrMatrix keysToCsr(Index rows, Index cols, std::vector<std::uint64_t> keys,
                    Rng &values);

} // namespace menda::sparse

#endif // MENDA_SPARSE_COORDS_HH
