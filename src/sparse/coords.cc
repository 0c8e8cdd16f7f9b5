#include "sparse/coords.hh"

#include <bit>
#include <utility>

namespace menda::sparse
{

namespace
{

constexpr Index keyRow(std::uint64_t key) { return key >> 32; }
constexpr Index keyCol(std::uint64_t key) { return key & 0xffffffffu; }

} // namespace

DistinctKeys::DistinctKeys(std::uint64_t expected)
{
    keys_.reserve(expected);
    rehash(std::bit_ceil(std::max<std::uint64_t>(16, expected * 2)));
}

void
DistinctKeys::rehash(std::uint64_t capacity)
{
    table_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint64_t key : keys_) {
        std::uint64_t slot = (key * kMul) >> shift_;
        while (table_[slot] != kEmpty)
            slot = (slot + 1) & mask_;
        table_[slot] = key;
    }
}

std::vector<std::uint64_t>
DistinctKeys::take()
{
    table_ = {};
    return std::move(keys_);
}

CsrMatrix
keysToCsr(Index rows, Index cols, std::vector<std::uint64_t> keys,
          Rng &values)
{
    CsrMatrix out;
    out.rows = rows;
    out.cols = cols;
    out.ptr = sortIntoRows(
        rows, keys.size(), [&](std::size_t k) { return keyRow(keys[k]); },
        [&](std::size_t k) { return keyCol(keys[k]); }, out.idx);
    keys = {};
    out.val.resize(out.idx.size());
    for (Value &v : out.val)
        v = values.value();
    return out;
}

} // namespace menda::sparse
