/**
 * @file
 * Compressed sparse matrix formats: CSR, CSC, and COO (Sec. 2.1).
 *
 * CSR(/CSC) stores a matrix in three arrays: a pointer array with the
 * start offset of each row(/column), an index array with the column(/row)
 * index of each non-zero, and a value array. COO stores (row, col, value)
 * of each non-zero in three separate arrays; MeNDA uses it for the
 * intermediate sorted streams between merge iterations (Sec. 3.1).
 *
 * Pointer entries are 32-bit, matching the 4-byte elements the paper's
 * traffic model assumes; all evaluated matrices have nnz < 2^32.
 */

#ifndef MENDA_SPARSE_FORMAT_HH
#define MENDA_SPARSE_FORMAT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace menda::sparse
{

/** Compressed sparse row. Non-zeros of row r live at [ptr[r], ptr[r+1]). */
struct CsrMatrix
{
    Index rows = 0;
    Index cols = 0;
    std::vector<std::uint32_t> ptr;   ///< rows + 1 entries
    std::vector<Index> idx;           ///< column index per non-zero
    std::vector<Value> val;           ///< value per non-zero

    std::uint64_t nnz() const { return idx.size(); }

    /** Number of rows with at least one non-zero. */
    Index nonEmptyRows() const;

    /** Density nnz / (rows * cols). */
    double density() const;

    /** Verify structural invariants; menda_fatal with a reason if broken. */
    void validate() const;

    bool operator==(const CsrMatrix &other) const = default;
};

/** Compressed sparse column. CSC of A is bit-identical to CSR of Aᵀ. */
struct CscMatrix
{
    Index rows = 0;
    Index cols = 0;
    std::vector<std::uint32_t> ptr;   ///< cols + 1 entries
    std::vector<Index> idx;           ///< row index per non-zero
    std::vector<Value> val;

    std::uint64_t nnz() const { return idx.size(); }
    void validate() const;

    bool operator==(const CscMatrix &other) const = default;
};

/** Coordinate format: parallel (row, col, value) arrays. */
struct CooMatrix
{
    Index rows = 0;
    Index cols = 0;
    std::vector<Index> row;
    std::vector<Index> col;
    std::vector<Value> val;

    std::uint64_t nnz() const { return row.size(); }

    /** True if sorted by (col, row) — the MeNDA intermediate order. */
    bool sortedByColRow() const;

    /** True if sorted by (row, col). */
    bool sortedByRowCol() const;
};

/**
 * Golden-reference transposition via count sort (the algorithmic core of
 * scanTrans): O(nnz + cols), used to check every simulated result.
 */
CscMatrix transposeReference(const CsrMatrix &a);

/** Inverse golden reference (CSC → CSR). */
CsrMatrix transposeReference(const CscMatrix &a);

/** Reinterpret: CSC of A *is* CSR of Aᵀ (same arrays, swapped dims). */
CsrMatrix asCsrOfTranspose(const CscMatrix &a);
CscMatrix asCscOfTranspose(const CsrMatrix &a);

/**
 * Build CSR from (possibly unsorted) COO triples. Repeated coordinates
 * are kept, in input order.
 */
CsrMatrix cooToCsr(CooMatrix coo);

/** Expand CSR to COO in row-major order. */
CooMatrix csrToCoo(const CsrMatrix &a);

/** Golden-reference SpMV: y = A * x. @p x must have a.cols entries. */
std::vector<double> spmvReference(const CsrMatrix &a,
                                  const std::vector<Value> &x);

} // namespace menda::sparse

#endif // MENDA_SPARSE_FORMAT_HH
