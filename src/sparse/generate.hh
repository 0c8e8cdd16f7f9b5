/**
 * @file
 * Deterministic synthetic sparse matrix generators.
 *
 * Implements the two generators of Tab. 3: uniform matrices built by
 * "randomly sampling NZs until NNZ is reached", and power-law matrices in
 * the style of SNAP's GenRMat(dim, nnz, a, b, c) R-MAT generator. Extra
 * structured generators (banded, circuit-like, skewed-row, locality
 * graph) provide stand-ins for the SuiteSparse kinds of Tab. 4 (see
 * DESIGN.md §3).
 *
 * Cost: O(draws) RNG work plus O(nnz + rows) assembly. The samplers keep
 * distinct coordinates in a flat open-addressing set and every generator
 * builds CSR with one row-bucketed sort (sparse/coords.hh): a counting
 * sort by row, then a sort of each row's columns. Values are drawn in
 * row-major order, so a matrix depends only on its arguments. R-MAT is
 * bound by its five RNG draws per recursion level per attempt.
 */

#ifndef MENDA_SPARSE_GENERATE_HH
#define MENDA_SPARSE_GENERATE_HH

#include <cstdint>

#include "sparse/format.hh"

namespace menda::sparse
{

/**
 * Uniform random matrix: sample (row, col) uniformly, discarding
 * duplicates, until @p nnz distinct non-zeros exist (Tab. 3, N#).
 */
CsrMatrix generateUniform(Index rows, Index cols, std::uint64_t nnz,
                          std::uint64_t seed);

/**
 * R-MAT power-law matrix a la GenRMat(dim, nnz, a, b, c) with
 * d = 1 - a - b - c (Tab. 3, P#: a=0.1, b=0.2, c=0.3).
 * @p rows must be a power of two.
 */
CsrMatrix generateRmat(Index rows, std::uint64_t nnz, double a, double b,
                       double c, std::uint64_t seed);

/**
 * Banded matrix with @p band non-zeros clustered around the diagonal of
 * each row — FEM / structural-problem style (bcsstk32, sme3Dc...).
 */
CsrMatrix generateBanded(Index rows, Index band, double fill,
                         std::uint64_t seed);

/**
 * Circuit-simulation style: strong diagonal, short local coupling, and a
 * few dense rows/columns (supply rails) — rajat21, transient, twotone...
 * @p rows must be at least 1.
 */
CsrMatrix generateCircuit(Index rows, std::uint64_t nnz, std::uint64_t seed);

/**
 * Random matrix whose row lengths follow the given average but with
 * geometric variation — economic / miscellaneous kinds.
 */
CsrMatrix generateSkewedRows(Index rows, Index cols, std::uint64_t nnz,
                             double skew, std::uint64_t seed);

/**
 * Locality-structured directed graph: edges reach targets within
 * +-@p reach of the source, giving a diameter of roughly rows / reach —
 * the high-diameter structure of web/co-purchase graphs (amazon,
 * webbase), as opposed to the low-diameter social graphs R-MAT models.
 */
CsrMatrix generateLocalGraph(Index rows, std::uint64_t nnz, Index reach,
                             std::uint64_t seed);

} // namespace menda::sparse

#endif // MENDA_SPARSE_GENERATE_HH
