#include "sparse/generate.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "sparse/coords.hh"

namespace menda::sparse
{

namespace
{

/**
 * CSR of the packed @p keys, repeats collapsed, with values drawn in
 * row-major order from a stream derived from @p seed.
 */
CsrMatrix
fromKeys(Index rows, Index cols, std::vector<std::uint64_t> keys,
         std::uint64_t seed)
{
    Rng value_rng(seed ^ 0xabcdef1234567890ull);
    return keysToCsr(rows, cols, std::move(keys), value_rng);
}

} // namespace

CsrMatrix
generateUniform(Index rows, Index cols, std::uint64_t nnz,
                std::uint64_t seed)
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(rows) * cols;
    if (nnz > capacity)
        menda_fatal("generateUniform: nnz ", nnz, " exceeds ", rows, "x",
                    cols);

    Rng rng(seed);
    DistinctKeys picked(nnz);
    while (picked.size() < nnz) {
        Index r = static_cast<Index>(rng.below(rows));
        Index c = static_cast<Index>(rng.below(cols));
        picked.insert(packKey(r, c));
    }
    return fromKeys(rows, cols, picked.take(), seed);
}

CsrMatrix
generateRmat(Index rows, std::uint64_t nnz, double a, double b, double c,
             std::uint64_t seed)
{
    if (rows == 0 || (rows & (rows - 1)) != 0)
        menda_fatal("generateRmat: dimension ", rows,
                    " must be a power of two");
    const double d = 1.0 - a - b - c;
    if (d < 0.0)
        menda_fatal("generateRmat: a+b+c must be <= 1");

    int levels = 0;
    for (Index n = rows; n > 1; n >>= 1)
        ++levels;

    Rng rng(seed);
    DistinctKeys picked(nnz);
    // SNAP's GenRMat perturbs the quadrant probabilities per recursion
    // level (+-10% noise, then renormalized); without it the hubs of
    // deep R-MAT recursions are unrealistically concentrated.
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = nnz * 64 + 1024;
    while (picked.size() < nnz) {
        if (++attempts > max_attempts)
            menda_fatal("generateRmat: matrix too dense for R-MAT skew; "
                        "cannot place ", nnz, " distinct edges");
        Index r = 0, col = 0;
        for (int level = 0; level < levels; ++level) {
            const double na = a * (0.9 + 0.2 * rng.uniform());
            const double nb = b * (0.9 + 0.2 * rng.uniform());
            const double nc = c * (0.9 + 0.2 * rng.uniform());
            const double nd = d * (0.9 + 0.2 * rng.uniform());
            const double p = rng.uniform() * (na + nb + nc + nd);
            r <<= 1;
            col <<= 1;
            if (p < na) {
                // top-left quadrant
            } else if (p < na + nb) {
                col |= 1;
            } else if (p < na + nb + nc) {
                r |= 1;
            } else {
                r |= 1;
                col |= 1;
            }
        }
        picked.insert(packKey(r, col));
    }
    return fromKeys(rows, rows, picked.take(), seed);
}

CsrMatrix
generateBanded(Index rows, Index band, double fill, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(static_cast<double>(rows) * band *
                                          fill * 1.1) +
                 rows);
    for (Index r = 0; r < rows; ++r) {
        // Diagonal is always present, as in FEM stiffness matrices.
        keys.push_back(packKey(r, r));
        Index lo = r > band / 2 ? r - band / 2 : 0;
        Index hi = std::min<Index>(rows - 1, r + band / 2);
        for (Index c = lo; c <= hi; ++c) {
            if (c != r && rng.uniform() < fill)
                keys.push_back(packKey(r, c));
        }
    }
    return fromKeys(rows, rows, std::move(keys), seed);
}

CsrMatrix
generateCircuit(Index rows, std::uint64_t nnz, std::uint64_t seed)
{
    if (rows == 0)
        menda_fatal("generateCircuit: matrix needs at least one row");
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(nnz + rows);

    // Diagonal (device self-conductance).
    for (Index r = 0; r < rows; ++r)
        keys.push_back(packKey(r, r));

    // A handful of dense rows and columns modeling supply rails.
    const Index n_rails =
        std::min<Index>(rows, std::max<Index>(2, rows / 50000));
    const std::uint64_t rail_budget = nnz / 20;
    for (std::uint64_t i = 0; i < rail_budget; ++i) {
        Index rail = static_cast<Index>(rng.below(n_rails));
        Index other = static_cast<Index>(rng.below(rows));
        if (i % 2 == 0)
            keys.push_back(packKey(rail, other));
        else
            keys.push_back(packKey(other, rail));
    }

    // Local couplings with short, geometrically distributed reach.
    while (keys.size() < nnz + rows / 2) {
        Index r = static_cast<Index>(rng.below(rows));
        std::uint64_t reach = 1 + rng.below(64);
        Index c = static_cast<Index>((r + reach) % rows);
        keys.push_back(packKey(r, c));
        keys.push_back(packKey(c, r)); // circuits are structurally symmetric
    }
    return fromKeys(rows, rows, std::move(keys), seed);
}

CsrMatrix
generateLocalGraph(Index rows, std::uint64_t nnz, Index reach,
                   std::uint64_t seed)
{
    menda_assert(reach > 0 && reach < rows, "bad reach");
    Rng rng(seed);
    DistinctKeys picked(nnz);
    // A connectivity backbone keeps traversals from fragmenting.
    for (Index r = 0; r + 1 < rows && picked.size() < nnz; ++r)
        picked.insert(packKey(r, r + 1));
    while (picked.size() < nnz) {
        Index r = static_cast<Index>(rng.below(rows));
        // Skewed reach: most edges are short, a few span the window.
        std::uint64_t span = 1 + rng.below(reach);
        if (rng.below(4) != 0)
            span = 1 + span % (reach / 8 + 1);
        Index c = static_cast<Index>((r + span) % rows);
        picked.insert(packKey(r, c));
        if (rng.below(2) == 0 && picked.size() < nnz) {
            Index back = r >= span ? r - static_cast<Index>(span)
                                   : static_cast<Index>(r + rows - span);
            picked.insert(packKey(r, back % rows));
        }
    }
    return fromKeys(rows, rows, picked.take(), seed);
}

CsrMatrix
generateSkewedRows(Index rows, Index cols, std::uint64_t nnz, double skew,
                   std::uint64_t seed)
{
    Rng rng(seed);
    const double avg = static_cast<double>(nnz) / rows;
    std::vector<std::uint64_t> keys;
    keys.reserve(nnz + nnz / 8);
    for (Index r = 0; r < rows && keys.size() < nnz; ++r) {
        // Geometric-ish length: most rows short, a tail of long rows.
        double u = rng.uniform();
        std::uint64_t len = static_cast<std::uint64_t>(
            avg * (1.0 - skew) + avg * skew * (-std::log(1.0 - u)));
        len = std::min<std::uint64_t>(len, cols);
        for (std::uint64_t i = 0; i < len; ++i)
            keys.push_back(packKey(r, static_cast<Index>(rng.below(cols))));
    }
    return fromKeys(rows, cols, std::move(keys), seed);
}

} // namespace menda::sparse
