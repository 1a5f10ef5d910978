#include "graph/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "graph/normalize.hpp"

namespace pgcn::graph {

namespace {

/**
 * Lay a stream of directed (row, col, weight) pairs out as CSR rows
 * with a two-pass stable LSD counting sort: bucket the pairs by column,
 * then walk the columns in ascending order and scatter into rows. Each
 * row's columns come out sorted and equal columns keep their input
 * order, so duplicates sit next to each other and are combined in one
 * compacting sweep (weights summed in input order when @p kWeighted;
 * without it only the structure is built and @p vals stays empty).
 *
 * @param for_each_pair Callable taking a visitor; must hand it the same
 *        pairs in the same order on each of its two calls.
 */
template <bool kWeighted, typename ForEachPair>
void
buildRows(VertexId n, const ForEachPair &for_each_pair,
          std::vector<EdgeId> &offsets, std::vector<VertexId> &cols,
          std::vector<Value> &vals)
{
    const size_t rows = n;
    std::vector<EdgeId> col_start(rows + 1, 0);
    offsets.assign(rows + 1, 0);
    for_each_pair([&](VertexId r, VertexId c, Value) {
        ++offsets[r + 1];
        ++col_start[c + 1];
    });
    for (size_t v = 0; v < rows; ++v) {
        offsets[v + 1] += offsets[v];
        col_start[v + 1] += col_start[v];
    }
    const EdgeId total = offsets[rows];

    cols.resize(total);
    vals.resize(kWeighted ? total : 0);
    {
        // Pass 1: stable scatter by column, keeping each pair's row.
        std::vector<VertexId> row_of(total);
        std::vector<Value> weight_of(kWeighted ? total : 0);
        std::vector<EdgeId> next(col_start.begin(), col_start.end() - 1);
        for_each_pair([&](VertexId r, VertexId c, Value w) {
            const EdgeId p = next[c]++;
            row_of[p] = r;
            if constexpr (kWeighted)
                weight_of[p] = w;
        });
        // Pass 2: stable scatter by row, columns in ascending order.
        next.assign(offsets.begin(), offsets.end() - 1);
        for (VertexId c = 0; c < n; ++c) {
            for (EdgeId p = col_start[c]; p < col_start[c + 1]; ++p) {
                const EdgeId q = next[row_of[p]]++;
                cols[q] = c;
                if constexpr (kWeighted)
                    vals[q] = weight_of[p];
            }
        }
    }

    // Combine adjacent duplicates, compacting rows and offsets in place.
    EdgeId out = 0;
    EdgeId begin = 0;
    for (size_t u = 0; u < rows; ++u) {
        const EdgeId end = offsets[u + 1];
        offsets[u] = out;
        for (EdgeId e = begin; e < end; ++e) {
            if (out > offsets[u] && cols[out - 1] == cols[e]) {
                if constexpr (kWeighted)
                    vals[out - 1] += vals[e];
                continue;
            }
            cols[out] = cols[e];
            if constexpr (kWeighted)
                vals[out] = vals[e];
            ++out;
        }
        begin = end;
    }
    offsets[rows] = out;
    cols.resize(out);
    cols.shrink_to_fit();
    vals.resize(kWeighted ? out : 0);
    vals.shrink_to_fit();
}

} // namespace

Csr::Csr(const Coo &coo) : numVertices_(coo.numVertices())
{
    buildRows<true>(
        numVertices_,
        [&coo](auto &&visit) {
            for (const Edge &e : coo.edges())
                visit(e.src, e.dst, e.weight);
        },
        rowOffsets_, cols_, vals_);
    validate();
}

Csr
normalizedAdjacency(const Coo &coo)
{
    // A + I, symmetrized: both directions of every non-loop edge plus
    // one loop per vertex. Input weights and loops play no part.
    const VertexId n = coo.numVertices();
    std::vector<EdgeId> offsets;
    std::vector<VertexId> cols;
    std::vector<Value> vals;
    buildRows<false>(
        n,
        [&coo, n](auto &&visit) {
            for (const Edge &e : coo.edges()) {
                if (e.src != e.dst) {
                    visit(e.src, e.dst, 1.0f);
                    visit(e.dst, e.src, 1.0f);
                }
            }
            for (VertexId v = 0; v < n; ++v)
                visit(v, v, 1.0f);
        },
        offsets, cols, vals);

    // Every row holds its loop, so no degree is 0.
    std::vector<double> inv_sqrt_deg(n);
    for (VertexId u = 0; u < n; ++u) {
        inv_sqrt_deg[u] = 1.0 / std::sqrt(static_cast<double>(
                                    offsets[u + 1] - offsets[u]));
    }
    vals.resize(cols.size());
    for (VertexId u = 0; u < n; ++u) {
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
            vals[e] = static_cast<Value>(inv_sqrt_deg[u] *
                                         inv_sqrt_deg[cols[e]]);
        }
    }
    return Csr(n, std::move(offsets), std::move(cols), std::move(vals));
}

Csr::Csr(VertexId num_vertices, std::vector<EdgeId> row_offsets,
         std::vector<VertexId> cols, std::vector<Value> vals)
    : numVertices_(num_vertices), rowOffsets_(std::move(row_offsets)),
      cols_(std::move(cols)), vals_(std::move(vals))
{
    validate();
}

void
Csr::validate() const
{
    PGCN_ASSERT(rowOffsets_.size() ==
                    static_cast<size_t>(numVertices_) + 1,
                "row-offset array size " << rowOffsets_.size()
                                         << " != |V|+1 = "
                                         << numVertices_ + 1);
    PGCN_ASSERT(rowOffsets_.front() == 0, "row offsets must start at 0");
    PGCN_ASSERT(rowOffsets_.back() == cols_.size(),
                "row offsets end " << rowOffsets_.back() << " != nnz "
                                   << cols_.size());
    PGCN_ASSERT(cols_.size() == vals_.size(),
                "cols/vals size mismatch: " << cols_.size() << " vs "
                                            << vals_.size());
    for (size_t v = 0; v < numVertices_; ++v) {
        PGCN_ASSERT(rowOffsets_[v] <= rowOffsets_[v + 1],
                    "row offsets not monotone at row " << v);
    }
    for (VertexId c : cols_) {
        PGCN_ASSERT(c < numVertices_,
                    "column index " << c << " >= |V| = " << numVertices_);
    }
}

double
Csr::density() const
{
    if (numVertices_ == 0)
        return 0.0;
    const double v = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges()) / (v * v);
}

double
Csr::averageDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(numEdges()) /
           static_cast<double>(numVertices_);
}

VertexId
Csr::rowOfEdge(EdgeId e) const
{
    PGCN_ASSERT(e < numEdges(), "edge index " << e << " out of range");
    // upper_bound finds the first offset strictly greater than e; the
    // row owning e is one before it.
    auto it = std::upper_bound(rowOffsets_.begin(), rowOffsets_.end(), e);
    return static_cast<VertexId>(std::distance(rowOffsets_.begin(), it) - 1);
}

} // namespace pgcn::graph
