/**
 * @file
 * Compressed Sparse Row (CSR) adjacency matrix.
 *
 * This is the storage format the paper's analytical model assumes
 * (Eq. 1: row-offset array, column array, non-zero value array) and
 * the format every SpMM kernel in this library consumes.
 */
#ifndef PGCN_GRAPH_CSR_HPP
#define PGCN_GRAPH_CSR_HPP

#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "graph/types.hpp"

namespace pgcn::graph {

/**
 * Immutable CSR sparse matrix. Rows are vertices; the non-zeros of
 * row u are the in-neighbours aggregated by SpMM when computing
 * H_out[u, :].
 */
class Csr
{
  public:
    /**
     * Build from a COO edge list with a stable counting sort (no copy
     * of the list, no comparison sort): edge (u, v, w) becomes
     * non-zero A[u][v] = w, each row's columns are strictly increasing,
     * and duplicate edges collapse to one non-zero whose weight is their
     * sum, added in input order.
     *
     * @param coo Source edge list.
     */
    explicit Csr(const Coo &coo);

    /**
     * Build directly from raw CSR arrays. Validates the invariants
     * (monotone offsets, in-range columns).
     *
     * @param num_vertices Matrix dimension.
     * @param row_offsets  |V|+1 monotone offsets into cols/vals.
     * @param cols         Column index per non-zero.
     * @param vals         Value per non-zero.
     */
    Csr(VertexId num_vertices, std::vector<EdgeId> row_offsets,
        std::vector<VertexId> cols, std::vector<Value> vals);

    /** Matrix dimension (|V|). */
    VertexId numVertices() const { return numVertices_; }

    /** Number of stored non-zeros (|E| after cleaning). */
    EdgeId numEdges() const { return cols_.size(); }

    /** Row-offset array of size |V|+1. */
    const std::vector<EdgeId> &rowOffsets() const { return rowOffsets_; }

    /** Column-index array of size |E|. */
    const std::vector<VertexId> &cols() const { return cols_; }

    /** Non-zero value array of size |E|. */
    const std::vector<Value> &vals() const { return vals_; }

    /** Out-degree (row length) of vertex @p u. */
    EdgeId
    degree(VertexId u) const
    {
        return rowOffsets_[u + 1] - rowOffsets_[u];
    }

    /** Column indices of row @p u. */
    std::span<const VertexId>
    rowCols(VertexId u) const
    {
        return {cols_.data() + rowOffsets_[u],
                static_cast<size_t>(degree(u))};
    }

    /** Non-zero values of row @p u. */
    std::span<const Value>
    rowVals(VertexId u) const
    {
        return {vals_.data() + rowOffsets_[u],
                static_cast<size_t>(degree(u))};
    }

    /**
     * Density |E| / |V|^2, the x-axis quantity of the paper's Fig. 2.
     */
    double density() const;

    /** Mean row length |E| / |V|. */
    double averageDegree() const;

    /**
     * Row index containing global non-zero position @p e, i.e. the
     * binary search of Algorithm 2 line 4: the largest u with
     * rowOffsets()[u] <= e.
     *
     * @param e Non-zero position in [0, numEdges()).
     */
    VertexId rowOfEdge(EdgeId e) const;

  private:
    void validate() const;

    VertexId numVertices_;
    std::vector<EdgeId> rowOffsets_;
    std::vector<VertexId> cols_;
    std::vector<Value> vals_;
};

} // namespace pgcn::graph

#endif // PGCN_GRAPH_CSR_HPP
