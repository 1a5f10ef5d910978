/**
 * @file
 * Coordinate-format (COO) edge list and its cleaning passes: sorting,
 * de-duplication, self-loop handling and symmetrization. Csr(const
 * Coo &) and normalizedAdjacency sort, de-duplicate and symmetrize in
 * their own counting-sort build and need none of them; the tests use
 * the passes as the reference for that build.
 */
#ifndef PGCN_GRAPH_COO_HPP
#define PGCN_GRAPH_COO_HPP

#include <vector>

#include "graph/types.hpp"

namespace pgcn::graph {

/** One weighted directed edge (src -> dst). */
struct Edge
{
    VertexId src;
    VertexId dst;
    Value weight;

    friend bool
    operator==(const Edge &a, const Edge &b)
    {
        return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
    }
};

/**
 * A mutable edge list with a fixed vertex count. This is the
 * construction format: generators and loaders append edges here, and
 * Csr is built from it.
 */
class Coo
{
  public:
    /**
     * Create an empty edge list over @p num_vertices vertices.
     */
    explicit Coo(VertexId num_vertices) : numVertices_(num_vertices) {}

    /** Number of vertices (fixed at construction). */
    VertexId numVertices() const { return numVertices_; }

    /** Number of edges currently stored. */
    EdgeId numEdges() const { return edges_.size(); }

    /** Read-only access to the edge array. */
    const std::vector<Edge> &edges() const { return edges_; }

    /**
     * Append an edge. Endpoints must be < numVertices().
     *
     * @param src Source vertex.
     * @param dst Destination vertex.
     * @param weight Edge weight (default 1).
     */
    void addEdge(VertexId src, VertexId dst, Value weight = 1.0f);

    /**
     * Sort edges by (src, dst) and merge duplicates by summing their
     * weights. Idempotent.
     */
    void sortAndCombineDuplicates();

    /**
     * Make the edge set symmetric: for every (u, v) also ensure (v, u)
     * with the same weight exists. Runs sortAndCombineDuplicates()
     * afterwards, so duplicate reverse edges collapse; an edge that
     * already existed in both directions has its weights summed like
     * any other duplicate pair.
     */
    void symmetrize();

    /** Remove all self loops (u, u). */
    void removeSelfLoops();

    /**
     * Add a self loop (u, u, @p weight) for every vertex. Used by the
     * GCN renormalisation trick (A + I). Requires that the edge list
     * contains no existing self loops.
     */
    void addSelfLoops(Value weight = 1.0f);

  private:
    VertexId numVertices_;
    std::vector<Edge> edges_;
};

} // namespace pgcn::graph

#endif // PGCN_GRAPH_COO_HPP
