/**
 * @file
 * GCN adjacency normalisation (the Kipf & Welling renormalisation
 * trick): A~ = D^-1/2 (A + I) D^-1/2, where D is the degree matrix of
 * A + I. The paper's SpMM operates on this normalised matrix.
 */
#ifndef PGCN_GRAPH_NORMALIZE_HPP
#define PGCN_GRAPH_NORMALIZE_HPP

#include "graph/csr.hpp"

namespace pgcn::graph {

/**
 * Build the symmetric-normalised adjacency matrix used by GCN layers.
 *
 * One counting-sort build, no comparison sort and no intermediate
 * matrix: the structure is the symmetrized edge set without its self
 * loops, plus one unit loop per vertex (input weights and duplicates
 * play no part), and every non-zero (u, v) is
 * float(1/sqrt(double(deg(u))) * 1/sqrt(double(deg(v)))). Defined in
 * csr.cpp, next to Csr(const Coo &), whose row builder it shares.
 *
 * @param coo Raw (possibly directed, possibly multi-) edge list.
 * @return CSR of A~ with sorted rows and spectral radius <= 1.
 */
Csr normalizedAdjacency(const Coo &coo);

} // namespace pgcn::graph

#endif // PGCN_GRAPH_NORMALIZE_HPP
