/**
 * @file
 * Row-wise tensor operations used around GCN inference: numerically
 * stable softmax and argmax (label prediction). These are the "glue"
 * operations of the paper's breakdown beyond the activation itself.
 */
#ifndef PGCN_TENSOR_OPS_HPP
#define PGCN_TENSOR_OPS_HPP

#include <cstdint>
#include <vector>

#include "tensor/dense_matrix.hpp"

namespace pgcn::tensor {

/**
 * In-place numerically stable row-wise softmax: each row becomes a
 * probability distribution (subtract row max, exponentiate,
 * normalise).
 */
void softmaxRowsInPlace(DenseMatrix &m);

/**
 * Index of the largest element per row (ties broken towards the
 * lower index) — the predicted class of each vertex.
 */
std::vector<uint64_t> argmaxRows(const DenseMatrix &m);

} // namespace pgcn::tensor

#endif // PGCN_TENSOR_OPS_HPP
