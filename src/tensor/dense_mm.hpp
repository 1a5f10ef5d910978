/**
 * @file
 * Dense matrix multiplication (the GCN "update" phase, (.)W in the
 * paper) and elementwise activations (the "glue" sigma).
 *
 * The production GEMM is a packed, register-tiled kernel dispatched
 * through the runtime SIMD layer (kernels/simd.hpp): B is packed into
 * NR-column panels and the inner microkernel computes a ~6 x 16
 * register tile of C with FMA. The pooled overload packs B once on
 * the caller and splits A's 6-row panels over a thread pool; every
 * output row runs the same micro-kernel in the same k-order, so its
 * result is bit-identical to the single-thread call. The previous
 * cache-blocked scalar loop is kept as denseMmBlockedScalar for A/B
 * benchmarking and as a second correctness oracle.
 */
#ifndef PGCN_TENSOR_DENSE_MM_HPP
#define PGCN_TENSOR_DENSE_MM_HPP

#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"

namespace pgcn::tensor {

/**
 * Reference triple-loop GEMM: out = a * b. Simple and obviously
 * correct; used to validate the optimized kernels.
 *
 * @param a Left operand (m x k).
 * @param b Right operand (k x n).
 * @param out Result (m x n); resized (capacity kept) by the call.
 */
void denseMmReference(const DenseMatrix &a, const DenseMatrix &b,
                      DenseMatrix &out);

/**
 * Production dense-update GEMM on the calling thread: packed,
 * register-tiled, SIMD-dispatched (AVX-512 / AVX2 / scalar chosen at
 * runtime). B is packed once per call into panel scratch reused
 * across calls on the same thread.
 *
 * @param a Left operand (m x k).
 * @param b Right operand (k x n).
 * @param out Result (m x n); resized (capacity kept) by the call.
 */
void denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b,
                    DenseMatrix &out);

/**
 * The same GEMM on every thread of @p pool: B is packed once on the
 * caller and shared read-only; A's rows are split into kGemmMr-row
 * panels and each thread computes one contiguous range of them.
 * The result is bit-identical to denseMmBlocked(a, b, out).
 *
 * @param a Left operand (m x k).
 * @param b Right operand (k x n).
 * @param out Result (m x n); resized (capacity kept) by the call.
 * @param pool Threads that share the row panels.
 */
void denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b,
                    DenseMatrix &out, parallel::ThreadPool &pool);

/**
 * The previous cache-blocked scalar GEMM (i-k-j inner ordering).
 * Kept as a comparison baseline for the packed kernel's speedup and
 * as an independent oracle in tests.
 */
void denseMmBlockedScalar(const DenseMatrix &a, const DenseMatrix &b,
                          DenseMatrix &out, uint64_t block = 64);

/** In-place ReLU: x = max(x, 0). Vectorized via the SIMD layer. */
void reluInPlace(DenseMatrix &m);

} // namespace pgcn::tensor

#endif // PGCN_TENSOR_DENSE_MM_HPP
