#include "tensor/dense_mm.hpp"

#include <algorithm>

#include "kernels/simd.hpp"

namespace pgcn::tensor {

namespace {

void
checkGemmShapes(const DenseMatrix &a, const DenseMatrix &b)
{
    PGCN_ASSERT(a.cols() == b.rows(),
                "gemm shape mismatch: " << a.rows() << "x" << a.cols()
                                        << " * " << b.rows() << "x"
                                        << b.cols());
}

/**
 * Check shapes, shape @p out for a * b and pack @p b into the calling
 * thread's scratch. A zero dimension needs no special case: the pack
 * and micro-kernel loops are empty on it, and kk == 0 zero-fills out.
 *
 * @return The packed B, read-only for every thread of a pooled call.
 */
const float *
prepareGemm(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out)
{
    checkGemmShapes(a, b);
    out.resizeForOverwrite(a.rows(), b.cols());
    float *pack = kernels::simd::gemmPackScratch(b.cols(), b.rows());
    kernels::simd::ops().gemmPackB(b.data(), b.cols(), b.cols(), b.rows(),
                                   pack);
    return pack;
}

/** out rows [r0, r1) = a rows [r0, r1) * packed B (overwrite). */
void
gemmRows(const DenseMatrix &a, const float *packed_b, DenseMatrix &out,
         uint64_t r0, uint64_t r1)
{
    const uint64_t kk = a.cols();
    const uint64_t n = out.cols();
    kernels::simd::ops().gemmPrepacked(a.data() + r0 * kk, kk, packed_b,
                                       out.data() + r0 * n, n, r1 - r0, n,
                                       kk, /*accumulate=*/false);
}

} // namespace

void
denseMmReference(const DenseMatrix &a, const DenseMatrix &b,
                 DenseMatrix &out)
{
    checkGemmShapes(a, b);
    out.resize(a.rows(), b.cols());
    for (uint64_t i = 0; i < a.rows(); ++i) {
        for (uint64_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            const auto brow = b.row(k);
            auto orow = out.row(i);
            for (uint64_t j = 0; j < b.cols(); ++j)
                orow[j] += aik * brow[j];
        }
    }
}

void
denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out)
{
    const float *pack = prepareGemm(a, b, out);
    gemmRows(a, pack, out, 0, a.rows());
}

void
denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out,
               parallel::ThreadPool &pool)
{
    const float *pack = prepareGemm(a, b, out);
    // Whole MR-row panels per thread: each row meets the same
    // micro-kernel and k-order as in the single-thread call.
    constexpr uint64_t mr = kernels::simd::kGemmMr;
    const uint64_t m = a.rows();
    pool.parallelFor((m + mr - 1) / mr, parallel::Schedule::Static, 1,
                     [&](unsigned, uint64_t p0, uint64_t p1) {
                         gemmRows(a, pack, out, p0 * mr,
                                  std::min(p1 * mr, m));
                     });
}

void
denseMmBlockedScalar(const DenseMatrix &a, const DenseMatrix &b,
                     DenseMatrix &out, uint64_t block)
{
    checkGemmShapes(a, b);
    PGCN_ASSERT(block > 0, "gemm block must be positive");
    const uint64_t m = a.rows();
    const uint64_t kk = a.cols();
    const uint64_t n = b.cols();
    out.resize(m, n);

    for (uint64_t i0 = 0; i0 < m; i0 += block) {
        const uint64_t i1 = std::min(i0 + block, m);
        for (uint64_t k0 = 0; k0 < kk; k0 += block) {
            const uint64_t k1 = std::min(k0 + block, kk);
            for (uint64_t i = i0; i < i1; ++i) {
                auto orow = out.row(i);
                for (uint64_t k = k0; k < k1; ++k) {
                    const float aik = a.at(i, k);
                    const auto brow = b.row(k);
                    for (uint64_t j = 0; j < n; ++j)
                        orow[j] += aik * brow[j];
                }
            }
        }
    }
}

void
reluInPlace(DenseMatrix &m)
{
    kernels::simd::ops().relu(m.data(), m.size());
}

} // namespace pgcn::tensor
