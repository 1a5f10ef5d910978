/**
 * @file
 * Shared templated implementation of the SIMD kernel backends.
 *
 * Each backend translation unit (simd_scalar.cpp, simd_avx2.cpp,
 * simd_avx512.cpp) defines a vector Policy — lane count plus
 * load/store/fma/max primitives over its register type — and
 * instantiates Backend<Policy> here, compiled with that TU's -m
 * flags. The kernels themselves are written once:
 *
 *  - axpy / relu: straight-line vector loops with scalar tails.
 *  - spmmRowRange / spmmGatherRows: the feature dimension is walked
 *    in blocks of four vector registers that stay resident across
 *    all non-zeros of a row (multi-accumulator inner loop), so each
 *    output row is written exactly once and the inner loop is pure
 *    FMA on loaded feature rows.
 *  - gemmPackB / gemmPrepacked: BLIS-style packed GEMM. B is packed
 *    into NR-column panels (NR = two vector registers); the
 *    microkernel computes an MR x NR register tile (MR = 6) with
 *    KC-blocked accumulation over the inner dimension.
 */
#ifndef PGCN_KERNELS_SIMD_BACKEND_INC_HPP
#define PGCN_KERNELS_SIMD_BACKEND_INC_HPP

#include <algorithm>
#include <cstdint>

#include "kernels/simd.hpp"

namespace pgcn::kernels::simd::detail {

/** Inner-dimension cache block of the packed GEMM. */
inline constexpr uint64_t kGemmKc = 256;
/** Widest panel across tiers (AVX-512: NR = 2 * 16). */
inline constexpr uint64_t kGemmNrMax = 32;

template <class P> struct Backend
{
    using V = typename P::V;
    static constexpr uint64_t W = P::W;
    /** Panel width: two vector registers of columns. */
    static constexpr uint64_t NR = 2 * W;

    static void
    axpy(float *y, const float *x, float w, uint64_t k)
    {
        const V vw = P::set1(w);
        uint64_t j = 0;
        for (; j + 4 * W <= k; j += 4 * W) {
            P::store(y + j, P::fma(vw, P::load(x + j), P::load(y + j)));
            P::store(y + j + W,
                     P::fma(vw, P::load(x + j + W), P::load(y + j + W)));
            P::store(y + j + 2 * W, P::fma(vw, P::load(x + j + 2 * W),
                                           P::load(y + j + 2 * W)));
            P::store(y + j + 3 * W, P::fma(vw, P::load(x + j + 3 * W),
                                           P::load(y + j + 3 * W)));
        }
        for (; j + W <= k; j += W)
            P::store(y + j, P::fma(vw, P::load(x + j), P::load(y + j)));
        for (; j < k; ++j)
            y[j] += w * x[j];
    }

    /**
     * One output row, feature block [j, j + NB*W): NB accumulators
     * held in registers across every non-zero of the row, so each
     * feature row is gathered in as few passes as possible (NB = 8
     * covers a whole k=128 row in one pass on AVX-512), and the row
     * start — the one access the hardware prefetcher cannot predict —
     * is touched once instead of once per pass.
     */
    template <int NB>
    static void
    rowBlockN(float *out_row, const float *h_in, uint64_t k,
              const uint32_t *cols, const float *vals, uint64_t e0,
              uint64_t e1, uint64_t j, bool accumulate)
    {
        V acc[NB];
        for (int b = 0; b < NB; ++b) {
            acc[b] = accumulate
                         ? P::load(out_row + j + static_cast<uint64_t>(b) * W)
                         : P::zero();
        }
        for (uint64_t e = e0; e < e1; ++e) {
            const float *in =
                h_in + static_cast<uint64_t>(cols[e]) * k + j;
            const V vw = P::set1(vals[e]);
            for (int b = 0; b < NB; ++b) {
                acc[b] = P::fma(
                    vw, P::load(in + static_cast<uint64_t>(b) * W),
                    acc[b]);
            }
        }
        for (int b = 0; b < NB; ++b)
            P::store(out_row + j + static_cast<uint64_t>(b) * W, acc[b]);
    }

    /** One output row, all feature blocks. */
    static void
    rowKernel(float *out_row, const float *h_in, uint64_t k,
              const uint32_t *cols, const float *vals, uint64_t e0,
              uint64_t e1, bool accumulate)
    {
        uint64_t j = 0;
        for (; j + 8 * W <= k; j += 8 * W)
            rowBlockN<8>(out_row, h_in, k, cols, vals, e0, e1, j,
                         accumulate);
        for (; j + 4 * W <= k; j += 4 * W)
            rowBlockN<4>(out_row, h_in, k, cols, vals, e0, e1, j,
                         accumulate);
        for (; j + W <= k; j += W) {
            V a = accumulate ? P::load(out_row + j) : P::zero();
            for (uint64_t e = e0; e < e1; ++e) {
                const float *in =
                    h_in + static_cast<uint64_t>(cols[e]) * k + j;
                a = P::fma(P::set1(vals[e]), P::load(in), a);
            }
            P::store(out_row + j, a);
        }
        for (; j < k; ++j) {
            float s = accumulate ? out_row[j] : 0.0f;
            for (uint64_t e = e0; e < e1; ++e)
                s += vals[e] * h_in[static_cast<uint64_t>(cols[e]) * k + j];
            out_row[j] = s;
        }
    }

    static void
    spmmRowRange(float *out, const float *h_in, uint64_t k,
                 const uint64_t *offsets, const uint32_t *cols,
                 const float *vals, uint64_t row_begin, uint64_t row_end,
                 uint64_t out_row_base)
    {
        for (uint64_t u = row_begin; u < row_end; ++u) {
            float *out_row = out + (u - out_row_base) * k;
            rowKernel(out_row, h_in, k, cols, vals, offsets[u],
                      offsets[u + 1], /*accumulate=*/false);
        }
    }

    static void
    spmmGatherRows(float *out, const float *h_in, uint64_t k,
                   const uint32_t *row_ids, const uint64_t *offsets,
                   const uint32_t *cols, const float *vals,
                   uint64_t i_begin, uint64_t i_end)
    {
        for (uint64_t i = i_begin; i < i_end; ++i) {
            float *out_row =
                out + static_cast<uint64_t>(row_ids[i]) * k;
            rowKernel(out_row, h_in, k, cols, vals, offsets[i],
                      offsets[i + 1], /*accumulate=*/true);
        }
    }

    static void
    relu(float *p, uint64_t n)
    {
        uint64_t i = 0;
        for (; i + 4 * W <= n; i += 4 * W) {
            P::store(p + i, P::max0(P::load(p + i)));
            P::store(p + i + W, P::max0(P::load(p + i + W)));
            P::store(p + i + 2 * W, P::max0(P::load(p + i + 2 * W)));
            P::store(p + i + 3 * W, P::max0(P::load(p + i + 3 * W)));
        }
        for (; i + W <= n; i += W)
            P::store(p + i, P::max0(P::load(p + i)));
        for (; i < n; ++i)
            p[i] = p[i] < 0.0f ? 0.0f : p[i];
    }

    static void
    gemmPackB(const float *b, uint64_t ldb, uint64_t n, uint64_t kk,
              float *pack_buf)
    {
        uint64_t panel = 0;
        for (uint64_t j0 = 0; j0 < n; j0 += NR, ++panel) {
            float *dst = pack_buf + panel * kk * NR;
            const uint64_t jw = std::min(NR, n - j0);
            for (uint64_t p = 0; p < kk; ++p) {
                const float *src = b + p * ldb + j0;
                uint64_t j = 0;
                for (; j < jw; ++j)
                    dst[j] = src[j];
                for (; j < NR; ++j)
                    dst[j] = 0.0f;
                dst += NR;
            }
        }
    }

    /**
     * MR_ x NR register-tile microkernel over packed-B panel rows
     * [p0, p1). Writes the jw (<= NR) valid columns of C; beta_one
     * accumulates into the existing C values.
     */
    template <int MR_>
    static void
    micro(const float *a, uint64_t lda, const float *panel, float *c,
          uint64_t ldc, uint64_t p0, uint64_t p1, bool beta_one,
          uint64_t jw)
    {
        V acc[MR_][2];
        for (int r = 0; r < MR_; ++r) {
            acc[r][0] = P::zero();
            acc[r][1] = P::zero();
        }
        for (uint64_t p = p0; p < p1; ++p) {
            const V b0 = P::load(panel + p * NR);
            const V b1 = P::load(panel + p * NR + W);
            for (int r = 0; r < MR_; ++r) {
                const V va = P::set1(a[static_cast<uint64_t>(r) * lda + p]);
                acc[r][0] = P::fma(va, b0, acc[r][0]);
                acc[r][1] = P::fma(va, b1, acc[r][1]);
            }
        }
        if (jw == NR) {
            for (int r = 0; r < MR_; ++r) {
                float *crow = c + static_cast<uint64_t>(r) * ldc;
                if (beta_one) {
                    P::store(crow, P::add(P::load(crow), acc[r][0]));
                    P::store(crow + W,
                             P::add(P::load(crow + W), acc[r][1]));
                } else {
                    P::store(crow, acc[r][0]);
                    P::store(crow + W, acc[r][1]);
                }
            }
        } else {
            alignas(64) float tmp[kGemmMr * kGemmNrMax * 2];
            for (int r = 0; r < MR_; ++r) {
                P::store(tmp + static_cast<uint64_t>(r) * NR, acc[r][0]);
                P::store(tmp + static_cast<uint64_t>(r) * NR + W,
                         acc[r][1]);
            }
            for (int r = 0; r < MR_; ++r) {
                float *crow = c + static_cast<uint64_t>(r) * ldc;
                const float *trow = tmp + static_cast<uint64_t>(r) * NR;
                for (uint64_t j = 0; j < jw; ++j)
                    crow[j] = beta_one ? crow[j] + trow[j] : trow[j];
            }
        }
    }

    static void
    microDispatch(int mr, const float *a, uint64_t lda, const float *panel,
                  float *c, uint64_t ldc, uint64_t p0, uint64_t p1,
                  bool beta_one, uint64_t jw)
    {
        switch (mr) {
        case 6: micro<6>(a, lda, panel, c, ldc, p0, p1, beta_one, jw); break;
        case 5: micro<5>(a, lda, panel, c, ldc, p0, p1, beta_one, jw); break;
        case 4: micro<4>(a, lda, panel, c, ldc, p0, p1, beta_one, jw); break;
        case 3: micro<3>(a, lda, panel, c, ldc, p0, p1, beta_one, jw); break;
        case 2: micro<2>(a, lda, panel, c, ldc, p0, p1, beta_one, jw); break;
        default: micro<1>(a, lda, panel, c, ldc, p0, p1, beta_one, jw);
        }
    }

    static void
    gemmPrepacked(const float *a, uint64_t lda, const float *packed_b,
                  float *c, uint64_t ldc, uint64_t m, uint64_t n,
                  uint64_t kk, bool accumulate)
    {
        if (kk == 0) {
            if (!accumulate) {
                for (uint64_t i = 0; i < m; ++i) {
                    float *crow = c + i * ldc;
                    for (uint64_t j = 0; j < n; ++j)
                        crow[j] = 0.0f;
                }
            }
            return;
        }
        for (uint64_t pc = 0; pc < kk; pc += kGemmKc) {
            const uint64_t p1 = std::min(pc + kGemmKc, kk);
            const bool beta_one = accumulate || pc > 0;
            for (uint64_t i0 = 0; i0 < m; i0 += kGemmMr) {
                const int mr = static_cast<int>(
                    std::min<uint64_t>(kGemmMr, m - i0));
                uint64_t panel = 0;
                for (uint64_t j0 = 0; j0 < n; j0 += NR, ++panel) {
                    const float *panel_base =
                        packed_b + panel * kk * NR;
                    microDispatch(mr, a + i0 * lda, lda, panel_base,
                                  c + i0 * ldc + j0, ldc, pc, p1,
                                  beta_one, std::min(NR, n - j0));
                }
            }
        }
    }
};

/** Fill an Ops table from one backend instantiation. */
template <class P>
Ops
makeOps(Tier tier)
{
    Ops t;
    t.tier = tier;
    t.width = P::W;
    t.axpy = &Backend<P>::axpy;
    t.spmmRowRange = &Backend<P>::spmmRowRange;
    t.spmmGatherRows = &Backend<P>::spmmGatherRows;
    t.relu = &Backend<P>::relu;
    t.gemmPackB = &Backend<P>::gemmPackB;
    t.gemmPrepacked = &Backend<P>::gemmPrepacked;
    return t;
}

} // namespace pgcn::kernels::simd::detail

#endif // PGCN_KERNELS_SIMD_BACKEND_INC_HPP
