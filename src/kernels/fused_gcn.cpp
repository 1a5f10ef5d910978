#include "kernels/fused_gcn.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmm.hpp"

namespace pgcn::kernels {

using graph::Csr;
using graph::VertexId;
using tensor::DenseMatrix;

void
fusedSpmmGemm(const Csr &a, const DenseMatrix &h_in, const DenseMatrix &w,
              DenseMatrix &h_out, parallel::ThreadPool &pool,
              bool apply_relu, uint64_t tile_rows)
{
    if (h_in.rows() != a.numVertices()) {
        PGCN_THROW(ShapeError, "fused input rows "
                                   << h_in.rows() << " != |V| = "
                                   << a.numVertices());
    }
    if (h_in.cols() != w.rows()) {
        PGCN_THROW(ShapeError, "fused inner dims "
                                   << h_in.cols() << " x " << w.rows());
    }
    PGCN_ASSERT(tile_rows > 0, "fused tile must have at least one row");

    const uint64_t k_in = h_in.cols();
    const uint64_t k_out = w.cols();
    h_out.resizeForOverwrite(a.numVertices(), k_out);
    if (a.numVertices() == 0 || k_out == 0)
        return;

    const auto &ops = simd::ops();
    float *pack = simd::gemmPackScratch(k_out, k_in);
    ops.gemmPackB(w.data(), k_out, k_out, k_in, pack);

    const auto bounds =
        nnzBalancedRowChunks(a.rowOffsets(), pool.numThreads());
    const uint64_t *offsets = a.rowOffsets().data();
    const uint32_t *cols = a.cols().data();
    const float *vals = a.vals().data();
    const float *in = h_in.data();
    float *out = h_out.data();

    pool.parallelRegion([&](unsigned t) {
        const VertexId r0 = bounds[t];
        const VertexId r1 = bounds[t + 1];
        if (r0 >= r1)
            return;
        float *tile = pool.scratchFloats(t, tile_rows * k_in);
        for (VertexId base = r0; base < r1;) {
            const auto stop = static_cast<VertexId>(
                std::min<uint64_t>(r1, base + tile_rows));
            const uint64_t m = stop - base;
            // Aggregate this row tile into cache-resident scratch...
            ops.spmmRowRange(tile, in, k_in, offsets, cols, vals, base,
                             stop, /*out_row_base=*/base);
            // ...transform it while hot...
            float *out_rows = out + static_cast<uint64_t>(base) * k_out;
            ops.gemmPrepacked(tile, k_in, pack, out_rows, k_out, m, k_out,
                              k_in, /*accumulate=*/false);
            // ...and activate the output rows before they leave cache.
            if (apply_relu)
                ops.relu(out_rows, m * k_out);
            base = stop;
        }
    });
}

} // namespace pgcn::kernels
