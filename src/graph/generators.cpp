#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "graph/reorder.hpp"

namespace pgcn::graph {

RmatParams
rmatSkewed()
{
    return RmatParams{0.57, 0.19, 0.19, 0.05, 0.1};
}

RmatParams
rmatUniform()
{
    return RmatParams{0.25, 0.25, 0.25, 0.25, 0.0};
}

namespace {

/**
 * Edges generated side by side. One edge's levels form a chain of
 * dependent divides; running the levels of a batch of edges together
 * gives the core independent chains to overlap.
 */
constexpr size_t kRmatBatch = 64;

} // namespace

Coo
generateRmat(uint32_t scale, EdgeId num_edges, const RmatParams &params,
             uint64_t seed)
{
    PGCN_ASSERT(scale > 0 && scale < 32, "rmat scale out of range: " << scale);
    const double sum = params.a + params.b + params.c + params.d;
    PGCN_ASSERT(std::abs(sum - 1.0) < 1e-9,
                "rmat probabilities sum to " << sum << ", expected 1");

    const VertexId n = VertexId{1} << scale;
    Coo coo(n);
    Rng rng(seed);

    // Every level draws the quadrant, then with noise one jitter for
    // each of a, b, c, d. A batch takes its draws edge by edge in that
    // order, so the stream matches one-edge-at-a-time generation, and
    // stores them level-major: draws[k * kRmatBatch + edge].
    const bool noisy = params.noise > 0.0;
    const size_t draws_per_level = noisy ? 5 : 1;
    const size_t draws_per_edge = scale * draws_per_level;
    const double jitter_lo = 1.0 - params.noise;
    const double jitter_span = 2.0 * params.noise;
    std::vector<double> draws(draws_per_edge * kRmatBatch);
    std::array<double, kRmatBatch> a{}, b{}, c{}, d{};
    std::array<VertexId, kRmatBatch> row{}, col{};

    for (EdgeId first = 0; first < num_edges; first += kRmatBatch) {
        const auto count = static_cast<size_t>(
            std::min<EdgeId>(kRmatBatch, num_edges - first));
        for (size_t i = 0; i < count; ++i) {
            for (size_t k = 0; k < draws_per_edge; ++k)
                draws[k * kRmatBatch + i] = rng.uniform();
        }
        a.fill(params.a);
        b.fill(params.b);
        c.fill(params.c);
        d.fill(params.d);
        row.fill(0);
        col.fill(0);
        for (uint32_t level = 0; level < scale; ++level) {
            const VertexId bit = VertexId{1} << (scale - 1 - level);
            const double *r = &draws[level * draws_per_level * kRmatBatch];
            for (size_t i = 0; i < count; ++i) {
                // Quadrants [0,a) none, [a,a+b) col, [a+b,a+b+c) row,
                // the rest both.
                const double ab = a[i] + b[i];
                if (r[i] >= ab)
                    row[i] |= bit;
                if ((r[i] >= a[i] && r[i] < ab) || r[i] >= ab + c[i])
                    col[i] |= bit;
            }
            if (!noisy)
                continue;
            // Multiplicative noise, renormalised, as in SNAP's smoothed
            // RMAT to break the staircase artefact.
            const double *ja = r + kRmatBatch;
            const double *jb = r + 2 * kRmatBatch;
            const double *jc = r + 3 * kRmatBatch;
            const double *jd = r + 4 * kRmatBatch;
            for (size_t i = 0; i < count; ++i) {
                const double na = a[i] * (jitter_lo + jitter_span * ja[i]);
                const double nb = b[i] * (jitter_lo + jitter_span * jb[i]);
                const double nc = c[i] * (jitter_lo + jitter_span * jc[i]);
                const double nd = d[i] * (jitter_lo + jitter_span * jd[i]);
                const double s = na + nb + nc + nd;
                a[i] = na / s;
                b[i] = nb / s;
                c[i] = nc / s;
                d[i] = nd / s;
            }
        }
        for (size_t i = 0; i < count; ++i)
            coo.addEdge(row[i], col[i]);
    }
    return coo;
}

Coo
generateUniform(VertexId num_vertices, EdgeId num_edges, uint64_t seed)
{
    PGCN_ASSERT(num_vertices > 0, "uniform graph needs vertices");
    Coo coo(num_vertices);
    Rng rng(seed);
    for (EdgeId i = 0; i < num_edges; ++i) {
        const auto src = static_cast<VertexId>(rng.uniformInt(num_vertices));
        const auto dst = static_cast<VertexId>(rng.uniformInt(num_vertices));
        coo.addEdge(src, dst);
    }
    return coo;
}

Coo
shuffleVertexIds(const Coo &coo, uint64_t seed)
{
    return shuffleOrder(coo.numVertices(), seed).applyToCoo(coo);
}

} // namespace pgcn::graph
