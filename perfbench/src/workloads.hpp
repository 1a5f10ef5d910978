/**
 * @file
 * The benchmark's three workloads, driven only through the program's
 * public entry points:
 *
 *  - des-sweep:   a fixed list of small PIUMA kernel simulations
 *                 (piuma::simulateSpmm / simulateDenseMm, auto plan).
 *  - des-machine: one GCN layer (dense update, then DMA SpMM) at 128
 *                 simulated cores on a skewed rmat-12 proxy.
 *  - host-infer:  full-graph 3-layer GCN inference (core::GcnModel).
 *
 * Every workload is a closed loop with one client. The seed given to
 * the benchmark makes the inputs; the program receives only those
 * inputs. README.md in this directory documents the choices.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "piuma/config.hpp"
#include "piuma/dense_programs.hpp"
#include "piuma/spmm_programs.hpp"
#include "tensor/dense_matrix.hpp"

namespace perfbench {

namespace graph = pgcn::graph;
namespace piuma = pgcn::piuma;
namespace tensor = pgcn::tensor;

/** How to run one workload. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    /// false: the end-to-end run (no spans). true: the traced run that
    /// reports the per-layer metrics.
    bool trace = false;
    /// Shrink every input so a run takes well under a second (the
    /// benchmark's own tests). Never used for recorded numbers.
    bool tiny = false;
    /// Directory the traced run writes its span file into.
    std::string traceDir = ".bench_build/perfbench-traces";
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** End-to-end metric names and units (every workload reports all). */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** Per-layer metric names and units (every workload reports all). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Run one workload for about opts.seconds of measurement.
 * Throws std::invalid_argument for an unknown workload name.
 */
Outcome runWorkload(const RunOptions &opts);

// ---- Building blocks, exposed for the benchmark's own tests. --------

/** Shape of an RMAT graph: log2 |V| and the edge samples drawn. */
struct RmatShape
{
    uint32_t scale = 0;
    graph::EdgeId edges = 0;
};

/**
 * The RMAT shape graph::buildProxy uses for a skewed dataset under
 * @p max_edges. Building the proxy from its two public steps
 * (generateRmat, normalizedAdjacency) lets the traced run time each
 * step; the tests pin that the result equals buildProxy's.
 */
RmatShape proxyShape(const graph::DatasetInfo &info,
                     graph::EdgeId max_edges);

/** A generated, normalised input graph and what building it cost. */
struct GraphInput
{
    graph::Csr adjacency{0, {0}, {}, {}};
    double buildNs = 0.0;     ///< graph::generateRmat
    double normalizeNs = 0.0; ///< graph::normalizedAdjacency
};

/** generateRmat(shape, rmatSkewed(), seed) then normalizedAdjacency. */
GraphInput makeGraph(const RmatShape &shape, uint64_t seed,
                     Tracer *tracer = nullptr, uint64_t request = 0);

/** FNV-1a digest of a CSR's three arrays. */
uint64_t graphDigest(const graph::Csr &csr);

/**
 * Digest of every simulated statistic of a run: all fields except the
 * host-measured ones (wallSeconds, eventsPerSec) and the
 * peakEventQueueDepth, which Parallel mode samples per worker round.
 */
uint64_t statsDigest(const piuma::SpmmRunStats &s);
uint64_t statsDigest(const piuma::DenseRunStats &s);

/**
 * Correctness of one simulated SpMM: flop == 2 |E| K, bytesServed ==
 * bytesRead + bytesWritten, zero retries, and a makespan at or above
 * the model::estimateSpmm bandwidth bound. Returns "" when it holds,
 * else the first violation.
 */
std::string checkSpmm(const graph::Csr &csr, unsigned k,
                      const piuma::PiumaConfig &cfg,
                      const piuma::SpmmRunStats &s);

/**
 * Correctness of one simulated dense update: flop == 2 |V| K_in K_out,
 * zero retries, goodputBytes at least the 4 |V| (K_in + K_out) bytes
 * of X and Y, and a makespan at or above streaming those bytes at the
 * aggregate bandwidth.
 */
std::string checkDense(uint64_t rows, unsigned k_in, unsigned k_out,
                       const piuma::PiumaConfig &cfg,
                       const piuma::DenseRunStats &s);

/**
 * Logits against the reference: max |got - ref| must not exceed
 * kLogitTolerance * max(1, max |ref|).
 */
std::string checkLogits(const tensor::DenseMatrix &got,
                        const tensor::DenseMatrix &ref);

/** Relative tolerance of checkLogits. */
inline constexpr float kLogitTolerance = 1e-4f;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
