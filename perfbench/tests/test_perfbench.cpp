/**
 * @file
 * Tests of the benchmark itself: the percentile rule, digest
 * stability, that every correctness check catches what it is meant to
 * catch, and a tiny-input run of each workload in both modes.
 *
 * Build and run: python3 perfbench/run.py --self-test
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Relative: run.py starts the tests in the benchmark's build directory.
const char *const kTraceDir = "test-traces";

RunOptions
tinyRun(const std::string &workload, bool trace, uint64_t seed = 11)
{
    RunOptions opts;
    opts.workload = workload;
    opts.seed = seed;
    opts.seconds = 0.05; // one pass (one traced pair) is always made
    opts.trace = trace;
    opts.tiny = true;
    opts.traceDir = kTraceDir;
    return opts;
}

std::string
note(const Outcome &out, const std::string &key)
{
    for (const auto &[k, v] : out.notes) {
        if (k == key)
            return v;
    }
    return "";
}

// ---- Percentile rule --------------------------------------------------

TEST(Percentile, P90NeedsTenSamplesBeyondIt)
{
    // pgcn::percentile interpolates at rank p/100 (n - 1).
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(samplesBeyond(92, 90.0), 10u);
    EXPECT_GE(samplesBeyond(92, 90.0), kMinSamplesBeyond);
    EXPECT_EQ(samplesBeyond(91, 90.0), 9u);
    EXPECT_LT(samplesBeyond(91, 90.0), kMinSamplesBeyond);
    EXPECT_EQ(samplesBeyond(21, 50.0), 10u);
    EXPECT_EQ(samplesBeyond(1, 90.0), 0u);
    EXPECT_EQ(samplesBeyond(0, 90.0), 0u);

    // The samples counted are the ones above the percentile.
    std::vector<double> s(92);
    std::iota(s.begin(), s.end(), 1.0);
    const double p90 = pgcn::percentile(s, 90.0);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(s.begin(), s.end(), [&](double v) { return v > p90; }));
    EXPECT_EQ(beyond, samplesBeyond(s.size(), 90.0));
}

// ---- Inputs -------------------------------------------------------------

TEST(Inputs, ProxyFromPublicStepsEqualsBuildProxy)
{
    const auto &products = graph::datasetByName("products");
    for (const graph::EdgeId budget : {1u << 12, 1u << 14}) {
        const GraphInput mine = makeGraph(proxyShape(products, budget), 9);
        const auto proxy = graph::buildProxy(products, budget, 9);
        EXPECT_EQ(graphDigest(mine.adjacency), graphDigest(proxy.adjacency))
            << "budget " << budget;
    }
}

TEST(Inputs, SeedMakesTheInputs)
{
    const RmatShape shape{10, 1u << 13};
    EXPECT_EQ(graphDigest(makeGraph(shape, 3).adjacency),
              graphDigest(makeGraph(shape, 3).adjacency));
    EXPECT_NE(graphDigest(makeGraph(shape, 3).adjacency),
              graphDigest(makeGraph(shape, 4).adjacency));
}

// ---- Digests ------------------------------------------------------------

TEST(Digest, StableAcrossTwoRuns)
{
    for (const std::string w : {"des-sweep", "des-machine"}) {
        const Outcome a = runWorkload(tinyRun(w, false));
        const Outcome b = runWorkload(tinyRun(w, false));
        EXPECT_FALSE(note(a, "stats_digest").empty()) << w;
        EXPECT_EQ(note(a, "stats_digest"), note(b, "stats_digest")) << w;
        EXPECT_EQ(note(a, "sim_makespan_us (simulated)"),
                  note(b, "sim_makespan_us (simulated)"))
            << w;
        const Outcome c = runWorkload(tinyRun(w, false, 12));
        EXPECT_NE(note(a, "stats_digest"), note(c, "stats_digest")) << w;
    }
}

TEST(Digest, CoversSimulatedFieldsOnly)
{
    piuma::SpmmRunStats s;
    s.makespanNs = 100.0;
    const uint64_t base = statsDigest(s);
    piuma::SpmmRunStats host = s;
    host.wallSeconds = 9.0;
    host.eventsPerSec = 9.0;
    host.peakEventQueueDepth = 9;
    EXPECT_EQ(statsDigest(host), base);
    for (auto field : {&piuma::SpmmRunStats::makespanNs,
                       &piuma::SpmmRunStats::exposedStallNs,
                       &piuma::SpmmRunStats::recoveryNs}) {
        piuma::SpmmRunStats t = s;
        t.*field += 1.0;
        EXPECT_NE(statsDigest(t), base);
    }
    piuma::SpmmRunStats events = s;
    events.simEvents = 1;
    EXPECT_NE(statsDigest(events), base);

    piuma::DenseRunStats d;
    const uint64_t dense = statsDigest(d);
    d.wallSeconds = 1.0;
    EXPECT_EQ(statsDigest(d), dense);
    d.makespanNs = 1.0;
    EXPECT_NE(statsDigest(d), dense);
}

// ---- Correctness checks ---------------------------------------------------

class Checks : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg.numCores = 2;
        spmm = piuma::simulateSpmm(graph.adjacency, 8, cfg,
                                   piuma::SpmmAlgorithm::Dma);
        dense = piuma::simulateDenseMm(graph.adjacency.numVertices(), 8, 8,
                                       cfg);
    }

    GraphInput graph = makeGraph(RmatShape{9, 1u << 11}, 2);
    piuma::PiumaConfig cfg;
    piuma::SpmmRunStats spmm;
    piuma::DenseRunStats dense;
};

TEST_F(Checks, SpmmPassesAndCatchesEachViolation)
{
    EXPECT_EQ(checkSpmm(graph.adjacency, 8, cfg, spmm), "");

    auto bad = spmm;
    bad.flop += 2.0;
    EXPECT_NE(checkSpmm(graph.adjacency, 8, cfg, bad).find("flop"),
              std::string::npos);
    bad = spmm;
    bad.bytesServed += 64.0;
    EXPECT_NE(checkSpmm(graph.adjacency, 8, cfg, bad).find("bytesServed"),
              std::string::npos);
    bad = spmm;
    bad.retries = 1;
    EXPECT_NE(checkSpmm(graph.adjacency, 8, cfg, bad).find("retries"),
              std::string::npos);
    bad = spmm;
    bad.makespanNs = 1.0;
    EXPECT_NE(checkSpmm(graph.adjacency, 8, cfg, bad).find("bound"),
              std::string::npos);
    // The K the check is told about must be the one simulated.
    EXPECT_NE(checkSpmm(graph.adjacency, 16, cfg, spmm), "");
}

TEST_F(Checks, DensePassesAndCatchesEachViolation)
{
    const uint64_t rows = graph.adjacency.numVertices();
    EXPECT_EQ(checkDense(rows, 8, 8, cfg, dense), "");

    auto bad = dense;
    bad.flop *= 2.0;
    EXPECT_NE(checkDense(rows, 8, 8, cfg, bad).find("flop"),
              std::string::npos);
    bad = dense;
    bad.retries = 3;
    EXPECT_NE(checkDense(rows, 8, 8, cfg, bad).find("retries"),
              std::string::npos);
    bad = dense;
    bad.makespanNs = 0.0;
    EXPECT_NE(checkDense(rows, 8, 8, cfg, bad).find("bound"),
              std::string::npos);
    // Under-counted traffic must not lower the bound with it.
    bad = dense;
    bad.goodputBytes = 4.0 * static_cast<double>(rows) * 16.0 - 4.0;
    EXPECT_NE(checkDense(rows, 8, 8, cfg, bad).find("goodputBytes"),
              std::string::npos);
}

TEST(CheckLogits, ToleranceAndShape)
{
    tensor::DenseMatrix ref(4, 3);
    ref.fillRandom(1, 2.0f);
    tensor::DenseMatrix got = ref;
    EXPECT_EQ(checkLogits(got, ref), "");
    got.data()[5] += 0.5f * kLogitTolerance;
    EXPECT_EQ(checkLogits(got, ref), "");
    got.data()[5] += 10.0f * kLogitTolerance * 2.0f;
    EXPECT_NE(checkLogits(got, ref).find("differ"), std::string::npos);
    EXPECT_NE(checkLogits(tensor::DenseMatrix(4, 2), ref).find("shape"),
              std::string::npos);
}

// ---- Tiny smoke of every workload ------------------------------------------

class Smoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Smoke, EndToEndRunReportsEveryMetric)
{
    const Outcome out = runWorkload(tinyRun(GetParam(), false));
    EXPECT_GE(out.attempted, 1u);
    EXPECT_EQ(out.failed, 0u) << (out.failures.empty() ? ""
                                                        : out.failures[0]);
    ASSERT_EQ(out.metrics.size(), endToEndMetrics().size());
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        EXPECT_EQ(out.metrics[i].name, endToEndMetrics()[i].first);
        EXPECT_EQ(out.metrics[i].unit, endToEndMetrics()[i].second);
        EXPECT_GT(out.metrics[i].value, 0.0) << out.metrics[i].name;
    }
    const std::string json = resultJson(out);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u);
}

TEST_P(Smoke, TracedRunReportsEveryLayer)
{
    const Outcome out = runWorkload(tinyRun(GetParam(), true));
    EXPECT_EQ(out.failed, 0u) << (out.failures.empty() ? ""
                                                        : out.failures[0]);
    ASSERT_EQ(out.metrics.size(), perLayerMetrics().size());
    for (size_t i = 0; i < out.metrics.size(); ++i)
        EXPECT_EQ(out.metrics[i].name, perLayerMetrics()[i].first);
    EXPECT_GT(out.value("graph.build_s"), 0.0);
    EXPECT_GT(out.value("graph.normalize_s"), 0.0);
    if (GetParam() == "host-infer") {
        EXPECT_GT(out.value("kernels.spmm_ms"), 0.0);
        EXPECT_GT(out.value("tensor.gemm_ms"), 0.0);
        EXPECT_GT(out.value("tensor.relu_ms"), 0.0);
        EXPECT_GT(out.value("core.infer_ms"), 0.0);
        EXPECT_EQ(out.value("piuma.spmm.calls"), 0.0);
        EXPECT_EQ(note(out, "rebuilt_vs_infer_max_abs_diff").empty(), false);
    } else {
        EXPECT_GT(out.value("piuma.spmm.calls"), 0.0);
        EXPECT_GT(out.value("piuma.dense.calls"), 0.0);
        EXPECT_GT(out.value("sim.events"), 0.0);
        EXPECT_GT(out.value("sim.makespan_us"), 0.0);
        EXPECT_EQ(out.value("kernels.spmm_ms"), 0.0);
    }
    if (GetParam() == "des-machine") {
        // The tiny machine (64 cores) still takes the parallel plan on
        // any host with 2+ threads, and must match the sequenced oracle.
        if (out.value("sim.domains") > 1.0) {
            EXPECT_EQ(out.value("sim.parallel"), 1.0);
            EXPECT_EQ(note(out, "sequenced_check spmm/dma/cores=64/k=16"),
                      "identical");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(runWorkload(tinyRun("nope", false)), std::invalid_argument);
}

} // namespace
} // namespace perfbench
