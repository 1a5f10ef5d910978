/**
 * @file
 * Unit and property tests for src/graph: COO cleaning passes, CSR
 * construction and invariants, GCN normalisation, generators, dataset
 * catalog and proxy builder.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/manifest.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/normalize.hpp"

namespace {

using namespace pgcn::graph;

Coo
triangleGraph()
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(1, 2);
    coo.addEdge(2, 0);
    return coo;
}

TEST(Coo, AddAndCount)
{
    Coo coo = triangleGraph();
    EXPECT_EQ(coo.numVertices(), 3u);
    EXPECT_EQ(coo.numEdges(), 3u);
}

TEST(Coo, SortCombinesDuplicates)
{
    Coo coo(2);
    coo.addEdge(0, 1, 1.0f);
    coo.addEdge(0, 1, 2.5f);
    coo.addEdge(1, 0, 1.0f);
    coo.sortAndCombineDuplicates();
    ASSERT_EQ(coo.numEdges(), 2u);
    EXPECT_FLOAT_EQ(coo.edges()[0].weight, 3.5f);
}

TEST(Coo, SymmetrizeAddsReverseEdges)
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(0, 2);
    coo.symmetrize();
    EXPECT_EQ(coo.numEdges(), 4u);
    std::set<std::pair<VertexId, VertexId>> have;
    for (const auto &e : coo.edges())
        have.insert({e.src, e.dst});
    EXPECT_TRUE(have.count({1, 0}));
    EXPECT_TRUE(have.count({2, 0}));
}

TEST(Coo, SymmetrizeIdempotentOnSymmetricInput)
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(1, 0);
    coo.symmetrize();
    // (0,1) and (1,0) each gain a reverse duplicate which merges:
    // weights double but the structure stays 2 edges.
    EXPECT_EQ(coo.numEdges(), 2u);
}

TEST(Coo, SelfLoopRoundTrip)
{
    Coo coo = triangleGraph();
    coo.addSelfLoops();
    EXPECT_EQ(coo.numEdges(), 6u);
    coo.removeSelfLoops();
    EXPECT_EQ(coo.numEdges(), 3u);
}

TEST(Csr, FromCooBasicStructure)
{
    Csr csr(triangleGraph());
    EXPECT_EQ(csr.numVertices(), 3u);
    EXPECT_EQ(csr.numEdges(), 3u);
    EXPECT_EQ(csr.degree(0), 1u);
    EXPECT_EQ(csr.rowCols(0)[0], 1u);
    EXPECT_EQ(csr.rowCols(1)[0], 2u);
    EXPECT_EQ(csr.rowCols(2)[0], 0u);
}

TEST(Csr, EmptyRowsHandled)
{
    Coo coo(4);
    coo.addEdge(0, 3);
    coo.addEdge(3, 0);
    Csr csr(coo);
    EXPECT_EQ(csr.degree(1), 0u);
    EXPECT_EQ(csr.degree(2), 0u);
    EXPECT_EQ(csr.numEdges(), 2u);
}

TEST(Csr, DensityAndDegree)
{
    Csr csr(triangleGraph());
    EXPECT_DOUBLE_EQ(csr.density(), 3.0 / 9.0);
    EXPECT_DOUBLE_EQ(csr.averageDegree(), 1.0);
}

TEST(Csr, RowOfEdgeMatchesLinearScan)
{
    Coo coo = generateUniform(50, 400, 7);
    Csr csr(coo);
    for (EdgeId e = 0; e < csr.numEdges(); ++e) {
        const VertexId u = csr.rowOfEdge(e);
        EXPECT_LE(csr.rowOffsets()[u], e);
        EXPECT_LT(e, csr.rowOffsets()[u + 1]);
    }
}

TEST(Csr, RowOfEdgeSkipsEmptyRows)
{
    Coo coo(5);
    coo.addEdge(0, 1);
    coo.addEdge(4, 2); // rows 1..3 empty
    Csr csr(coo);
    EXPECT_EQ(csr.rowOfEdge(0), 0u);
    EXPECT_EQ(csr.rowOfEdge(1), 4u);
}

TEST(Normalize, ValuesAreInverseSqrtDegreeProducts)
{
    Coo coo = generateRmat(8, 2000, rmatSkewed(), 3);
    Csr norm = normalizedAdjacency(coo);
    for (VertexId u = 0; u < norm.numVertices(); ++u) {
        const double du = static_cast<double>(norm.degree(u));
        auto cols = norm.rowCols(u);
        auto vals = norm.rowVals(u);
        for (size_t i = 0; i < cols.size(); ++i) {
            const double dv = static_cast<double>(norm.degree(cols[i]));
            EXPECT_NEAR(vals[i], 1.0 / std::sqrt(du * dv), 1e-6)
                << "edge " << u << "->" << cols[i];
            EXPECT_GT(vals[i], 0.0f);
            EXPECT_LE(vals[i], 1.0f);
        }
    }
}

TEST(Normalize, SymmetricValues)
{
    Coo coo(4);
    coo.addEdge(0, 1);
    coo.addEdge(1, 2);
    coo.addEdge(2, 3);
    Csr norm = normalizedAdjacency(coo);
    // A~[u][v] == A~[v][u] for the symmetric normalisation.
    for (VertexId u = 0; u < norm.numVertices(); ++u) {
        auto cols = norm.rowCols(u);
        auto vals = norm.rowVals(u);
        for (size_t i = 0; i < cols.size(); ++i) {
            const VertexId v = cols[i];
            auto vcols = norm.rowCols(v);
            auto vvals = norm.rowVals(v);
            bool found = false;
            for (size_t j = 0; j < vcols.size(); ++j) {
                if (vcols[j] == u) {
                    EXPECT_FLOAT_EQ(vals[i], vvals[j]);
                    found = true;
                }
            }
            EXPECT_TRUE(found) << "missing reverse edge " << v << "->" << u;
        }
    }
}

TEST(Normalize, IsolatedVertexGetsUnitSelfLoop)
{
    Coo coo(3);
    coo.addEdge(0, 1); // vertex 2 isolated
    Csr norm = normalizedAdjacency(coo);
    // Isolated vertex has only its self loop, normalised to 1/1.
    EXPECT_EQ(norm.degree(2), 1u);
    EXPECT_FLOAT_EQ(norm.rowVals(2)[0], 1.0f);
}

// ------------------------------------------- differential graph build
//
// Csr(const Coo&) and normalizedAdjacency build through one counting
// sort. The oracle is the comparison-sort pipeline they replaced: the
// Coo cleaning passes, then rows laid out from the sorted edge list.
// Both must agree bit for bit.

Csr
oracleCsr(const Coo &coo)
{
    Coo sorted = coo;
    sorted.sortAndCombineDuplicates();
    const VertexId n = sorted.numVertices();
    std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
    std::vector<VertexId> cols;
    std::vector<Value> vals;
    for (const Edge &e : sorted.edges()) {
        ++offsets[e.src + 1];
        cols.push_back(e.dst);
        vals.push_back(e.weight);
    }
    for (VertexId v = 0; v < n; ++v)
        offsets[v + 1] += offsets[v];
    return Csr(n, std::move(offsets), std::move(cols), std::move(vals));
}

Csr
oracleNormalized(const Coo &coo)
{
    Coo prepared = coo;
    prepared.removeSelfLoops();
    prepared.symmetrize();
    prepared.addSelfLoops(1.0f);
    const Csr structural = oracleCsr(prepared);
    const VertexId n = structural.numVertices();
    std::vector<double> inv_sqrt_deg(n);
    for (VertexId u = 0; u < n; ++u) {
        inv_sqrt_deg[u] =
            1.0 / std::sqrt(static_cast<double>(structural.degree(u)));
    }
    std::vector<Value> vals(structural.numEdges());
    const auto &offsets = structural.rowOffsets();
    const auto &cols = structural.cols();
    for (VertexId u = 0; u < n; ++u) {
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
            vals[e] = static_cast<Value>(inv_sqrt_deg[u] *
                                         inv_sqrt_deg[cols[e]]);
        }
    }
    return Csr(n, offsets, cols, std::move(vals));
}

template <typename T>
bool
bytesEqual(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void
expectBitEqual(const Csr &got, const Csr &want)
{
    ASSERT_EQ(got.numVertices(), want.numVertices());
    ASSERT_EQ(got.numEdges(), want.numEdges());
    EXPECT_TRUE(bytesEqual(got.rowOffsets(), want.rowOffsets()));
    EXPECT_TRUE(bytesEqual(got.cols(), want.cols()));
    EXPECT_TRUE(bytesEqual(got.vals(), want.vals()));
    for (VertexId u = 0; u < got.numVertices(); ++u) {
        const auto cols = got.rowCols(u);
        for (size_t i = 1; i < cols.size(); ++i)
            ASSERT_LT(cols[i - 1], cols[i]) << "row " << u;
    }
}

void
expectBothBuildsMatchOracle(const Coo &coo)
{
    {
        SCOPED_TRACE("Csr(const Coo&)");
        expectBitEqual(Csr(coo), oracleCsr(coo));
    }
    {
        SCOPED_TRACE("normalizedAdjacency");
        expectBitEqual(normalizedAdjacency(coo), oracleNormalized(coo));
    }
}

TEST(GraphBuild, EmptyGraphs)
{
    expectBothBuildsMatchOracle(Coo(0));
    expectBothBuildsMatchOracle(Coo(1));
    const Csr single = normalizedAdjacency(Coo(1));
    ASSERT_EQ(single.numEdges(), 1u);
    EXPECT_EQ(single.vals()[0], 1.0f);
}

TEST(GraphBuild, SelfLoopsOnly)
{
    Coo coo(4);
    coo.addEdge(0, 0, 2.0f);
    coo.addEdge(2, 2);
    coo.addEdge(2, 2, -0.5f);
    expectBothBuildsMatchOracle(coo);
    EXPECT_EQ(normalizedAdjacency(coo).numEdges(), 4u);
}

TEST(GraphBuild, DuplicatesAndBothDirections)
{
    Coo coo(5);
    coo.addEdge(0, 1);
    coo.addEdge(0, 1);
    coo.addEdge(1, 0);
    coo.addEdge(0, 1);
    coo.addEdge(3, 2);
    coo.addEdge(2, 3);
    coo.addEdge(3, 2);
    coo.addEdge(4, 0);
    coo.addEdge(4, 4);
    expectBothBuildsMatchOracle(coo);
}

TEST(GraphBuild, NonUnitAndNegativeWeights)
{
    // Every partial sum is exact in float, so the oracle's unspecified
    // duplicate order cannot change its sums.
    Coo coo(6);
    coo.addEdge(0, 1, 2.5f);
    coo.addEdge(0, 1, -1.0f);
    coo.addEdge(1, 0, 0.25f);
    coo.addEdge(0, 1, 0.25f);
    coo.addEdge(2, 5, -3.0f);
    coo.addEdge(5, 2, 4.0f);
    coo.addEdge(2, 5, 3.0f);
    coo.addEdge(3, 3, -7.0f);
    coo.addEdge(4, 1, 0.0f);
    expectBothBuildsMatchOracle(coo);
    // Csr(Coo) keeps summed weights; the normalisation ignores them.
    const Csr weighted(coo);
    EXPECT_EQ(weighted.rowVals(0)[0], 1.75f);
    EXPECT_EQ(weighted.rowVals(2)[0], 0.0f);
}

TEST(GraphBuild, DuplicatesSumInInputOrder)
{
    // 1e8f + 1 rounds back to 1e8f, so input order gives 0 where the
    // reassociated sum would give 1.
    Coo coo(2);
    coo.addEdge(0, 1, 1e8f);
    coo.addEdge(0, 1, 1.0f);
    coo.addEdge(0, 1, -1e8f);
    const Csr csr(coo);
    ASSERT_EQ(csr.numEdges(), 1u);
    EXPECT_EQ(csr.vals()[0], (1e8f + 1.0f) + -1e8f);
}

TEST(GraphBuild, IsolatedVertices)
{
    Coo coo(10);
    coo.addEdge(1, 7);
    coo.addEdge(7, 3);
    coo.addEdge(9, 1);
    expectBothBuildsMatchOracle(coo);
}

TEST(GraphBuild, StarHub)
{
    Coo coo(300);
    for (VertexId v = 1; v < 300; ++v)
        coo.addEdge(150, v);
    for (VertexId v = 1; v < 300; v += 7)
        coo.addEdge(v, 150);
    coo.addEdge(150, 0);
    coo.addEdge(150, 150);
    expectBothBuildsMatchOracle(coo);
}

TEST(GraphBuild, RmatGrid)
{
    for (uint32_t scale = 6; scale <= 12; ++scale) {
        const EdgeId samples = EdgeId{8} << scale;
        SCOPED_TRACE("scale " + std::to_string(scale));
        expectBothBuildsMatchOracle(
            generateRmat(scale, samples, rmatSkewed(), scale));
        expectBothBuildsMatchOracle(
            generateRmat(scale, samples, rmatUniform(), scale + 100));
    }
    expectBothBuildsMatchOracle(
        shuffleVertexIds(generateRmat(10, 8u << 10, rmatSkewed(), 3), 4));
}

TEST(GraphBuild, GoldenDigestRmat14)
{
    // Pinned from the comparison-sort pipeline: any change to the
    // structure or the value arithmetic of A~ moves this digest.
    const Csr a =
        normalizedAdjacency(generateRmat(14, 1u << 17, rmatSkewed(), 1));
    const auto &ro = a.rowOffsets();
    const auto &cols = a.cols();
    const auto &vals = a.vals();
    uint64_t h = pgcn::fnv1a64(ro.data(), ro.size() * sizeof(ro[0]));
    h = pgcn::fnv1a64(cols.data(), cols.size() * sizeof(cols[0]), h);
    h = pgcn::fnv1a64(vals.data(), vals.size() * sizeof(vals[0]), h);
    EXPECT_EQ(a.numEdges(), 244102u);
    EXPECT_EQ(pgcn::hashHex(h), "482c5457e368c5b0");
}

TEST(Generators, RmatDeterministic)
{
    Coo a = generateRmat(6, 500, rmatSkewed(), 9);
    Coo b = generateRmat(6, 500, rmatSkewed(), 9);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_TRUE(a.edges() == b.edges());
}

TEST(Generators, RmatEdgeCountAndBounds)
{
    Coo coo = generateRmat(7, 1000, rmatSkewed(), 1);
    EXPECT_EQ(coo.numVertices(), 128u);
    EXPECT_EQ(coo.numEdges(), 1000u);
    for (const auto &e : coo.edges()) {
        EXPECT_LT(e.src, 128u);
        EXPECT_LT(e.dst, 128u);
    }
}

TEST(Generators, SkewedHasHigherVarianceThanUniform)
{
    const EdgeId edges = 1u << 14;
    Csr skewed(generateRmat(10, edges, rmatSkewed(), 5));
    Csr uniform(generateRmat(10, edges, rmatUniform(), 5));
    const auto s = degreeStats(skewed);
    const auto u = degreeStats(uniform);
    EXPECT_GT(s.coefficientOfVariation, 2.0 * u.coefficientOfVariation);
    EXPECT_GT(s.gini, u.gini);
}

TEST(Generators, UniformDeterministicAndBounded)
{
    Coo a = generateUniform(100, 500, 3);
    Coo b = generateUniform(100, 500, 3);
    EXPECT_TRUE(a.edges() == b.edges());
    for (const auto &e : a.edges()) {
        EXPECT_LT(e.src, 100u);
        EXPECT_LT(e.dst, 100u);
    }
}

TEST(Datasets, TableOneCatalog)
{
    const auto &ogb = ogbDatasets();
    ASSERT_EQ(ogb.size(), 9u);
    EXPECT_EQ(ogb.front().name, "ddi");
    EXPECT_EQ(ogb.front().numVertices, 4267u);
    EXPECT_EQ(ogb.front().numEdges, 1334889u);
    EXPECT_EQ(ogb.back().name, "papers");
    EXPECT_EQ(ogb.back().numVertices, 111059956u);
    EXPECT_EQ(ogb.back().numEdges, 1615685872u);
}

TEST(Datasets, LookupByName)
{
    const auto &d = datasetByName("products");
    EXPECT_EQ(d.numVertices, 2449029u);
    EXPECT_EQ(d.numEdges, 61859140u);
}

TEST(Datasets, PowerGraphsPresent)
{
    EXPECT_EQ(datasetByName("power-16").numVertices, uint64_t{1} << 16);
    EXPECT_EQ(datasetByName("power-22").numVertices, uint64_t{1} << 22);
    EXPECT_EQ(allDatasets().size(), 11u);
}

TEST(Datasets, ProxyRespectsEdgeBudget)
{
    const auto proxy = buildProxy(datasetByName("products"), 1u << 14, 1);
    // Normalisation roughly doubles directed edges and adds loops;
    // allow generous slack but verify the down-scale happened.
    EXPECT_LT(proxy.adjacency.numEdges(), (1u << 14) * 4u);
    EXPECT_GT(proxy.scaleFactor, 1000.0);
}

TEST(Datasets, ProxyPreservesAverageDegreeWithinFactor)
{
    const auto &info = datasetByName("products");
    const auto proxy = buildProxy(info, 1u << 16, 1);
    const double published_degree =
        static_cast<double>(info.numEdges) /
        static_cast<double>(info.numVertices);
    const double proxy_degree = proxy.adjacency.averageDegree();
    // Symmetrization + self loops inflate degree up to ~2x + 1;
    // RMAT power-of-two rounding can shrink it. Check the ballpark.
    EXPECT_GT(proxy_degree, published_degree / 4.0);
    EXPECT_LT(proxy_degree, published_degree * 4.0);
}

TEST(Datasets, SmallGraphProxyIsFullScale)
{
    const auto proxy = buildProxy(datasetByName("ddi"), 1u << 22, 1);
    EXPECT_DOUBLE_EQ(proxy.scaleFactor, 1.0);
}

TEST(GraphStats, UniformDegreesGiniNearZero)
{
    // A ring: every vertex has degree exactly 1 -> gini == 0.
    Coo coo(64);
    for (VertexId v = 0; v < 64; ++v)
        coo.addEdge(v, (v + 1) % 64);
    const auto stats = degreeStats(Csr(coo));
    EXPECT_DOUBLE_EQ(stats.mean, 1.0);
    EXPECT_NEAR(stats.gini, 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(stats.coefficientOfVariation, 0.0);
}

TEST(GraphStats, StarGraphIsMaximallySkewed)
{
    Coo coo(100);
    for (VertexId v = 1; v < 100; ++v)
        coo.addEdge(0, v);
    const auto stats = degreeStats(Csr(coo));
    EXPECT_GT(stats.gini, 0.95);
    EXPECT_DOUBLE_EQ(stats.maxDegree, 99.0);
    EXPECT_NEAR(stats.fracIsolated, 0.99, 0.001);
}

} // namespace

// ----------------------------------------------------- partitioning

#include "graph/partition.hpp"

namespace {

using namespace pgcn::graph;

TEST(Partition, HashCoversAllParts)
{
    const auto assignment = hashPartition(10000, 8);
    ASSERT_EQ(assignment.size(), 10000u);
    std::vector<int> counts(8, 0);
    for (unsigned p : assignment) {
        ASSERT_LT(p, 8u);
        ++counts[p];
    }
    for (int c : counts)
        EXPECT_GT(c, 10000 / 8 / 2); // roughly balanced
}

TEST(Partition, SinglePartHasNoCut)
{
    Coo coo = generateRmat(8, 2000, rmatSkewed(), 4);
    Csr csr(coo);
    const auto stats =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 1), 1);
    EXPECT_EQ(stats.cutEdges, 0u);
    EXPECT_DOUBLE_EQ(stats.cutFraction, 0.0);
    EXPECT_DOUBLE_EQ(stats.replicationFactor, 1.0);
}

TEST(Partition, RangePartitionIsMonotoneAndComplete)
{
    Coo coo = generateRmat(9, 4000, rmatSkewed(), 5);
    Csr csr(coo);
    const auto assignment = rangePartitionByEdges(csr, 4);
    ASSERT_EQ(assignment.size(), csr.numVertices());
    for (size_t v = 1; v < assignment.size(); ++v)
        EXPECT_GE(assignment[v], assignment[v - 1]);
    EXPECT_EQ(assignment.back(), 3u);
}

TEST(Partition, RangeBalancesEdgesBetterThanVertexSkew)
{
    // On a skewed graph, balancing by edges keeps the max part load
    // close to the average.
    Coo coo = generateRmat(10, 20000, rmatSkewed(), 6);
    Csr csr(coo);
    const auto stats = evaluatePartition(
        csr, rangePartitionByEdges(csr, 8), 8);
    EXPECT_LT(stats.maxLoadImbalance, 2.0);
    EXPECT_GE(stats.maxLoadImbalance, 1.0);
}

TEST(Partition, CutFractionGrowsWithParts)
{
    Coo coo = generateRmat(10, 20000, rmatSkewed(), 7);
    Csr csr = normalizedAdjacency(coo);
    const auto s2 =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 2), 2);
    const auto s16 =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 16), 16);
    EXPECT_GT(s16.cutFraction, s2.cutFraction);
    EXPECT_GT(s16.replicationFactor, s2.replicationFactor);
}

TEST(Partition, HashCutMatchesExpectationOnRandomGraph)
{
    // With random hashing into p parts, an edge is cut with
    // probability (p-1)/p.
    Coo coo = generateUniform(2000, 40000, 8);
    Csr csr(coo);
    const auto stats =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 4), 4);
    EXPECT_NEAR(stats.cutFraction, 0.75, 0.02);
}

TEST(Partition, GhostBytesArithmetic)
{
    PartitionStats stats;
    stats.replicationFactor = 1.5;
    // 1000 vertices, K=8: ghosts = 0.5 * 1000 rows of 32 B.
    EXPECT_DOUBLE_EQ(ghostExchangeBytes(stats, 1000, 8), 500.0 * 32.0);
}

} // namespace

// ------------------------------------------------------- persistence

#include <cstdio>
#include <fstream>

#include "graph/io.hpp"
#include "graph/normalize.hpp"
#include "test_paths.hpp"

namespace {

using namespace pgcn::graph;

class IoFixture : public ::testing::Test
{
  protected:
    std::string
    tempPath(const char *suffix)
    {
        // Unique per test and process: ctest -j shards must not race
        // on these files.
        return pgcn_test::testPath(suffix);
    }
};

TEST_F(IoFixture, EdgeListRoundTrip)
{
    Coo original = generateRmat(7, 800, rmatSkewed(), 12);
    const auto path = tempPath("edges.txt");
    saveEdgeListText(original, path);
    Coo loaded = loadEdgeListText(path);
    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    ASSERT_EQ(loaded.numEdges(), original.numEdges());
    EXPECT_TRUE(loaded.edges() == original.edges());
    std::remove(path.c_str());
}

TEST_F(IoFixture, EdgeListWithoutHeaderInfersVertices)
{
    const auto path = tempPath("noheader.txt");
    {
        std::ofstream out(path);
        out << "0 5\n3 2\n# a comment\n5 0 2.5\n";
    }
    Coo loaded = loadEdgeListText(path);
    EXPECT_EQ(loaded.numVertices(), 6u);
    EXPECT_EQ(loaded.numEdges(), 3u);
    EXPECT_FLOAT_EQ(loaded.edges()[2].weight, 2.5f);
    std::remove(path.c_str());
}

TEST_F(IoFixture, CsrBinaryRoundTrip)
{
    Csr original = normalizedAdjacency(generateRmat(8, 2000,
                                                    rmatSkewed(), 13));
    const auto path = tempPath("graph.csr");
    saveCsrBinary(original, path);
    Csr loaded = loadCsrBinary(path);
    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    ASSERT_EQ(loaded.numEdges(), original.numEdges());
    EXPECT_EQ(loaded.rowOffsets(), original.rowOffsets());
    EXPECT_EQ(loaded.cols(), original.cols());
    EXPECT_EQ(loaded.vals(), original.vals());
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsWrongMagicThrows)
{
    const auto path = tempPath("bogus.csr");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is definitely not a CSR container";
    }
    EXPECT_THROW(loadCsrBinary(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsMalformedEdgeThrows)
{
    const auto path = tempPath("bad.txt");
    {
        std::ofstream out(path);
        out << "0 1\nnot numbers\n";
    }
    EXPECT_THROW(loadEdgeListText(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsOutOfRangeEndpointThrows)
{
    const auto path = tempPath("range.txt");
    {
        std::ofstream out(path);
        out << "# vertices 4\n0 9\n";
    }
    EXPECT_THROW(loadEdgeListText(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

} // namespace
