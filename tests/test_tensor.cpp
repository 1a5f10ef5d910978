/**
 * @file
 * Unit tests for src/tensor: dense matrix container, GEMM kernels
 * (blocked vs reference, property sweeps over shapes), activations.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_mm.hpp"

namespace {

using namespace pgcn::tensor;

TEST(DenseMatrix, ZeroInitialised)
{
    DenseMatrix m(3, 4);
    for (uint64_t r = 0; r < 3; ++r)
        for (uint64_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(DenseMatrix, RowViewWritesThrough)
{
    DenseMatrix m(2, 3);
    auto row = m.row(1);
    row[2] = 7.0f;
    EXPECT_EQ(m.at(1, 2), 7.0f);
}

TEST(DenseMatrix, FillRandomDeterministic)
{
    DenseMatrix a(5, 5), b(5, 5);
    a.fillRandom(42);
    b.fillRandom(42);
    EXPECT_TRUE(allClose(a, b, 0.0f, 0.0f));
}

TEST(DenseMatrix, FillRandomRespectsScale)
{
    DenseMatrix m(100, 10);
    m.fillRandom(1, 0.5f);
    for (uint64_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(m.data()[i], 0.5f);
        EXPECT_GE(m.data()[i], -0.5f);
    }
}

TEST(DenseMatrix, BytesAccountsForFloats)
{
    DenseMatrix m(10, 20);
    EXPECT_EQ(m.bytes(), 10u * 20u * 4u);
}

TEST(AllClose, DetectsShapeMismatch)
{
    EXPECT_FALSE(allClose(DenseMatrix(2, 2), DenseMatrix(2, 3)));
}

TEST(AllClose, ToleratesSmallError)
{
    DenseMatrix a(1, 1), b(1, 1);
    a.at(0, 0) = 1.0f;
    b.at(0, 0) = 1.0f + 1e-6f;
    EXPECT_TRUE(allClose(a, b));
    b.at(0, 0) = 1.1f;
    EXPECT_FALSE(allClose(a, b));
}

TEST(DenseMm, IdentityIsNoOp)
{
    DenseMatrix a(4, 4);
    for (uint64_t i = 0; i < 4; ++i)
        a.at(i, i) = 1.0f;
    DenseMatrix x(4, 3);
    x.fillRandom(3);
    DenseMatrix out;
    denseMmReference(a, x, out);
    EXPECT_TRUE(allClose(out, x, 0.0f, 0.0f));
}

TEST(DenseMm, KnownSmallProduct)
{
    DenseMatrix a(2, 2, {1, 2, 3, 4});
    DenseMatrix b(2, 2, {5, 6, 7, 8});
    DenseMatrix out;
    denseMmReference(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 50.0f);
}

/** Same shape and the same bits, element for element. */
bool
bitIdentical(const DenseMatrix &x, const DenseMatrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           (x.size() == 0 ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
                0);
}

/** Packed GEMM, single-thread and pooled, across shapes that exercise
 * every tile-boundary case: m off the 6-row panel grid, fewer panels
 * than threads (idle threads), kk over two KC panels, and empty
 * dimensions. The fourth value is the block size of the scalar
 * blocked oracle (exact multiple, remainder, smaller-than-block). */
class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(BlockedGemmShapes, MatchesReference)
{
    const auto [m, k, n, block] = GetParam();
    DenseMatrix a(m, k), b(k, n);
    a.fillRandom(m * 131 + k);
    b.fillRandom(n * 17 + 5);
    DenseMatrix ref, scalar, out;
    denseMmReference(a, b, ref);
    denseMmBlockedScalar(a, b, scalar, block);
    denseMmBlocked(a, b, out);
    EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-4f))
        << "max diff " << maxAbsDiff(ref, out);
    EXPECT_TRUE(allClose(ref, scalar, 1e-4f, 1e-4f))
        << "scalar max diff " << maxAbsDiff(ref, scalar);

    // Row panels split over the pool: the same bits at every size.
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
        pgcn::parallel::ThreadPool pool(threads);
        DenseMatrix pooled;
        denseMmBlocked(a, b, pooled, pool);
        EXPECT_TRUE(bitIdentical(out, pooled)) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, BlockedGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, 64),
                      std::make_tuple(8, 8, 8, 4),
                      std::make_tuple(64, 64, 64, 64),
                      std::make_tuple(65, 63, 31, 16),
                      std::make_tuple(3, 100, 7, 32),
                      std::make_tuple(128, 16, 256, 64),
                      std::make_tuple(37, 41, 43, 8),
                      std::make_tuple(5, 9, 17, 4),    // m < MR
                      std::make_tuple(7, 16, 33, 8),   // 2 panels
                      std::make_tuple(13, 20, 40, 8),  // 3 panels
                      std::make_tuple(25, 32, 48, 16), // 6 * 4 + 1
                      std::make_tuple(50, 300, 70, 64), // kk > KC
                      std::make_tuple(0, 8, 8, 4),
                      std::make_tuple(8, 8, 0, 4),
                      std::make_tuple(8, 0, 8, 4)));

TEST(Relu, ClampsNegatives)
{
    DenseMatrix m(1, 4, {-1.0f, 0.0f, 2.0f, -0.5f});
    reluInPlace(m);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 3), 0.0f);
}

TEST(DenseMatrixStorage, DataIs64ByteAligned)
{
    for (uint64_t rows : {1u, 3u, 17u, 100u}) {
        DenseMatrix m(rows, 5);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u)
            << rows << " rows";
    }
}

TEST(DenseMatrixStorage, ResizeKeepsCapacityWhenShrinking)
{
    DenseMatrix m(100, 8);
    m.fillRandom(1);
    const float *before = m.data();
    m.resize(10, 8); // fits existing capacity: no reallocation
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.rows(), 10u);
    EXPECT_EQ(m.cols(), 8u);
    // Content is reset, not carried over.
    for (uint64_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], 0.0f);
    // Growing back within original capacity still reuses the buffer.
    m.resize(100, 8);
    EXPECT_EQ(m.data(), before);
    // Growing beyond it must reallocate.
    m.resize(200, 8);
    EXPECT_EQ(m.rows(), 200u);
    for (uint64_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(DenseMatrixStorage, ResizeForOverwriteSkipsZeroFill)
{
    DenseMatrix m(16, 8);
    m.fillRandom(2);
    const float *before = m.data();
    const float first = m.data()[0];
    m.resizeForOverwrite(16, 8); // same shape: no realloc, no memset
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.data()[0], first);
    m.resizeForOverwrite(4, 4); // shrink: buffer kept, shape updated
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 4u);
    m.resizeForOverwrite(64, 64); // grow past capacity: realloc
    EXPECT_EQ(m.size(), 4096u);
}

TEST(DenseMatrixStorage, CopyAndMovePreserveContent)
{
    DenseMatrix a(7, 9);
    a.fillRandom(5);
    DenseMatrix copy = a;
    EXPECT_TRUE(allClose(a, copy, 0.0f, 0.0f));
    EXPECT_NE(copy.data(), a.data());

    DenseMatrix assigned;
    assigned = a;
    EXPECT_TRUE(allClose(a, assigned, 0.0f, 0.0f));

    const float *buf = copy.data();
    DenseMatrix moved = std::move(copy);
    EXPECT_EQ(moved.data(), buf); // steal, not copy
    EXPECT_TRUE(allClose(a, moved, 0.0f, 0.0f));
    EXPECT_EQ(copy.size(), 0u); // NOLINT: moved-from is empty

    DenseMatrix move_assigned;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.data(), buf);
    EXPECT_TRUE(allClose(a, move_assigned, 0.0f, 0.0f));
}

TEST(DenseMatrixStorage, CopyAssignReusesCapacity)
{
    DenseMatrix big(64, 16);
    big.fillRandom(3);
    DenseMatrix small(4, 4);
    small.fillRandom(4);
    const float *buf = big.data();
    big = small; // 16 floats into capacity 1024: reuse
    EXPECT_EQ(big.data(), buf);
    EXPECT_TRUE(allClose(big, small, 0.0f, 0.0f));
}

} // namespace

// --------------------------------------------------- row-wise ops

#include "tensor/ops.hpp"

namespace {

using namespace pgcn::tensor;

TEST(Softmax, RowsSumToOne)
{
    DenseMatrix m(4, 5);
    m.fillRandom(9, 3.0f);
    softmaxRowsInPlace(m);
    for (uint64_t r = 0; r < m.rows(); ++r) {
        float sum = 0.0f;
        for (float x : m.row(r)) {
            EXPECT_GE(x, 0.0f);
            EXPECT_LE(x, 1.0f);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Softmax, StableUnderLargeValues)
{
    DenseMatrix m(1, 3, {1000.0f, 1001.0f, 999.0f});
    softmaxRowsInPlace(m);
    // No NaN/inf; ordering preserved.
    EXPECT_GT(m.at(0, 1), m.at(0, 0));
    EXPECT_GT(m.at(0, 0), m.at(0, 2));
    EXPECT_NEAR(m.at(0, 0) + m.at(0, 1) + m.at(0, 2), 1.0f, 1e-5f);
}

TEST(Argmax, PicksLargestPerRow)
{
    DenseMatrix m(3, 4, {0, 1, 2, 3, /**/ 9, 1, 2, 3, /**/ 0, 5, 5, 0});
    const auto idx = argmaxRows(m);
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 3u);
    EXPECT_EQ(idx[1], 0u);
    EXPECT_EQ(idx[2], 1u); // tie -> lower index
}

} // namespace
