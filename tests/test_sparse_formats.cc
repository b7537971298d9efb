// Unit + property tests for every sparse representation: dense round-trips,
// structural validation, accessors, and malformed-structure detection.
#include <gtest/gtest.h>

#include "sparse/bitvector.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/hier_bitmap.h"
#include "sparse/sparse_vector.h"
#include "workload/synthetic.h"

namespace hht::sparse {
namespace {

struct Shape {
  sim::Index rows;
  sim::Index cols;
  double sparsity;
};

class FormatRoundTrip : public ::testing::TestWithParam<Shape> {
 protected:
  DenseMatrix makeDense() const {
    const Shape& s = GetParam();
    sim::Rng rng(0x5111 + s.rows * 7 + s.cols +
                 static_cast<std::uint64_t>(s.sparsity * 100));
    return workload::randomDense(rng, s.rows, s.cols, s.sparsity);
  }
};

TEST_P(FormatRoundTrip, Csr) {
  const DenseMatrix dense = makeDense();
  const CsrMatrix m = CsrMatrix::fromDense(dense);
  EXPECT_TRUE(m.validate());
  EXPECT_EQ(m.nnz(), dense.countNonZeros());
  EXPECT_EQ(m.toDense(), dense);
}

TEST_P(FormatRoundTrip, Coo) {
  const DenseMatrix dense = makeDense();
  CooMatrix m = CooMatrix::fromDense(dense);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.isCanonical());
  EXPECT_EQ(m.toDense(), dense);
}

TEST_P(FormatRoundTrip, BitVector) {
  const DenseMatrix dense = makeDense();
  const BitVectorMatrix m = BitVectorMatrix::fromDense(dense);
  EXPECT_TRUE(m.validate());
  EXPECT_EQ(m.nnz(), dense.countNonZeros());
  EXPECT_EQ(m.toDense(), dense);
}

TEST_P(FormatRoundTrip, HierBitmap) {
  const DenseMatrix dense = makeDense();
  const HierBitmapMatrix m = HierBitmapMatrix::fromDense(dense);
  EXPECT_TRUE(m.validate());
  EXPECT_EQ(m.nnz(), dense.countNonZeros());
  EXPECT_EQ(m.toDense(), dense);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FormatRoundTrip,
    ::testing::Values(Shape{1, 1, 0.0}, Shape{1, 1, 1.0}, Shape{8, 8, 0.5},
                      Shape{16, 16, 0.0}, Shape{16, 16, 1.0},
                      Shape{17, 23, 0.7}, Shape{64, 64, 0.9},
                      Shape{5, 200, 0.8}, Shape{200, 5, 0.8},
                      Shape{33, 31, 0.95}, Shape{64, 64, 0.99}));

TEST(DenseMatrix, SparsityAccounting) {
  DenseMatrix m(2, 3);
  m.at(0, 0) = 1.0f;
  m.at(1, 2) = 2.0f;
  EXPECT_EQ(m.countNonZeros(), 2u);
  EXPECT_EQ(m.countZeros(), 4u);
  EXPECT_DOUBLE_EQ(m.sparsity(), 4.0 / 6.0);
  EXPECT_EQ(m.row(0).size(), 3u);
}

TEST(CsrMatrix, RowAccessors) {
  DenseMatrix dense(3, 4);
  dense.at(0, 1) = 10.0f;
  dense.at(0, 3) = 30.0f;
  dense.at(2, 0) = 5.0f;
  const CsrMatrix m = CsrMatrix::fromDense(dense);
  EXPECT_EQ(m.rowNnz(0), 2u);
  EXPECT_EQ(m.rowNnz(1), 0u);
  EXPECT_EQ(m.rowNnz(2), 1u);
  EXPECT_EQ(m.rowCols(0)[0], 1u);
  EXPECT_EQ(m.rowCols(0)[1], 3u);
  EXPECT_EQ(m.rowVals(0)[1], 30.0f);
  EXPECT_EQ(m.maxRowNnz(), 2u);
  EXPECT_DOUBLE_EQ(m.avgRowNnz(), 1.0);
  EXPECT_NEAR(m.sparsity(), 0.75, 1e-12);
}

TEST(CsrMatrix, ExtractTileMatchesDenseSlice) {
  sim::Rng rng(44);
  const DenseMatrix dense = workload::randomDense(rng, 40, 40, 0.6);
  const CsrMatrix m = CsrMatrix::fromDense(dense);
  const CsrMatrix tile = m.extractTile(8, 24, 16, 16);
  EXPECT_TRUE(tile.validate());
  const DenseMatrix got = tile.toDense();
  for (sim::Index r = 0; r < 16; ++r) {
    for (sim::Index c = 0; c < 16; ++c) {
      ASSERT_EQ(got.at(r, c), dense.at(8 + r, 24 + c));
    }
  }
}

TEST(CsrMatrix, ExtractTilePastEdgeIsZeroPadded) {
  sim::Rng rng(45);
  const DenseMatrix dense = workload::randomDense(rng, 20, 20, 0.3);
  const CsrMatrix m = CsrMatrix::fromDense(dense);
  const CsrMatrix tile = m.extractTile(16, 16, 16, 16);
  EXPECT_TRUE(tile.validate());
  const DenseMatrix got = tile.toDense();
  for (sim::Index r = 0; r < 16; ++r) {
    for (sim::Index c = 0; c < 16; ++c) {
      const Value want = (16 + r < 20 && 16 + c < 20) ? dense.at(16 + r, 16 + c)
                                                      : 0.0f;
      ASSERT_EQ(got.at(r, c), want);
    }
  }
}

TEST(CsrMatrix, ValidateRejectsTamperedStructures) {
  sim::Rng rng(46);
  const CsrMatrix good = workload::randomCsr(rng, 8, 8, 0.4);
  ASSERT_TRUE(good.validate());
  ASSERT_GE(good.nnz(), 4u);

  {  // non-monotone rowPtr
    auto row_ptr = good.rowPtr();
    row_ptr[1] = row_ptr[2] + 1;
    CsrMatrix bad(8, 8, row_ptr, good.cols(), good.vals());
    EXPECT_FALSE(bad.validate());
  }
  {  // out-of-range column
    auto cols = good.cols();
    cols[0] = 8;
    CsrMatrix bad(8, 8, good.rowPtr(), cols, good.vals());
    EXPECT_FALSE(bad.validate());
  }
  {  // duplicate column within a row (violates strict ascending)
    auto cols = good.cols();
    sim::Index row_with_2 = 0;
    for (sim::Index r = 0; r < 8; ++r) {
      if (good.rowNnz(r) >= 2) row_with_2 = r;
    }
    ASSERT_GE(good.rowNnz(row_with_2), 2u);
    const sim::Index k = good.rowPtr()[row_with_2];
    cols[k + 1] = cols[k];
    CsrMatrix bad(8, 8, good.rowPtr(), cols, good.vals());
    EXPECT_FALSE(bad.validate());
  }
  {  // rowPtr.back() disagrees with vals size
    auto row_ptr = good.rowPtr();
    row_ptr.back() += 1;
    CsrMatrix bad(8, 8, row_ptr, good.cols(), good.vals());
    EXPECT_FALSE(bad.validate());
  }
}

TEST(CsrMatrix, FromUnsortedCooWithDuplicates) {
  CooMatrix coo(3, 3);
  coo.add(2, 2, 1.0f);
  coo.add(0, 0, 2.0f);
  coo.add(2, 2, 3.0f);  // duplicate -> summed
  coo.add(1, 0, 4.0f);
  const CsrMatrix csr = CsrMatrix::fromCoo(coo);
  EXPECT_TRUE(csr.validate());
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.toDense().at(2, 2), 4.0f);
  EXPECT_EQ(csr.toDense().at(1, 0), 4.0f);
}

TEST(CsrMatrix, StorageBytesAgainstHierBitmap) {
  sim::Rng rng(0xF00);
  const CsrMatrix csr = workload::randomCsr(rng, 64, 64, 0.9);
  const std::size_t csr_bytes = csr.storageBytes();
  EXPECT_EQ(csr_bytes, (64 + 1) * 4 + csr.nnz() * 8);

  // At 90% sparsity the bitmap format should beat CSR on metadata bytes.
  const HierBitmapMatrix hb = HierBitmapMatrix::fromDense(csr.toDense());
  EXPECT_LT(hb.storageBytes(), csr_bytes);
}

TEST(CooMatrix, CanonicalizeSortsMergesAndDropsZeros) {
  CooMatrix coo(4, 4);
  coo.add(2, 1, 5.0f);
  coo.add(0, 3, 1.0f);
  coo.add(2, 1, -5.0f);  // cancels to zero -> dropped
  coo.add(0, 1, 2.0f);
  coo.add(0, 1, 3.0f);  // merged to 5
  EXPECT_FALSE(coo.isCanonical());
  coo.canonicalize();
  EXPECT_TRUE(coo.isCanonical());
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 5.0f}));
  EXPECT_EQ(coo.entries()[1], (Triplet{0, 3, 1.0f}));
}

TEST(CooMatrix, ValidateCatchesOutOfBounds) {
  CooMatrix coo(2, 2);
  coo.add(1, 1, 1.0f);
  EXPECT_TRUE(coo.validate());
  coo.add(2, 0, 1.0f);
  EXPECT_FALSE(coo.validate());
}

TEST(BitVectorMatrix, RankMatchesNaiveCount) {
  sim::Rng rng(47);
  const DenseMatrix dense = workload::randomDense(rng, 13, 37, 0.6);
  const BitVectorMatrix bv = BitVectorMatrix::fromDense(dense);
  std::size_t naive = 0;
  for (sim::Index r = 0; r < 13; ++r) {
    for (sim::Index c = 0; c < 37; ++c) {
      ASSERT_EQ(bv.rank(r, c), naive) << r << "," << c;
      naive += (dense.at(r, c) != 0.0f);
      ASSERT_EQ(bv.at(r, c), dense.at(r, c));
    }
  }
}

TEST(HierBitmapMatrix, EnumerateIsRowMajorAndComplete) {
  sim::Rng rng(48);
  const DenseMatrix dense = workload::randomDense(rng, 9, 31, 0.8);
  const HierBitmapMatrix hb = HierBitmapMatrix::fromDense(dense);
  const auto entries = hb.enumerate();
  EXPECT_EQ(entries.size(), dense.countNonZeros());
  std::size_t prev_pos = 0;
  bool first = true;
  for (const auto& [pos, val] : entries) {
    if (!first) {
      ASSERT_GT(pos, prev_pos);
    }
    first = false;
    prev_pos = pos;
    ASSERT_EQ(val, dense.at(static_cast<sim::Index>(pos / 31),
                            static_cast<sim::Index>(pos % 31)));
  }
}

TEST(HierBitmapMatrix, RandomAccessAt) {
  sim::Rng rng(49);
  const DenseMatrix dense = workload::randomDense(rng, 21, 17, 0.7);
  const HierBitmapMatrix hb = HierBitmapMatrix::fromDense(dense);
  for (sim::Index r = 0; r < 21; ++r) {
    for (sim::Index c = 0; c < 17; ++c) {
      ASSERT_EQ(hb.at(r, c), dense.at(r, c));
    }
  }
}

TEST(SparseVector, RoundTripAndLookup) {
  DenseVector dense(10);
  dense.at(2) = 2.5f;
  dense.at(7) = -1.0f;
  const SparseVector sv = SparseVector::fromDense(dense);
  EXPECT_TRUE(sv.validate());
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(sv.toDense(), dense);
  EXPECT_EQ(sv.at(2), 2.5f);
  EXPECT_EQ(sv.at(3), 0.0f);
  EXPECT_EQ(sv.at(7), -1.0f);
  EXPECT_DOUBLE_EQ(sv.sparsity(), 0.8);
}

TEST(SparseVector, ValidateRejectsBadStructures) {
  EXPECT_FALSE(SparseVector(4, {1, 1}, {1.0f, 2.0f}).validate());   // dup
  EXPECT_FALSE(SparseVector(4, {2, 1}, {1.0f, 2.0f}).validate());   // order
  EXPECT_FALSE(SparseVector(4, {5}, {1.0f}).validate());            // range
  EXPECT_FALSE(SparseVector(4, {1}, {0.0f}).validate());            // stored 0
  EXPECT_TRUE(SparseVector(4, {0, 3}, {1.0f, 2.0f}).validate());
}

}  // namespace
}  // namespace hht::sparse
