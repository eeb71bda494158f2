#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/gf/gf256.h"
#include "src/matrix/matrix.h"

namespace ring::gf {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, ring::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m.Set(i, j, static_cast<uint8_t>(rng.NextU64()));
    }
  }
  return m;
}

TEST(MatrixTest, IdentityMultiplication) {
  ring::Rng rng(1);
  Matrix a = RandomMatrix(4, 4, rng);
  Matrix i = Matrix::Identity(4);
  EXPECT_EQ(a.Multiply(i), a);
  EXPECT_EQ(i.Multiply(a), a);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  // GF(2^8): c[0][0] = 1*5 ^ 2*7 = 5 ^ 14 = 11
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c.At(0, 0), Add(Mul(1, 5), Mul(2, 7)));
  EXPECT_EQ(c.At(0, 1), Add(Mul(1, 6), Mul(2, 8)));
  EXPECT_EQ(c.At(1, 0), Add(Mul(3, 5), Mul(4, 7)));
  EXPECT_EQ(c.At(1, 1), Add(Mul(3, 6), Mul(4, 8)));
}

TEST(MatrixTest, MultiplyAssociativeSampled) {
  ring::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a = RandomMatrix(3, 4, rng);
    Matrix b = RandomMatrix(4, 5, rng);
    Matrix c = RandomMatrix(5, 2, rng);
    EXPECT_EQ(a.Multiply(b).Multiply(c), a.Multiply(b.Multiply(c)));
  }
}

TEST(MatrixTest, InverseRoundTrip) {
  ring::Rng rng(3);
  int invertible = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Matrix a = RandomMatrix(5, 5, rng);
    auto inv = a.Inverse();
    if (!inv.ok()) {
      continue;  // random matrices can be singular
    }
    ++invertible;
    EXPECT_EQ(a.Multiply(*inv), Matrix::Identity(5));
    EXPECT_EQ(inv->Multiply(a), Matrix::Identity(5));
  }
  // Over GF(256), random 5x5 matrices are invertible w.p. ~0.996.
  EXPECT_GT(invertible, 40);
}

TEST(MatrixTest, SingularMatrixFailsToInvert) {
  Matrix a{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}};  // row1 = 2*row0 in GF? 2*2=4, 2*3=6 yes
  auto inv = a.Inverse();
  EXPECT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MatrixTest, NonSquareInverseRejected) {
  Matrix a(2, 3);
  EXPECT_FALSE(a.Inverse().ok());
}

TEST(MatrixTest, ZeroMatrixNotInvertible) {
  Matrix z(3, 3);
  EXPECT_FALSE(z.Inverse().ok());
}

TEST(MatrixTest, RankFullAndDeficient) {
  EXPECT_EQ(Matrix::Identity(6).Rank(), 6u);
  Matrix z(4, 4);
  EXPECT_EQ(z.Rank(), 0u);
  Matrix a{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}};
  EXPECT_EQ(a.Rank(), 2u);
  Matrix wide{{1, 0, 0, 1}, {0, 1, 0, 1}};
  EXPECT_EQ(wide.Rank(), 2u);
}

TEST(MatrixTest, RankOfProductBounded) {
  ring::Rng rng(4);
  Matrix a = RandomMatrix(4, 2, rng);
  Matrix b = RandomMatrix(2, 4, rng);
  EXPECT_LE(a.Multiply(b).Rank(), 2u);
}

TEST(MatrixTest, SelectRowsAndVStack) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix sel = a.SelectRows({2, 0});
  EXPECT_EQ(sel, (Matrix{{5, 6}, {1, 2}}));
  Matrix b{{7, 8}};
  Matrix st = a.VStack(b);
  EXPECT_EQ(st.rows(), 4u);
  EXPECT_EQ(st.At(3, 0), 7);
  EXPECT_EQ(st.At(3, 1), 8);
}

TEST(MatrixTest, ToStringRenders) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a.ToString(), "1 2\n3 4\n");
}

}  // namespace
}  // namespace ring::gf
