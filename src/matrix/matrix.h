// Dense matrices over GF(2^8).
//
// Used to build and manipulate Reed-Solomon coding matrices: the systematic
// encoding matrix H = [I; G] (paper Eqn. 1), decoding matrices (inverses of
// k x k row selections), and the rank checks behind SRS recoverability.
#ifndef RING_SRC_MATRIX_MATRIX_H_
#define RING_SRC_MATRIX_MATRIX_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace ring::gf {

class Matrix {
 public:
  Matrix() = default;
  // Zero-filled rows x cols matrix.
  Matrix(size_t rows, size_t cols);
  // Row-major construction from a nested initializer list (for tests).
  Matrix(std::initializer_list<std::initializer_list<uint8_t>> rows);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  uint8_t At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  void Set(size_t r, size_t c, uint8_t v) { data_[r * cols_ + c] = v; }

  // Raw row access for region operations.
  const uint8_t* Row(size_t r) const { return data_.data() + r * cols_; }
  uint8_t* MutableRow(size_t r) { return data_.data() + r * cols_; }

  // ring-lint: ok(test-only-api) the oracle for Inverse's round trip
  Matrix Multiply(const Matrix& other) const;

  // Gauss-Jordan inverse. Fails with kFailedPrecondition when singular or
  // non-square.
  Result<Matrix> Inverse() const;

  // Rank via Gaussian elimination (does not modify *this).
  size_t Rank() const;

  // New matrix made of the given rows of *this, in the given order.
  Matrix SelectRows(const std::vector<size_t>& row_indices) const;

  // Vertical concatenation: [*this; below]. Column counts must match.
  Matrix VStack(const Matrix& below) const;

  bool operator==(const Matrix& other) const = default;

  std::string ToString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint8_t> data_;
};

}  // namespace ring::gf

#endif  // RING_SRC_MATRIX_MATRIX_H_
