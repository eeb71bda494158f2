#include "src/matrix/matrix.h"

#include <cassert>
#include <sstream>

#include "src/gf/gf256.h"

namespace ring::gf {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<uint8_t>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    m.Set(i, i, 1);
  }
  return m;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const uint8_t a = At(i, k);
      if (a == 0) {
        continue;
      }
      for (size_t j = 0; j < other.cols_; ++j) {
        out.Set(i, j, Add(out.At(i, j), Mul(a, other.At(k, j))));
      }
    }
  }
  return out;
}

Result<Matrix> Matrix::Inverse() const {
  if (rows_ != cols_) {
    return FailedPreconditionError("inverse of non-square matrix");
  }
  const size_t n = rows_;
  Matrix a = *this;
  Matrix inv = Identity(n);
  for (size_t col = 0; col < n; ++col) {
    // Find a pivot.
    size_t pivot = col;
    while (pivot < n && a.At(pivot, col) == 0) {
      ++pivot;
    }
    if (pivot == n) {
      return FailedPreconditionError("singular matrix");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) {
        std::swap(a.MutableRow(pivot)[j], a.MutableRow(col)[j]);
        std::swap(inv.MutableRow(pivot)[j], inv.MutableRow(col)[j]);
      }
    }
    // Scale pivot row to 1.
    const uint8_t piv_inv = Inv(a.At(col, col));
    for (size_t j = 0; j < n; ++j) {
      a.Set(col, j, Mul(a.At(col, j), piv_inv));
      inv.Set(col, j, Mul(inv.At(col, j), piv_inv));
    }
    // Eliminate the column everywhere else.
    for (size_t r = 0; r < n; ++r) {
      if (r == col) {
        continue;
      }
      const uint8_t f = a.At(r, col);
      if (f == 0) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        a.Set(r, j, Add(a.At(r, j), Mul(f, a.At(col, j))));
        inv.Set(r, j, Add(inv.At(r, j), Mul(f, inv.At(col, j))));
      }
    }
  }
  return inv;
}

size_t Matrix::Rank() const {
  Matrix a = *this;
  size_t rank = 0;
  size_t row = 0;
  for (size_t col = 0; col < cols_ && row < rows_; ++col) {
    size_t pivot = row;
    while (pivot < rows_ && a.At(pivot, col) == 0) {
      ++pivot;
    }
    if (pivot == rows_) {
      continue;
    }
    if (pivot != row) {
      for (size_t j = 0; j < cols_; ++j) {
        std::swap(a.MutableRow(pivot)[j], a.MutableRow(row)[j]);
      }
    }
    const uint8_t piv_inv = Inv(a.At(row, col));
    for (size_t r = row + 1; r < rows_; ++r) {
      const uint8_t f = Mul(a.At(r, col), piv_inv);
      if (f == 0) {
        continue;
      }
      for (size_t j = col; j < cols_; ++j) {
        a.Set(r, j, Add(a.At(r, j), Mul(f, a.At(row, j))));
      }
    }
    ++row;
    ++rank;
  }
  return rank;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& row_indices) const {
  Matrix out(row_indices.size(), cols_);
  for (size_t i = 0; i < row_indices.size(); ++i) {
    assert(row_indices[i] < rows_);
    for (size_t j = 0; j < cols_; ++j) {
      out.Set(i, j, At(row_indices[i], j));
    }
  }
  return out;
}

Matrix Matrix::VStack(const Matrix& below) const {
  assert(cols_ == below.cols_);
  Matrix out(rows_ + below.rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out.Set(i, j, At(i, j));
    }
  }
  for (size_t i = 0; i < below.rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out.Set(rows_ + i, j, below.At(i, j));
    }
  }
  return out;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      os << static_cast<int>(At(i, j)) << (j + 1 == cols_ ? "" : " ");
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ring::gf
