// Minimal dense linear algebra for the neural-network stack. A Vector is a
// plain std::vector<double>; Matrix is a row-major dense matrix with just
// the operations training needs. No expression templates — the networks
// here are small (tens of thousands of parameters) and clarity wins.
#pragma once

#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace cimnav::nn {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              fill) {
    CIMNAV_REQUIRE(rows > 0 && cols > 0, "matrix dims must be positive");
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// y = A x  (rows x cols) * (cols) -> (rows). Each row is one serial
  /// column-order sum; four rows run interleaved, which overlaps their
  /// independent add chains without changing any row's result.
  Vector matvec(const Vector& x) const {
    CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(cols_),
                   "matvec size mismatch");
    const auto rows = static_cast<std::size_t>(rows_);
    const auto cols = static_cast<std::size_t>(cols_);
    Vector y(rows, 0.0);
    const double* xv = x.data();
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const double* a0 = data_.data() + r * cols;
      const double* a1 = a0 + cols;
      const double* a2 = a1 + cols;
      const double* a3 = a2 + cols;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        s0 += a0[c] * xv[c];
        s1 += a1[c] * xv[c];
        s2 += a2[c] * xv[c];
        s3 += a3[c] * xv[c];
      }
      y[r] = s0;
      y[r + 1] = s1;
      y[r + 2] = s2;
      y[r + 3] = s3;
    }
    for (; r < rows; ++r) {
      const double* a = data_.data() + r * cols;
      double s = 0.0;
      for (std::size_t c = 0; c < cols; ++c) s += a[c] * xv[c];
      y[r] = s;
    }
    return y;
  }

  /// y = A^T x  (rows x cols)^T * (rows) -> (cols).
  Vector matvec_transposed(const Vector& x) const {
    CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(rows_),
                   "matvec_transposed size mismatch");
    Vector y(static_cast<std::size_t>(cols_), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const double xr = x[static_cast<std::size_t>(r)];
      const std::size_t base =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
      for (int c = 0; c < cols_; ++c)
        y[static_cast<std::size_t>(c)] +=
            data_[base + static_cast<std::size_t>(c)] * xr;
    }
    return y;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// 0/1 dropout mask over a layer's neurons.
using Mask = std::vector<std::uint8_t>;

}  // namespace cimnav::nn
