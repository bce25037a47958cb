// Minimal dense linear algebra for the neural-network stack. A Vector is a
// plain std::vector<double>; Matrix is a row-major dense matrix, and one
// product-sum kernel (tensor.cpp) runs every product of training. No
// expression templates — the networks here are small (tens of thousands
// of parameters) and clarity wins.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// column-order sum from 0.0 of rounded products (`product_sums`), so
  /// the result is the same on FMA and non-FMA hosts.
  Vector matvec(const Vector& x) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// 0/1 dropout mask over a layer's neurons.
using Mask = std::vector<std::uint8_t>;

/// Strided operands of the product sums
///   out(i, j) = sum over k of a(k, i) * b(k, j),
/// with a(k, i) = a[k * a_k + i * a_i], b(k, j) = b[k * b_k + j] (j runs
/// along memory) and out(i, j) = out[i * out_i + j * out_j]. One shape
/// covers every product of the network: the forward layer (k = input
/// unit, i = output unit, j = sample), the weight gradient (k = sample,
/// i = output unit, j = input unit) and the back-propagated delta
/// (k = output unit, i = sample, j = input unit).
struct ProductSums {
  const double* a = nullptr;
  std::size_t a_k = 0, a_i = 0;
  const double* b = nullptr;
  std::size_t b_k = 0;
  double* out = nullptr;
  std::size_t out_i = 0, out_j = 0;
  int k = 0, i = 0, j = 0;  ///< extents
};

/// Every out(i, j) is one serial sum from 0.0 over ascending k, whatever
/// the tiling: tiles of 4 i x 8 j keep their sums in registers, so the
/// bits equal a plain per-element loop. Every product is rounded before
/// it is added, on every host: nothing in the build fuses `a * b + c`
/// (-ffp-contract=off, CMakeLists.txt).
void product_sums(const ProductSums& p);

}  // namespace cimnav::nn
