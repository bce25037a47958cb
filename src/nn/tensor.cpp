#include "nn/tensor.hpp"

#include <cstring>

namespace cimnav::nn {
namespace {

// Four doubles as one vector (GCC/Clang vector extension; a target
// without 256-bit vectors runs each operation as two halves). Lane
// arithmetic rounds like scalar code, and the build compiles with
// -ffp-contract=off (CMakeLists.txt): `acc += a * b` rounds the product
// before it adds it, on every host.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

/// kI rows of 8 sums each (two Lanes), held in registers over all of k.
template <int kI>
[[gnu::always_inline]] inline void lanes_tile(const ProductSums& p, int i0,
                                              int j0) {
  Lanes acc[kI][2] = {};
  const double* a = p.a + static_cast<std::size_t>(i0) * p.a_i;
  const double* b = p.b + static_cast<std::size_t>(j0);
  for (int k = 0; k < p.k; ++k) {
    const double* ak = a + static_cast<std::size_t>(k) * p.a_k;
    const double* bk = b + static_cast<std::size_t>(k) * p.b_k;
    Lanes b0, b1;
    std::memcpy(&b0, bk, sizeof b0);
    std::memcpy(&b1, bk + 4, sizeof b1);
    for (int i = 0; i < kI; ++i) {
      const double x = ak[static_cast<std::size_t>(i) * p.a_i];
      const Lanes av = {x, x, x, x};
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
  }
  for (int i = 0; i < kI; ++i) {
    double row[8];
    std::memcpy(row, &acc[i][0], sizeof acc[i][0]);
    std::memcpy(row + 4, &acc[i][1], sizeof acc[i][1]);
    for (int j = 0; j < 8; ++j)
      p.out[static_cast<std::size_t>(i0 + i) * p.out_i +
            static_cast<std::size_t>(j0 + j) * p.out_j] = row[j];
  }
}

/// kI sums of one column j (the j % 8 tail, or a single sample).
template <int kI>
[[gnu::always_inline]] inline void column_tile(const ProductSums& p, int i0,
                                               int j) {
  double acc[kI] = {};
  const double* a = p.a + static_cast<std::size_t>(i0) * p.a_i;
  const double* b = p.b + static_cast<std::size_t>(j);
  for (int k = 0; k < p.k; ++k) {
    const double* ak = a + static_cast<std::size_t>(k) * p.a_k;
    const double bk = b[static_cast<std::size_t>(k) * p.b_k];
    for (int i = 0; i < kI; ++i)
      acc[i] += ak[static_cast<std::size_t>(i) * p.a_i] * bk;
  }
  for (int i = 0; i < kI; ++i)
    p.out[static_cast<std::size_t>(i0 + i) * p.out_i +
          static_cast<std::size_t>(j) * p.out_j] = acc[i];
}

}  // namespace

void product_sums(const ProductSums& p) {
  int i = 0;
  for (; i + 4 <= p.i; i += 4) {
    int j = 0;
    for (; j + 8 <= p.j; j += 8) lanes_tile<4>(p, i, j);
    for (; j < p.j; ++j) column_tile<4>(p, i, j);
  }
  for (; i < p.i; ++i) {
    int j = 0;
    for (; j + 8 <= p.j; j += 8) lanes_tile<1>(p, i, j);
    for (; j < p.j; ++j) column_tile<1>(p, i, j);
  }
}

Vector Matrix::matvec(const Vector& x) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(cols_),
                 "matvec size mismatch");
  Vector y(static_cast<std::size_t>(rows_));
  product_sums({.a = data_.data(),
                .a_k = 1,
                .a_i = static_cast<std::size_t>(cols_),
                .b = x.data(),
                .b_k = 1,
                .out = y.data(),
                .out_i = 1,
                .k = cols_,
                .i = rows_,
                .j = 1});
  return y;
}

}  // namespace cimnav::nn
