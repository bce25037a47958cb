#include "nn/tensor.hpp"

#include <cmath>
#include <cstring>

namespace cimnav::nn {
namespace {

// Four doubles as one vector (GCC/Clang vector extension; a target
// without 256-bit vectors runs each operation as two halves). Lane
// arithmetic rounds like scalar code: `acc += a * b` fuses into an FMA
// exactly where the enclosing function lets the compiler contract.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

/// acc + a * b, rounded as a plain scalar `acc += a * b` is: fused into
/// one FMA on targets with a hardware FMA (where GCC and Clang contract
/// it), two roundings elsewhere. Spelled out so that no vectorizer choice
/// can split a product from its add.
[[gnu::always_inline]] inline double madd(double acc, double a, double b) {
#if defined(FP_FAST_FMA)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

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
template <bool kRounded, int kI>
[[gnu::always_inline]] inline void column_tile(const ProductSums& p, int i0,
                                               int j) {
  double acc[kI] = {};
  const double* a = p.a + static_cast<std::size_t>(i0) * p.a_i;
  const double* b = p.b + static_cast<std::size_t>(j);
  for (int k = 0; k < p.k; ++k) {
    const double* ak = a + static_cast<std::size_t>(k) * p.a_k;
    const double bk = b[static_cast<std::size_t>(k) * p.b_k];
    for (int i = 0; i < kI; ++i) {
      const double x = ak[static_cast<std::size_t>(i) * p.a_i];
      if constexpr (kRounded)
        acc[i] += x * bk;
      else
        acc[i] = madd(acc[i], x, bk);
    }
  }
  for (int i = 0; i < kI; ++i)
    p.out[static_cast<std::size_t>(i0 + i) * p.out_i +
          static_cast<std::size_t>(j) * p.out_j] = acc[i];
}

template <bool kRounded>
[[gnu::always_inline]] inline void sum_tiles(const ProductSums& p) {
  int i = 0;
  for (; i + 4 <= p.i; i += 4) {
    int j = 0;
    for (; j + 8 <= p.j; j += 8) lanes_tile<4>(p, i, j);
    for (; j < p.j; ++j) column_tile<kRounded, 4>(p, i, j);
  }
  for (; i < p.i; ++i) {
    int j = 0;
    for (; j + 8 <= p.j; j += 8) lanes_tile<1>(p, i, j);
    for (; j < p.j; ++j) column_tile<kRounded, 1>(p, i, j);
  }
}

}  // namespace

void product_sums(const ProductSums& p) { sum_tiles<false>(p); }

// GCC and Clang fuse `acc += a * b` into an FMA wherever the target has
// one; this function switches that off (GCC per function, Clang per
// block) so every product is rounded on every host.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((noinline, optimize("fp-contract=off")))
#endif
void rounded_product_sums(const ProductSums& p) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  sum_tiles<true>(p);
}

Vector Matrix::matvec(const Vector& x) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(cols_),
                 "matvec size mismatch");
  Vector y(static_cast<std::size_t>(rows_));
  rounded_product_sums({.a = data_.data(),
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
