#pragma once
// Private bridge between the kernel dispatcher (kernels.cpp) and the
// AVX2 translation unit (kernels_avx2.cpp, compiled with -mavx2 -mfma
// -ffp-contract=off and only when the toolchain targets x86). The
// templates are explicitly instantiated there for Fma = false (the
// strict, bit-identical arm) and Fma = true (the fast arm).

#include <cstddef>
#include <cstdint>

#include "arbiterq/sim/kernels.hpp"

namespace arbiterq::sim::kernels::detail {

/// Spread `p` over the basis indices whose bit `q` is clear (the same
/// butterfly-group enumeration statevector.cpp has always used).
inline std::size_t insert_zero_bit(std::size_t p, int q) noexcept {
  const std::size_t low = (std::size_t{1} << q) - 1;
  return ((p & ~low) << 1) | (p & low);
}

// Row walks of the register-level batched gates, shared by every arm:
// each arm passes its own row kernel, which inlines into the loop, so
// one dispatch covers the whole gate. Row i of the register starts at
// amps + i * stride.

/// row2(r0, r1) for every 1q butterfly pair on qubit q.
template <class Row2>
inline void for_each_row_pair(Complex* amps, std::size_t dim,
                              std::size_t stride, int q, Row2&& row2) {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t p = 0; p < dim >> 1; ++p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    row2(amps + i0 * stride, amps + (i0 | bit) * stride);
  }
}

/// row4(r00, r01, r10, r11) for every 2q butterfly group on (qb, qa);
/// r01 has bit qa set, r10 bit qb.
template <class Row4>
inline void for_each_row_quad(Complex* amps, std::size_t dim,
                              std::size_t stride, int qb, int qa,
                              Row4&& row4) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  for (std::size_t g = 0; g < dim >> 2; ++g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    row4(amps + i00 * stride, amps + (i00 | bit_a) * stride,
         amps + (i00 | bit_b) * stride, amps + (i00 | bit_b | bit_a) * stride);
  }
}

/// scale(row, sel) for every row, sel = (bit_b set ? 2 : 0) | (bit_a
/// set ? 1 : 0) — the diagonal-entry selector of a 1q (bit_b = 0) or
/// 2q diagonal gate.
template <class Scale>
inline void for_each_row_sel(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t bit_b,
                             std::size_t bit_a, Scale&& scale) {
  for (std::size_t i = 0; i < dim; ++i) {
    const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
    scale(amps + i * stride, sel);
  }
}

#if defined(ARBITERQ_SIMD_AVX2)

template <bool Fma>
void mat2_range_avx2(Complex* amps, const Mat2& m, int q, std::size_t lo,
                     std::size_t hi);
template <bool Fma>
void mat4_range_avx2(Complex* amps, const Mat4& m, int qb, int qa,
                     std::size_t lo, std::size_t hi);
template <bool Fma>
void diag_range_avx2(Complex* amps, const Complex* d, std::size_t bit_b,
                     std::size_t bit_a, std::size_t lo, std::size_t hi);

template <bool Fma>
Complex bracket_1q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat2& m, int q);
template <bool Fma>
Complex bracket_2q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat4& m, int qb, int qa);

template <bool Fma>
void batched_apply_mat2_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2& m, int q);
template <bool Fma>
void batched_apply_mat2_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat2* mats, int q);
template <bool Fma>
void batched_apply_mat4_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4& m, int qb, int qa);
template <bool Fma>
void batched_apply_mat4_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat4* mats, int qb, int qa);
template <bool Fma>
void batched_apply_diag_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* d, std::size_t bit_b,
                             std::size_t bit_a);
template <bool Fma>
void batched_apply_diag_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Complex* const* ds, std::size_t bit_b,
                                  std::size_t bit_a);

template <bool Fma>
void batched_bracket_1q_avx2(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat2* mats,
                             std::size_t step, bool diagonal, int q,
                             Complex* out);
template <bool Fma>
void batched_bracket_2q_avx2(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat4* mats,
                             std::size_t step, bool diagonal, int qb, int qa,
                             Complex* out);
template <bool Fma>
void batched_adjoint_step_diag_1q_avx2(Complex* lam, Complex* psi,
                                       std::size_t dim, std::size_t stride,
                                       std::size_t count, const Mat2* md,
                                       const Mat2* dm, std::size_t step, int q,
                                       Complex* out);

/// The fold step of both AVX2 tables: it never fuses, so one function
/// serves the strict and the FMA arm.
void fold_mat2_avx2(Mat2* acc, const Mat2* fac, std::size_t step,
                    const std::uint32_t* cols, std::size_t n);

#endif  // ARBITERQ_SIMD_AVX2

}  // namespace arbiterq::sim::kernels::detail
