#pragma once
// Gate-application kernels behind a runtime CPU-dispatch layer.
//
// Every statevector butterfly (1q/2q, diagonal and permutation fast
// paths, the adjoint bracket reductions, and the sample-batched
// register gates) funnels through the free functions below. Each call
// selects one of three arms, cached after first use:
//
//  * scalar    — portable reference loops, the exact arithmetic the
//                simulator has always used. Always compiled.
//  * AVX2      — non-FMA intrinsics. Complex multiply is lowered as
//                mul/addsub with the same operand order and the same
//                two roundings as std::complex, so the butterfly arms
//                are *bit-identical* to scalar, just 2 amplitudes per
//                instruction. This is the default on AVX2 hardware.
//  * AVX2+FMA  — fused multiply-add intrinsics. One rounding fewer per
//                complex multiply, so results differ from scalar by
//                ≤ 2 ULP per arithmetic step (tested in
//                test_kernels.cpp). Enabled only when strict
//                reproducibility is turned off.
//
// Within an arm an amplitude's arithmetic does not depend on where a
// walk puts it: range-edge groups and the odd column of a batched row
// take the vector lanes' operations (on the FMA arm, std::fma in the
// order of _mm256_fmaddsub_pd). So every arm, the FMA arm included, is
// bit-identical to itself across thread splits, batch widths and
// column positions.
//
// Walks are setup-free: each gate splats its coefficients once, and
// where a selector holds over runs of only 2-8 amplitudes (qubits 1-3)
// the diagonal, bracket and permutation walks unroll the run instead
// of setting it up one run at a time.
//
// Dispatch controls, mirroring the telemetry kill-switch:
//  * ARBITERQ_SIMD=OFF (env) or set_simd_runtime_enabled(false) forces
//    the scalar arm — field regressions stay bisectable.
//  * ARBITERQ_STRICT_REPRO=0 (env) or set_strict_reproducibility(false)
//    opts into the FMA arm and its lane-accumulated brackets. The
//    default is strict: every public result is bit-identical to the
//    scalar build.
//
// Reductions: the bracket kernels accumulate over amplitude indices.
// The strict arms (scalar and AVX2) add every product into a single
// [re, im] accumulator in amplitude-index order, so they agree bit for
// bit; only the FMA arm carries lane accumulators, which reassociate
// the sum, and a documented ULP bound instead.
//
// Shape dispatch: classify() sorts each gate matrix into diagonal, unit
// permutation or dense, and every apply and bracket site branches on
// its answer. A unit permutation (CX, SWAP) moves amplitudes and does
// no arithmetic. For finite amplitudes the dense kernel computes the
// same values — 1·x plus exact ±0 terms — and can differ only in the
// sign of an amplitude that is exactly zero, which compares equal and
// cannot change any nonzero product or sum.

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "arbiterq/circuit/unitary.hpp"

namespace arbiterq::sim::kernels {

using circuit::Complex;
using circuit::Mat2;
using circuit::Mat4;

// ---------------------------------------------------------------------------
// Dispatch control

/// True when the AVX2 arms were compiled into this binary.
bool simd_compiled() noexcept;
/// True when the running CPU reports AVX2 + FMA.
bool simd_supported() noexcept;

/// Runtime kill-switch. First call reads ARBITERQ_SIMD from the
/// environment ("0"/"off"/"false" disable); set_simd_runtime_enabled
/// overrides it for the process.
bool simd_runtime_enabled() noexcept;
void set_simd_runtime_enabled(bool enabled) noexcept;

/// Strict-reproducibility flag (default on). First call reads
/// ARBITERQ_STRICT_REPRO ("0"/"off"/"false" relax it). While strict,
/// every kernel result is bit-identical to the scalar arm.
bool strict_reproducibility() noexcept;
void set_strict_reproducibility(bool strict) noexcept;

enum class KernelArch { kScalar, kAvx2, kAvx2Fma };

/// The arm the next kernel call will take.
KernelArch active_arch() noexcept;
const char* arch_name(KernelArch arch) noexcept;

// ---------------------------------------------------------------------------
// Matrix shape

enum class Shape : std::uint8_t { kDense, kDiagonal, kPermutation };

/// Output row r of a butterfly group takes input row src[r].
using Perm4 = std::array<std::uint8_t, 4>;

template <std::size_t N>
struct MatShape {
  Shape shape = Shape::kDense;
  /// Source rows of a kPermutation; all zero for the other shapes.
  std::array<std::uint8_t, N> src{};
  bool operator==(const MatShape&) const = default;
};

/// The one shape test of the kernel layer. Diagonal: every off-diagonal
/// entry is exactly zero (this wins for the identity). Unit permutation:
/// every row holds exactly one nonzero entry, that entry is exactly
/// (1, 0), and no two rows pick the same column. The 1q sites use only
/// the diagonal answer, so X, the one 1q permutation, runs dense.
/// It runs once per gate application, so it stops as soon as the
/// answer is settled: the first nonzero off-diagonal entry rules out
/// the diagonal and, unless it is (1, 0), the permutation; rows above
/// it are already known to be zero off the diagonal.
template <std::size_t K>
MatShape<K == 4 ? 2 : 4> classify(const std::array<Complex, K>& m) noexcept {
  static_assert(K == 4 || K == 16, "classify takes a Mat2 or a Mat4");
  constexpr std::size_t n = K == 4 ? 2 : 4;
  const auto zero = [](const Complex& v) {
    return v.real() == 0.0 && v.imag() == 0.0;
  };
  const auto unit = [](const Complex& v) {
    return v.real() == 1.0 && v.imag() == 0.0;
  };
  if constexpr (n == 2) {
    if (zero(m[1]) && zero(m[2])) return {Shape::kDiagonal, {}};
    if (unit(m[1]) && unit(m[2]) && zero(m[0]) && zero(m[3])) {
      return {Shape::kPermutation, {1, 0}};
    }
    return {};
  }
  std::size_t first = K;  // flat index of the first nonzero off-diagonal
  for (std::size_t r = 0; r < n && first == K; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c != r && !zero(m[r * n + c])) {
        first = r * n + c;
        break;
      }
    }
  }
  if (first == K) return {Shape::kDiagonal, {}};
  if (!unit(m[first])) return {};
  MatShape<n> out;
  unsigned columns = 0;  // columns picked so far
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t picked = r;
    if (r >= first / n) {
      picked = n;
      for (std::size_t c = 0; c < n; ++c) {
        const Complex& v = m[r * n + c];
        if (zero(v)) continue;
        if (picked != n || !unit(v)) return {};
        picked = c;
      }
    } else if (!unit(m[r * n + r])) {
      return {};
    }
    if (picked == n || (columns >> picked & 1U) != 0) return {};
    columns |= 1U << picked;
    out.src[r] = static_cast<std::uint8_t>(picked);
  }
  out.shape = Shape::kPermutation;
  return out;
}

// ---------------------------------------------------------------------------
// Unbatched statevector kernels
//
// The range kernels cover butterfly groups (or raw amplitude indices
// for the diagonal forms) [lo, hi), matching the chunking of
// exec::parallel_for: every chunk writes a disjoint index slice and
// per-amplitude arithmetic is chunk-independent, so the thread-count
// determinism contract is untouched.

/// General 1q butterfly over groups [lo, hi); group p targets
/// amplitude pair (insert_zero_bit(p, q), | 1<<q).
void apply_mat2_range(Complex* amps, const Mat2& m, int q, std::size_t lo,
                      std::size_t hi);
/// General 2q butterfly over groups [lo, hi).
void apply_mat4_range(Complex* amps, const Mat4& m, int qb, int qa,
                      std::size_t lo, std::size_t hi);
/// Diagonal fast path over amplitude indices [lo, hi): amplitude i is
/// scaled by d[sel], sel = (i & bit_b ? 2 : 0) | (i & bit_a ? 1 : 0). A
/// 1q diagonal passes bit_b = 0, d = {d0, d1}.
void apply_diag_range(Complex* amps, const Complex* d, std::size_t bit_b,
                      std::size_t bit_a, std::size_t lo, std::size_t hi);

/// Unit-permutation 2q gate over groups [lo, hi): moves amplitudes,
/// no arithmetic, so one arch-independent function serves every arm.
/// Runs of 1-4 groups (q_lo <= 2) swap in a fixed-length loop.
void apply_perm4_range(Complex* amps, const Perm4& src, int qb, int qa,
                       std::size_t lo, std::size_t hi);

/// <lambda| M |psi> accumulated in amplitude-index order, including the
/// diagonal dispatch of apply_mat2 (see adjoint.cpp for the contract).
/// A permutation M takes the dense reduction: the values agree.
Complex bracket_1q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat2& m, int q);
Complex bracket_2q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat4& m, int qb, int qa);

/// One reverse-sweep step of the adjoint for a diagonal 1q gate with one
/// diagonal derivative (RZ): psi <- md psi, then <lambda| dm |psi>, then
/// lambda <- md lambda, in one walk over both registers. Bit-identical on
/// every arm to apply_diag_range on psi, bracket_1q and apply_diag_range
/// on lambda in that order; fused, the two applies run in the slack of
/// the bracket's serial index-order sum.
Complex adjoint_step_diag_1q(Complex* lam, Complex* psi, std::size_t n,
                             const Mat2& md, const Mat2& dm, int q);

// ---------------------------------------------------------------------------
// Sample-batched register gates
//
// A batched register stores one row of amplitudes per basis index,
// one column per sample (structure of arrays): row i starts at
// amps + i * stride. One call applies one gate to columns [0, count)
// of every row (count may be below stride — an active-width walk).
// The arm is resolved once per gate and the row loop runs inside the
// arm, so at QNN register sizes (a handful of rows per gate) dispatch
// is not paid per row, and neither are coefficient broadcasts: a shared
// matrix is splatted once per gate, per-column matrices once per block
// of columns, and an odd last column runs in a 128-bit lane. A
// full-width walk (count == stride) with a power-of-two stride has no
// rows at all: it is the unbatched kernel on a register of
// log2(stride) more qubits. Per-column arithmetic is identical to the
// unbatched kernels, so under strict reproducibility a batched walk is
// bit-identical to evaluating samples one at a time.

/// General 1q butterfly on qubit q, one matrix for every column.
void batched_apply_mat2(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat2& m, int q);
/// mats[b] applies to column b.
void batched_apply_mat2_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2* mats, int q);
/// General 2q butterfly on (qb, qa), one matrix for every column.
void batched_apply_mat4(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat4& m, int qb, int qa);
void batched_apply_mat4_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4* mats, int qb, int qa);
/// Unit-permutation 2q gate: swaps `count`-wide row ranges.
void batched_apply_perm4(Complex* amps, std::size_t dim, std::size_t stride,
                         std::size_t count, const Perm4& src, int qb, int qa);
/// Diagonal gate: row i is scaled by d[sel], sel = (i & bit_b ? 2 : 0)
/// | (i & bit_a ? 1 : 0). A 1q diagonal passes bit_b = 0, d = {d0, d1}.
void batched_apply_diag(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Complex* d,
                        std::size_t bit_b, std::size_t bit_a);
/// Per-column diagonal: ds[sel][b] scales column b of row i.
void batched_apply_diag_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* const* ds, std::size_t bit_b,
                             std::size_t bit_a);

}  // namespace arbiterq::sim::kernels
