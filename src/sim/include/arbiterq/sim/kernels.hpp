#pragma once
// Gate-application kernels behind a runtime CPU-dispatch layer.
//
// Every statevector butterfly (1q/2q, diagonal and permutation fast
// paths, the adjoint bracket reductions, and the sample-batched
// register gates) and the plan bind's fold step funnel through a
// KernelTable (below), one per arm; kernel_table() returns the table of
// the arm the dispatch flags select:
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
//                reproducibility is turned off. Its fold step is the
//                strict arm's: no arm fuses there, so bound matrices are
//                the same on all three arms.
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
// its answer. Walks over a plan (the batched forward, the trajectory
// sampler, both sweeps of the batched adjoint) classify once per plan or
// bind, not once per application: ExecPlan stores each static matrix's
// shape when it is built and its binds store each bound matrix's when
// they rebuild it, and those walks pass the stored shape to the kernel.
// Only the reference engines (Statevector's applies and the unbatched
// brackets of the circuit adjoint) classify per call. A unit permutation
// (CX, SWAP) moves amplitudes and does no arithmetic. For finite
// amplitudes the dense kernel computes the same values — 1·x plus exact
// ±0 terms — and can differ only in the sign of an amplitude that is
// exactly zero, which compares equal and cannot change any nonzero
// product or sum.

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

/// The arm the dispatch flags select now (kernel_table() returns its
/// table).
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
/// Ad hoc apply sites run it once per gate application, so it stops as
/// soon as the answer is settled: the first nonzero off-diagonal entry
/// rules out the diagonal and, unless it is (1, 0), the permutation;
/// rows above it are already known to be zero off the diagonal.
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
// Arch-independent kernels

/// Unit-permutation 2q gate over groups [lo, hi) (group enumeration as
/// KernelTable::apply_mat4_range): moves amplitudes, no arithmetic, so
/// one function serves every arm. Runs of 1-4 groups (q_lo <= 2) swap
/// in a fixed-length loop.
void apply_perm4_range(Complex* amps, const Perm4& src, int qb, int qa,
                       std::size_t lo, std::size_t hi);
/// The same gate on a sample-batched register (layout as the batched
/// KernelTable entries): swaps `count`-wide row ranges.
void batched_apply_perm4(Complex* amps, std::size_t dim, std::size_t stride,
                         std::size_t count, const Perm4& src, int qb, int qa);

// ---------------------------------------------------------------------------
// Kernel table: every arm-dependent kernel of one arm
//
// kernel_table() reads the dispatch flags once and returns the table of
// the arm in force. A walk over a plan (the batched forward, the batched
// adjoint, the trajectory sampler) resolves it once per call and calls
// the entries directly; the reference engines (Statevector, the circuit
// adjoint) resolve it once per gate application. Either way a flag
// change takes effect at the next call.
//
// Unbatched entries cover butterfly groups (or raw amplitude indices for
// the diagonal forms) [lo, hi), matching the chunking of
// exec::parallel_for: every chunk writes a disjoint index slice and
// per-amplitude arithmetic is chunk-independent, so the thread-count
// determinism contract is untouched.
//
// Batched entries act on a register that stores one row of amplitudes
// per basis index, one column per sample (structure of arrays): row i
// starts at amps + i * stride, and one call applies one gate to columns
// [0, count) of every row (count may be below stride — a run of
// columns). The row loop runs inside the arm, so at QNN register sizes
// (a handful of rows per gate) nothing is paid per row, and neither are
// coefficient broadcasts: a shared matrix is splatted once per gate,
// per-column matrices once per block of columns, and an odd last column
// runs in a 128-bit lane. A full-width walk (count == stride) with a
// power-of-two stride has no rows at all: the shared-matrix entries run
// it as the arm's unbatched kernel on a register of log2(stride) more
// qubits. Per-column arithmetic is identical to the unbatched entries,
// so on every arm a batched walk is bit-identical to evaluating samples
// one at a time.
//
// The batched adjoint steps walk psi and lambda as two batched registers
// of the same shape. Column b's matrix is mats[b * step] (step 0: one
// matrix for every column), and every column of one call shares
// `diagonal`, classify()'s diagonal answer for its matrix. out[b] is,
// bit for bit on every arm, what the unbatched brackets return for
// column b alone: the strict arms sum each column in amplitude-index
// order, and the FMA arm sums each column's even and odd amplitude
// indices apart and adds the two last, as its lane accumulators do. Rows
// run in index order, columns inside, so the serial sums of a block's
// columns proceed side by side.
struct KernelTable {
  /// General 1q butterfly over groups [lo, hi); group p targets
  /// amplitude pair (insert_zero_bit(p, q), | 1<<q).
  void (*apply_mat2_range)(Complex* amps, const Mat2& m, int q,
                           std::size_t lo, std::size_t hi);
  /// General 2q butterfly over groups [lo, hi).
  void (*apply_mat4_range)(Complex* amps, const Mat4& m, int qb, int qa,
                           std::size_t lo, std::size_t hi);
  /// Diagonal fast path over amplitude indices [lo, hi): amplitude i is
  /// scaled by d[sel], sel = (i & bit_b ? 2 : 0) | (i & bit_a ? 1 : 0).
  /// A 1q diagonal passes bit_b = 0, d = {d0, d1}.
  void (*apply_diag_range)(Complex* amps, const Complex* d, std::size_t bit_b,
                           std::size_t bit_a, std::size_t lo, std::size_t hi);
  /// <lambda| M |psi> accumulated in amplitude-index order, including
  /// the diagonal dispatch of Statevector::apply_mat2 (see adjoint.cpp
  /// for the contract). A permutation M takes the dense reduction: the
  /// values agree.
  Complex (*bracket_1q)(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat2& m, int q);
  Complex (*bracket_2q)(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat4& m, int qb, int qa);

  /// General 1q butterfly on qubit q, one matrix for every column.
  void (*batched_apply_mat2)(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2& m, int q);
  /// mats[b] applies to column b.
  void (*batched_apply_mat2_each)(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat2* mats, int q);
  /// General 2q butterfly on (qb, qa), one matrix for every column.
  void (*batched_apply_mat4)(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4& m, int qb, int qa);
  void (*batched_apply_mat4_each)(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat4* mats, int qb, int qa);
  /// Diagonal gate: row i is scaled by d[sel], sel = (i & bit_b ? 2 : 0)
  /// | (i & bit_a ? 1 : 0). A 1q diagonal passes bit_b = 0, d = {d0, d1}.
  void (*batched_apply_diag)(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* d, std::size_t bit_b,
                             std::size_t bit_a);
  /// Per-column diagonal: ds[sel][b] scales column b of row i.
  void (*batched_apply_diag_each)(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Complex* const* ds, std::size_t bit_b,
                                  std::size_t bit_a);

  /// out[b] = <lambda_b| M_b |psi_b>.
  void (*batched_bracket_1q)(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat2* mats,
                             std::size_t step, bool diagonal, int q,
                             Complex* out);
  void (*batched_bracket_2q)(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat4* mats,
                             std::size_t step, bool diagonal, int qb, int qa,
                             Complex* out);
  /// One reverse-sweep step of the adjoint for a diagonal 1q gate with
  /// one diagonal derivative (RZ), md[b * step] and dm[b * step] for
  /// column b: psi <- md psi, then out[b] = <lambda| dm |psi>, then
  /// lambda <- md lambda, in one walk over both registers. Per column
  /// bit-identical on every arm to apply_diag_range on psi, bracket_1q
  /// and apply_diag_range on lambda in that order; fused, the applies
  /// run in the slack of the serial bracket sums.
  void (*batched_adjoint_step_diag_1q)(Complex* lam, Complex* psi,
                                       std::size_t dim, std::size_t stride,
                                       std::size_t count, const Mat2* md,
                                       const Mat2* dm, std::size_t step, int q,
                                       Complex* out);

  /// One step of a fused 1q run's fold over a block's fresh columns (the
  /// plan bind, ExecPlan::bind_block): for k in [0, n) and column c =
  /// cols[k], acc[c] = fac[c * step] * acc[c] (step 0: one factor for
  /// every column), with circuit::mat2_multiply's operations for finite
  /// values: per entry two complex products, each four rounded multiplies
  /// then one subtract and one add, summed. No arm fuses a multiply into
  /// an add, the AVX2+FMA arm included, so a folded matrix is bitwise
  /// run_biased's on every arm. The AVX2 arms hold a column's four
  /// entries in two 256-bit rows; the scalar arm is straight-line code
  /// per column.
  void (*fold_mat2)(Mat2* acc, const Mat2* fac, std::size_t step,
                    const std::uint32_t* cols, std::size_t n);
};

/// The table of active_arch(): one read of the dispatch flags.
const KernelTable& kernel_table() noexcept;

}  // namespace arbiterq::sim::kernels
