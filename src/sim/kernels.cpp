#include "arbiterq/sim/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "kernels_impl.hpp"

namespace arbiterq::sim::kernels {

namespace {

using detail::insert_zero_bit;

// ---------------------------------------------------------------------------
// Dispatch state. Both switches follow the telemetry kill-switch shape:
// a tri-state atomic (-1 = consult the environment on first use) that a
// setter can override at any time.

std::atomic<signed char> g_simd_state{-1};
std::atomic<signed char> g_strict_state{-1};

bool env_flag(const char* name, bool fallback) noexcept {
  bool value = fallback;
  if (const char* env = std::getenv(name)) {
    std::string v(env);
    for (char& c : v) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (v == "0" || v == "off" || v == "false") value = false;
    if (v == "1" || v == "on" || v == "true") value = true;
  }
  return value;
}

bool flag_slow(std::atomic<signed char>& state, const char* env,
               bool fallback) noexcept {
  const bool value = env_flag(env, fallback);
  // Racing first calls all derive the same answer from the environment,
  // so the double store is benign.
  state.store(value ? 1 : 0, std::memory_order_relaxed);
  return value;
}

/// In-place swaps of group rows (0..3) that realize a unit permutation:
/// row r ends up holding input row src[r]. At most three; one for CX
/// and SWAP.
struct RowSwaps {
  std::size_t n = 0;
  std::array<std::array<std::uint8_t, 2>, 3> rows{};
};

RowSwaps row_swaps(const Perm4& src) noexcept {
  Perm4 at = {0, 1, 2, 3};  // at[p]: the input row now held by row p
  RowSwaps out;
  for (std::uint8_t r = 0; r < 4; ++r) {
    if (at[r] == src[r]) continue;
    auto p = static_cast<std::uint8_t>(r + 1);
    while (at[p] != src[r]) ++p;
    std::swap(at[r], at[p]);
    out.rows[out.n++] = {r, p};
  }
  return out;
}

/// Swaps the amplitudes at offsets o0 and o1 of every group in [lo, hi),
/// for R = 2^q_lo and R-aligned lo and hi. The R groups of a run have
/// consecutive base indices and the next run starts 2R further on, up
/// to the end of a 2^q_hi block, so the walk steps its base pointer and
/// each swap moves R adjacent amplitudes. Swapping one row pair over
/// the whole range before the next keeps every group's result, since
/// groups touch disjoint amplitudes.
template <std::size_t R>
void swap_runs(Complex* amps, std::size_t o0, std::size_t o1, int q_lo,
               int q_hi, std::size_t lo, std::size_t hi) noexcept {
  const std::size_t step = 2 * R;
  const std::size_t block = std::size_t{1} << (q_hi - 1);  // groups
  for (std::size_t g = lo; g < hi;) {
    const std::size_t end = std::min(hi, (g | (block - 1)) + 1);
    Complex* base = amps + insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    for (; g < end; g += R, base += step) {
      for (std::size_t r = 0; r < R; ++r) {
        std::swap(base[o0 + r], base[o1 + r]);
      }
    }
  }
}

/// A batched register walked at full width (count == stride) with a
/// power-of-two stride is an unbatched register of log2(stride) more
/// qubits whose low qubits index the columns: amplitude (row i, column
/// b) sits at i * stride + b, so a gate on qubit q is the same gate on
/// qubit q + log2(stride) there, with the same per-amplitude arithmetic.
/// Returns that shift, or -1 when the gate must walk row by row.
int flat_shift(std::size_t stride, std::size_t count) noexcept {
  if (count != stride || !std::has_single_bit(stride)) return -1;
  return std::countr_zero(stride);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels: the exact loops statevector.cpp and
// adjoint.cpp ran before the dispatch layer existed. Every other arm is
// validated against these (test_kernels.cpp).

void mat2_range_scalar(Complex* amps, const Mat2& m, int q, std::size_t lo,
                       std::size_t hi) {
  const std::size_t bit = std::size_t{1} << q;
  const Complex m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for (std::size_t p = lo; p < hi; ++p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    const std::size_t i1 = i0 | bit;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = m0 * a0 + m1 * a1;
    amps[i1] = m2 * a0 + m3 * a1;
  }
}

void mat4_range_scalar(Complex* amps, const Mat4& m, int qb, int qa,
                       std::size_t lo, std::size_t hi) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  for (std::size_t g = lo; g < hi; ++g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    const std::size_t i01 = i00 | bit_a;
    const std::size_t i10 = i00 | bit_b;
    const std::size_t i11 = i00 | bit_b | bit_a;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    amps[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    amps[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    amps[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

void diag_range_scalar(Complex* amps, const Complex* d, std::size_t bit_b,
                       std::size_t bit_a, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
    amps[i] *= d[sel];
  }
}

Complex bracket_1q_scalar(const Complex* lam, const Complex* psi,
                          std::size_t n, const Mat2& m, int q) {
  const std::size_t bit = std::size_t{1} << q;
  Complex acc{0.0, 0.0};
  if (classify(m).shape == Shape::kDiagonal) {
    const Complex d0 = m[0], d1 = m[3];
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::conj(lam[i]) * (psi[i] * ((i & bit) ? d1 : d0));
    }
    return acc;
  }
  const Complex m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for (std::size_t i = 0; i < n; ++i) {
    const Complex mu = (i & bit) ? m2 * psi[i & ~bit] + m3 * psi[i]
                                 : m0 * psi[i] + m1 * psi[i | bit];
    acc += std::conj(lam[i]) * mu;
  }
  return acc;
}

Complex bracket_2q_scalar(const Complex* lam, const Complex* psi,
                          std::size_t n, const Mat4& m, int qb, int qa) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  Complex acc{0.0, 0.0};
  if (classify(m).shape == Shape::kDiagonal) {
    const Complex d[4] = {m[0], m[5], m[10], m[15]};
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
      acc += std::conj(lam[i]) * (psi[i] * d[sel]);
    }
    return acc;
  }
  const std::size_t mask = bit_b | bit_a;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = i & ~mask;
    const Complex a00 = psi[base];
    const Complex a01 = psi[base | bit_a];
    const Complex a10 = psi[base | bit_b];
    const Complex a11 = psi[base | bit_b | bit_a];
    const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
    const Complex* row = &m[static_cast<std::size_t>(4 * sel)];
    acc += std::conj(lam[i]) * (row[0] * a00 + row[1] * a01 + row[2] * a10 +
                                row[3] * a11);
  }
  return acc;
}

Complex adjoint_step_diag_1q_scalar(Complex* lam, Complex* psi, std::size_t n,
                                    const Mat2& md, const Mat2& dm, int q) {
  const Complex d[2] = {md[0], md[3]};
  const std::size_t bit = std::size_t{1} << q;
  diag_range_scalar(psi, d, 0, bit, 0, n);
  const Complex ip = bracket_1q_scalar(lam, psi, n, dm, q);
  diag_range_scalar(lam, d, 0, bit, 0, n);
  return ip;
}

// ---------------------------------------------------------------------------
// Scalar batched row kernels: per-column arithmetic identical to the
// unbatched loops above.

void batched_mat2_scalar(Complex* r0, Complex* r1, const Mat2& m,
                         std::size_t count) {
  const Complex m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for (std::size_t b = 0; b < count; ++b) {
    const Complex a0 = r0[b];
    const Complex a1 = r1[b];
    r0[b] = m0 * a0 + m1 * a1;
    r1[b] = m2 * a0 + m3 * a1;
  }
}

void batched_mat2_each_scalar(Complex* r0, Complex* r1, const Mat2* mats,
                              std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) {
    const Mat2& m = mats[b];
    const Complex a0 = r0[b];
    const Complex a1 = r1[b];
    r0[b] = m[0] * a0 + m[1] * a1;
    r1[b] = m[2] * a0 + m[3] * a1;
  }
}

void batched_scale_scalar(Complex* row, Complex d, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) row[b] *= d;
}

void batched_scale_each_scalar(Complex* row, const Complex* ds,
                               std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) row[b] *= ds[b];
}

void batched_mat4_scalar(Complex* r00, Complex* r01, Complex* r10,
                         Complex* r11, const Mat4& m, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) {
    const Complex a00 = r00[b];
    const Complex a01 = r01[b];
    const Complex a10 = r10[b];
    const Complex a11 = r11[b];
    r00[b] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    r01[b] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    r10[b] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    r11[b] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

void batched_mat4_each_scalar(Complex* r00, Complex* r01, Complex* r10,
                              Complex* r11, const Mat4* mats,
                              std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) {
    const Mat4& m = mats[b];
    const Complex a00 = r00[b];
    const Complex a01 = r01[b];
    const Complex a10 = r10[b];
    const Complex a11 = r11[b];
    r00[b] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
    r01[b] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
    r10[b] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
    r11[b] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
  }
}

// Scalar register-level batched gates: the row walks of kernels_impl.hpp
// over the scalar row kernels.

void batched_apply_mat2_scalar(Complex* amps, std::size_t dim,
                               std::size_t stride, std::size_t count,
                               const Mat2& m, int q) {
  detail::for_each_row_pair(amps, dim, stride, q,
                            [&](Complex* r0, Complex* r1) {
                              batched_mat2_scalar(r0, r1, m, count);
                            });
}

void batched_apply_mat2_each_scalar(Complex* amps, std::size_t dim,
                                    std::size_t stride, std::size_t count,
                                    const Mat2* mats, int q) {
  detail::for_each_row_pair(amps, dim, stride, q,
                            [&](Complex* r0, Complex* r1) {
                              batched_mat2_each_scalar(r0, r1, mats, count);
                            });
}

void batched_apply_mat4_scalar(Complex* amps, std::size_t dim,
                               std::size_t stride, std::size_t count,
                               const Mat4& m, int qb, int qa) {
  detail::for_each_row_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        batched_mat4_scalar(r00, r01, r10, r11, m, count);
      });
}

void batched_apply_mat4_each_scalar(Complex* amps, std::size_t dim,
                                    std::size_t stride, std::size_t count,
                                    const Mat4* mats, int qb, int qa) {
  detail::for_each_row_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        batched_mat4_each_scalar(r00, r01, r10, r11, mats, count);
      });
}

void batched_apply_diag_scalar(Complex* amps, std::size_t dim,
                               std::size_t stride, std::size_t count,
                               const Complex* d, std::size_t bit_b,
                               std::size_t bit_a) {
  detail::for_each_row_sel(amps, dim, stride, bit_b, bit_a,
                           [&](Complex* row, unsigned sel) {
                             batched_scale_scalar(row, d[sel], count);
                           });
}

void batched_apply_diag_each_scalar(Complex* amps, std::size_t dim,
                                    std::size_t stride, std::size_t count,
                                    const Complex* const* ds,
                                    std::size_t bit_b, std::size_t bit_a) {
  detail::for_each_row_sel(amps, dim, stride, bit_b, bit_a,
                           [&](Complex* row, unsigned sel) {
                             batched_scale_each_scalar(row, ds[sel], count);
                           });
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch control

bool simd_compiled() noexcept {
#if defined(ARBITERQ_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool simd_supported() noexcept {
#if defined(ARBITERQ_SIMD_AVX2) && \
    (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool simd_runtime_enabled() noexcept {
  const signed char s = g_simd_state.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return flag_slow(g_simd_state, "ARBITERQ_SIMD", true);
}

void set_simd_runtime_enabled(bool enabled) noexcept {
  g_simd_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool strict_reproducibility() noexcept {
  const signed char s = g_strict_state.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return flag_slow(g_strict_state, "ARBITERQ_STRICT_REPRO", true);
}

void set_strict_reproducibility(bool strict) noexcept {
  g_strict_state.store(strict ? 1 : 0, std::memory_order_relaxed);
}

KernelArch active_arch() noexcept {
  if (!simd_supported() || !simd_runtime_enabled()) return KernelArch::kScalar;
  return strict_reproducibility() ? KernelArch::kAvx2 : KernelArch::kAvx2Fma;
}

const char* arch_name(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar:
      return "scalar";
    case KernelArch::kAvx2:
      return "avx2";
    case KernelArch::kAvx2Fma:
      return "avx2_fma";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Dispatchers. The arch is re-read per call, which keeps the kill-switch
// effective mid-process. The read is not free: three out-of-line flag
// checks, against a kernel that at QNN register sizes may do only one
// or two butterflies. Hot loops over a batched register therefore call
// the register-level entries, which resolve the arm once per gate, and
// every arm then splats its coefficients once per gate rather than per
// run or row (kernels_avx2.cpp, "Setup-free walks").

#if defined(ARBITERQ_SIMD_AVX2)
#define AQ_DISPATCH(fn_avx2, fn_scalar, ...)          \
  do {                                                \
    switch (active_arch()) {                          \
      case KernelArch::kAvx2:                         \
        return detail::fn_avx2<false>(__VA_ARGS__);   \
      case KernelArch::kAvx2Fma:                      \
        return detail::fn_avx2<true>(__VA_ARGS__);    \
      case KernelArch::kScalar:                       \
        break;                                        \
    }                                                 \
    return fn_scalar(__VA_ARGS__);                    \
  } while (0)
#else
#define AQ_DISPATCH(fn_avx2, fn_scalar, ...) return fn_scalar(__VA_ARGS__)
#endif

void apply_mat2_range(Complex* amps, const Mat2& m, int q, std::size_t lo,
                      std::size_t hi) {
  AQ_DISPATCH(mat2_range_avx2, mat2_range_scalar, amps, m, q, lo, hi);
}

void apply_mat4_range(Complex* amps, const Mat4& m, int qb, int qa,
                      std::size_t lo, std::size_t hi) {
  AQ_DISPATCH(mat4_range_avx2, mat4_range_scalar, amps, m, qb, qa, lo, hi);
}

void apply_diag_range(Complex* amps, const Complex* d, std::size_t bit_b,
                      std::size_t bit_a, std::size_t lo, std::size_t hi) {
  AQ_DISPATCH(diag_range_avx2, diag_range_scalar, amps, d, bit_b, bit_a, lo,
              hi);
}

void apply_perm4_range(Complex* amps, const Perm4& src, int qb, int qa,
                       std::size_t lo, std::size_t hi) {
  const RowSwaps sw = row_swaps(src);
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const std::size_t off[4] = {0, bit_a, bit_b, bit_b | bit_a};
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  // Groups inside one 2^q_lo block have consecutive base indices, so
  // each swap moves a whole run at once.
  const std::size_t run = std::size_t{1} << q_lo;
  auto swap_by_run = [&](std::size_t from, std::size_t to) {
    for (std::size_t g = from; g < to;) {
      const std::size_t len = std::min(to - g, run - (g & (run - 1)));
      Complex* const base =
          amps + insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
      for (std::size_t k = 0; k < sw.n; ++k) {
        Complex* const r0 = base + off[sw.rows[k][0]];
        std::swap_ranges(r0, r0 + len, base + off[sw.rows[k][1]]);
      }
      g += len;
    }
  };
  if (run > 4) {
    swap_by_run(lo, hi);
    return;
  }
  // Runs of 1-4 groups: whole runs go through the fixed-length walk, the
  // range's partial runs at either end through swap_by_run.
  const std::size_t body_lo = std::min(hi, (lo + run - 1) & ~(run - 1));
  const std::size_t body_hi = std::max(body_lo, hi & ~(run - 1));
  swap_by_run(lo, body_lo);
  for (std::size_t k = 0; k < sw.n; ++k) {
    const std::size_t o0 = off[sw.rows[k][0]];
    const std::size_t o1 = off[sw.rows[k][1]];
    if (run == 1) {
      swap_runs<1>(amps, o0, o1, q_lo, q_hi, body_lo, body_hi);
    } else if (run == 2) {
      swap_runs<2>(amps, o0, o1, q_lo, q_hi, body_lo, body_hi);
    } else {
      swap_runs<4>(amps, o0, o1, q_lo, q_hi, body_lo, body_hi);
    }
  }
  swap_by_run(body_hi, hi);
}

// Brackets are reductions: every strict arm accumulates in amplitude-
// index order into one [re, im] pair, so the AVX2 arm is bit-identical
// to scalar; the FMA arm reassociates into lane accumulators. The AVX2
// walk unrolls the selector period of qubits 1-3 without changing that
// order.
Complex bracket_1q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat2& m, int q) {
  AQ_DISPATCH(bracket_1q_avx2, bracket_1q_scalar, lam, psi, n, m, q);
}

Complex bracket_2q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat4& m, int qb, int qa) {
  AQ_DISPATCH(bracket_2q_avx2, bracket_2q_scalar, lam, psi, n, m, qb, qa);
}

Complex adjoint_step_diag_1q(Complex* lam, Complex* psi, std::size_t n,
                             const Mat2& md, const Mat2& dm, int q) {
  AQ_DISPATCH(adjoint_step_diag_1q_avx2, adjoint_step_diag_1q_scalar, lam, psi,
              n, md, dm, q);
}

void batched_apply_mat2(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat2& m, int q) {
  if (const int s = flat_shift(stride, count); s >= 0) {
    return apply_mat2_range(amps, m, q + s, 0, (dim * stride) >> 1);
  }
  AQ_DISPATCH(batched_apply_mat2_avx2, batched_apply_mat2_scalar, amps, dim,
              stride, count, m, q);
}

void batched_apply_mat2_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2* mats, int q) {
  AQ_DISPATCH(batched_apply_mat2_each_avx2, batched_apply_mat2_each_scalar,
              amps, dim, stride, count, mats, q);
}

void batched_apply_mat4(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat4& m, int qb, int qa) {
  if (const int s = flat_shift(stride, count); s >= 0) {
    return apply_mat4_range(amps, m, qb + s, qa + s, 0, (dim * stride) >> 2);
  }
  AQ_DISPATCH(batched_apply_mat4_avx2, batched_apply_mat4_scalar, amps, dim,
              stride, count, m, qb, qa);
}

void batched_apply_mat4_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4* mats, int qb, int qa) {
  AQ_DISPATCH(batched_apply_mat4_each_avx2, batched_apply_mat4_each_scalar,
              amps, dim, stride, count, mats, qb, qa);
}

void batched_apply_perm4(Complex* amps, std::size_t dim, std::size_t stride,
                         std::size_t count, const Perm4& src, int qb, int qa) {
  if (const int s = flat_shift(stride, count); s >= 0) {
    return apply_perm4_range(amps, src, qb + s, qa + s, 0, (dim * stride) >> 2);
  }
  const RowSwaps sw = row_swaps(src);
  detail::for_each_row_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        Complex* const rows[4] = {r00, r01, r10, r11};
        for (std::size_t k = 0; k < sw.n; ++k) {
          Complex* const r0 = rows[sw.rows[k][0]];
          std::swap_ranges(r0, r0 + count, rows[sw.rows[k][1]]);
        }
      });
}

void batched_apply_diag(Complex* amps, std::size_t dim, std::size_t stride,
                        std::size_t count, const Complex* d,
                        std::size_t bit_b, std::size_t bit_a) {
  if (const int s = flat_shift(stride, count); s >= 0) {
    return apply_diag_range(amps, d, bit_b << s, bit_a << s, 0, dim * stride);
  }
  AQ_DISPATCH(batched_apply_diag_avx2, batched_apply_diag_scalar, amps, dim,
              stride, count, d, bit_b, bit_a);
}

void batched_apply_diag_each(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* const* ds, std::size_t bit_b,
                             std::size_t bit_a) {
  AQ_DISPATCH(batched_apply_diag_each_avx2, batched_apply_diag_each_scalar,
              amps, dim, stride, count, ds, bit_b, bit_a);
}

#undef AQ_DISPATCH

}  // namespace arbiterq::sim::kernels
