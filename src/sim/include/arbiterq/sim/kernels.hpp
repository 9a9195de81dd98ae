#pragma once
// Gate-application kernels behind a runtime CPU-dispatch layer.
//
// Every statevector butterfly (1q/2q, diagonal fast paths, the adjoint
// bracket reductions, and the sample-batched register gates) funnels
// through the free functions below. Each call selects one of three
// arms, cached after first use:
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
// Dispatch controls, mirroring the telemetry kill-switch:
//  * ARBITERQ_SIMD=OFF (env) or set_simd_runtime_enabled(false) forces
//    the scalar arm — field regressions stay bisectable.
//  * ARBITERQ_STRICT_REPRO=0 (env) or set_strict_reproducibility(false)
//    opts into the FMA arm and vectorized bracket reductions. The
//    default is strict: every public result is bit-identical to the
//    scalar build.
//
// Reduction caveat: the bracket kernels accumulate over amplitude
// indices, so a vector accumulator changes the summation association.
// Under strict reproducibility brackets therefore run scalar; the FMA
// arm carries lane accumulators and a documented ULP bound instead.

#include <complex>
#include <cstddef>

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
/// Diagonal 1q fast path over amplitude indices [lo, hi).
void apply_diag2_range(Complex* amps, Complex d0, Complex d1, std::size_t bit,
                       std::size_t lo, std::size_t hi);
/// General 2q butterfly over groups [lo, hi).
void apply_mat4_range(Complex* amps, const Mat4& m, int qb, int qa,
                      std::size_t lo, std::size_t hi);
/// Diagonal 2q fast path over amplitude indices [lo, hi); d holds the
/// four diagonal entries selected by (bit_b, bit_a).
void apply_diag4_range(Complex* amps, const Complex* d, std::size_t bit_b,
                       std::size_t bit_a, std::size_t lo, std::size_t hi);

/// <lambda| M |psi> accumulated in amplitude-index order, including the
/// diagonal dispatch of apply_mat2 (see adjoint.cpp for the contract).
Complex bracket_1q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat2& m, int q);
Complex bracket_2q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat4& m, int qb, int qa);

// ---------------------------------------------------------------------------
// Sample-batched register gates
//
// A batched register stores one row of amplitudes per basis index,
// one column per sample (structure of arrays): row i starts at
// amps + i * stride. One call applies one gate to columns [0, count)
// of every row (count may be below stride — an active-width walk).
// The arm is resolved once per gate and the row loop runs inside the
// arm, so at QNN register sizes (a handful of rows per gate) dispatch
// is not paid per row. Per-column arithmetic is identical to the
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
