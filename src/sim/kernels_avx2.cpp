// AVX2(+FMA) arms of the gate kernels. This file is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/sim/CMakeLists.txt) only when
// the toolchain targets x86; ARBITERQ_SIMD_AVX2 is defined for the
// whole aq_sim target in that case, and kernels.cpp gates every call on
// a runtime __builtin_cpu_supports check.
//
// -ffp-contract=off keeps the compiler from contracting the scalar
// tail loops' mul/add chains into FMA; the vector mul/addsub pairs of
// the Fma=false arm additionally carry a register barrier inside cmul,
// because GCC's combine pass fuses a mul feeding an addsub intrinsic
// into vfmaddsub regardless of the contract mode. The Fma=true arm
// uses explicit _mm256_fmaddsub_pd, so fusion there is opt-in.
//
// Layout notes. Amplitudes are interleaved [re, im] pairs, two complex
// values per 256-bit vector. A complex multiply by a scalar m lowers to
//     swapped = permute(v, 0b0101)            // [im, re]
//     addsub(mr * v, mi * swapped)            // [mr*re - mi*im,
//                                             //  mr*im + mi*re]
// which performs exactly the four products and two add/subs of
// std::complex multiplication, in the same order — the non-FMA arm is
// therefore bit-identical to the scalar loops, lane for lane.
//
// Butterfly vectorization pairs two groups per vector. For stride
// >= 2 consecutive groups touch consecutive amplitude indices and load
// directly; for stride 1 (qubit 0) the pair/partner amplitudes are
// interleaved in memory and one permute2f128 deinterleaves them.

#include "kernels_impl.hpp"

#if defined(ARBITERQ_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>

namespace arbiterq::sim::kernels::detail {

namespace {

inline bool is_zero(const Complex& c) noexcept {
  return c.real() == 0.0 && c.imag() == 0.0;
}

inline __m256d bc(double v) noexcept { return _mm256_set1_pd(v); }

/// Two-rounding scalar complex multiply for the tail/fallback loops.
/// This TU is compiled with -mfma, and GCC contracts even the
/// _Complex-lowering of std::complex operator* into vfmaddsub there
/// (ignoring -ffp-contract=off), so the four products are pinned in
/// registers to keep tails bit-identical to the scalar-TU kernels.
inline Complex csmul(Complex x, Complex y) noexcept {
  double rr = x.real() * y.real();
  double ii = x.imag() * y.imag();
  double ri = x.real() * y.imag();
  double ir = x.imag() * y.real();
  asm("" : "+x"(rr), "+x"(ii), "+x"(ri), "+x"(ir));
  return Complex{rr - ii, ri + ir};
}

/// m[0]*a0 + m[1]*a1 with csmul products (left-to-right sum).
inline Complex csrow2(const Complex* m, Complex a0, Complex a1) noexcept {
  return csmul(m[0], a0) + csmul(m[1], a1);
}

/// m[0]*a00 + m[1]*a01 + m[2]*a10 + m[3]*a11, left-to-right.
inline Complex csrow4(const Complex* m, Complex a00, Complex a01, Complex a10,
                      Complex a11) noexcept {
  return csmul(m[0], a00) + csmul(m[1], a01) + csmul(m[2], a10) +
         csmul(m[3], a11);
}

/// Complex multiply of two complex lanes by a broadcast scalar whose
/// real/imag parts are pre-splatted in mr/mi.
template <bool Fma>
inline __m256d cmul(__m256d mr, __m256d mi, __m256d v) noexcept {
  const __m256d sw = _mm256_permute_pd(v, 0x5);
  if constexpr (Fma) {
    return _mm256_fmaddsub_pd(mr, v, _mm256_mul_pd(mi, sw));
  }
  // -ffp-contract=off does not stop GCC's combine pass from fusing the
  // mul feeding an addsub intrinsic into vfmaddsub (the flag only gates
  // plain mul+add contraction), so pin the product in a register to
  // keep the non-FMA arm's two-rounding arithmetic — and with it the
  // bit-identity to the scalar kernels.
  __m256d pr = _mm256_mul_pd(mr, v);
  asm("" : "+x"(pr));
  return _mm256_addsub_pd(pr, _mm256_mul_pd(mi, sw));
}

template <bool Fma>
inline __m256d cmulc(const Complex& c, __m256d v) noexcept {
  return cmul<Fma>(bc(c.real()), bc(c.imag()), v);
}

/// [a[k] dup | b[k] dup]: per-lane scalars for two-sample kernels.
inline __m256d dup2(const double* a, const double* b) noexcept {
  return _mm256_set_m128d(_mm_loaddup_pd(b), _mm_loaddup_pd(a));
}

/// conj(l) * v per complex lane (fast-arm bracket reductions only).
inline __m256d cconjmul(__m256d l, __m256d v) noexcept {
  const __m256d lr = _mm256_movedup_pd(l);
  const __m256d li = _mm256_permute_pd(l, 0xF);
  const __m256d t = _mm256_mul_pd(li, _mm256_permute_pd(v, 0x5));
  return _mm256_fmsubadd_pd(lr, v, t);
}

/// Fold a vector accumulator's two complex lanes into one value.
inline Complex hsum(__m256d acc) noexcept {
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                               _mm256_extractf128_pd(acc, 1));
  alignas(16) double out[2];
  _mm_store_pd(out, s);
  return Complex{out[0], out[1]};
}

/// row[0..count) *= d, two amplitudes per vector.
template <bool Fma>
inline void scale_run(Complex* row, Complex d, std::size_t count) noexcept {
  const __m256d dr = bc(d.real());
  const __m256d di = bc(d.imag());
  double* p = reinterpret_cast<double*>(row);
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    _mm256_storeu_pd(p + 2 * b, cmul<Fma>(dr, di, _mm256_loadu_pd(p + 2 * b)));
  }
  for (; b < count; ++b) row[b] = csmul(row[b], d);
}

}  // namespace

// ---------------------------------------------------------------------------
// Unbatched statevector kernels

template <bool Fma>
void mat2_range_avx2(Complex* amps, const Mat2& m, int q, std::size_t lo,
                     std::size_t hi) {
  const std::size_t bit = std::size_t{1} << q;
  double* const base = reinterpret_cast<double*>(amps);
  const __m256d m0r = bc(m[0].real()), m0i = bc(m[0].imag());
  const __m256d m1r = bc(m[1].real()), m1i = bc(m[1].imag());
  const __m256d m2r = bc(m[2].real()), m2i = bc(m[2].imag());
  const __m256d m3r = bc(m[3].real()), m3i = bc(m[3].imag());
  auto scalar_group = [&](std::size_t p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    const std::size_t i1 = i0 | bit;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = csrow2(&m[0], a0, a1);
    amps[i1] = csrow2(&m[2], a0, a1);
  };
  if (q == 0) {
    // Groups are adjacent [a0, a1] pairs: deinterleave two groups with
    // 128-bit permutes, butterfly, re-interleave.
    std::size_t p = lo;
    for (; p + 2 <= hi; p += 2) {
      double* ptr = base + 4 * p;
      const __m256d va = _mm256_loadu_pd(ptr);
      const __m256d vb = _mm256_loadu_pd(ptr + 4);
      const __m256d a0 = _mm256_permute2f128_pd(va, vb, 0x20);
      const __m256d a1 = _mm256_permute2f128_pd(va, vb, 0x31);
      const __m256d o0 =
          _mm256_add_pd(cmul<Fma>(m0r, m0i, a0), cmul<Fma>(m1r, m1i, a1));
      const __m256d o1 =
          _mm256_add_pd(cmul<Fma>(m2r, m2i, a0), cmul<Fma>(m3r, m3i, a1));
      _mm256_storeu_pd(ptr, _mm256_permute2f128_pd(o0, o1, 0x20));
      _mm256_storeu_pd(ptr + 4, _mm256_permute2f128_pd(o0, o1, 0x31));
    }
    for (; p < hi; ++p) scalar_group(p);
    return;
  }
  // Stride >= 2: consecutive groups inside one stride-run touch
  // consecutive indices, so both butterfly arms load contiguously.
  std::size_t p = lo;
  while (p < hi) {
    if (p + 1 < hi && (p & (bit - 1)) != bit - 1) {
      const std::size_t i0 = insert_zero_bit(p, q);
      double* p0 = base + 2 * i0;
      double* p1 = base + 2 * (i0 | bit);
      const __m256d a0 = _mm256_loadu_pd(p0);
      const __m256d a1 = _mm256_loadu_pd(p1);
      _mm256_storeu_pd(
          p0, _mm256_add_pd(cmul<Fma>(m0r, m0i, a0), cmul<Fma>(m1r, m1i, a1)));
      _mm256_storeu_pd(
          p1, _mm256_add_pd(cmul<Fma>(m2r, m2i, a0), cmul<Fma>(m3r, m3i, a1)));
      p += 2;
    } else {
      scalar_group(p);
      ++p;
    }
  }
}

template <bool Fma>
void diag2_range_avx2(Complex* amps, Complex d0, Complex d1, std::size_t bit,
                      std::size_t lo, std::size_t hi) {
  double* const base = reinterpret_cast<double*>(amps);
  if (bit == 1) {
    // The factor alternates [d0, d1] per amplitude pair.
    std::size_t i = lo;
    if ((i & 1) != 0 && i < hi) {
      amps[i] = csmul(amps[i], d1);
      ++i;
    }
    const __m256d dr =
        _mm256_setr_pd(d0.real(), d0.real(), d1.real(), d1.real());
    const __m256d di =
        _mm256_setr_pd(d0.imag(), d0.imag(), d1.imag(), d1.imag());
    for (; i + 2 <= hi; i += 2) {
      double* p = base + 2 * i;
      _mm256_storeu_pd(p, cmul<Fma>(dr, di, _mm256_loadu_pd(p)));
    }
    if (i < hi) amps[i] = csmul(amps[i], d0);
    return;
  }
  // Runs of `bit` consecutive indices share one factor.
  std::size_t i = lo;
  while (i < hi) {
    const Complex d = (i & bit) ? d1 : d0;
    const std::size_t run_end = std::min(hi, (i | (bit - 1)) + 1);
    scale_run<Fma>(amps + i, d, run_end - i);
    i = run_end;
  }
}

template <bool Fma>
void mat4_range_avx2(Complex* amps, const Mat4& m, int qb, int qa,
                     std::size_t lo, std::size_t hi) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  const std::size_t low_lo = (std::size_t{1} << q_lo) - 1;
  const std::size_t low_hi = (std::size_t{1} << q_hi) - 1;
  double* const base = reinterpret_cast<double*>(amps);
  // Left-to-right fold, matching the scalar row sums exactly.
  auto row4 = [&](const Complex* r, __m256d a00, __m256d a01, __m256d a10,
                  __m256d a11) {
    __m256d acc = cmulc<Fma>(r[0], a00);
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[1], a01));
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[2], a10));
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[3], a11));
    return acc;
  };
  auto scalar_group = [&](std::size_t g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    const std::size_t i01 = i00 | bit_a;
    const std::size_t i10 = i00 | bit_b;
    const std::size_t i11 = i00 | bit_b | bit_a;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = csrow4(&m[0], a00, a01, a10, a11);
    amps[i01] = csrow4(&m[4], a00, a01, a10, a11);
    amps[i10] = csrow4(&m[8], a00, a01, a10, a11);
    amps[i11] = csrow4(&m[12], a00, a01, a10, a11);
  };
  if (q_lo >= 1) {
    // Consecutive groups inside a q_lo-run touch consecutive indices in
    // all four butterfly arms.
    std::size_t g = lo;
    while (g < hi) {
      const std::size_t j = insert_zero_bit(g, q_lo);
      if (g + 1 < hi && (g & low_lo) != low_lo && (j & low_hi) != low_hi) {
        const std::size_t i00 = insert_zero_bit(j, q_hi);
        double* p00 = base + 2 * i00;
        double* p01 = base + 2 * (i00 | bit_a);
        double* p10 = base + 2 * (i00 | bit_b);
        double* p11 = base + 2 * (i00 | bit_b | bit_a);
        const __m256d a00 = _mm256_loadu_pd(p00);
        const __m256d a01 = _mm256_loadu_pd(p01);
        const __m256d a10 = _mm256_loadu_pd(p10);
        const __m256d a11 = _mm256_loadu_pd(p11);
        _mm256_storeu_pd(p00, row4(&m[0], a00, a01, a10, a11));
        _mm256_storeu_pd(p01, row4(&m[4], a00, a01, a10, a11));
        _mm256_storeu_pd(p10, row4(&m[8], a00, a01, a10, a11));
        _mm256_storeu_pd(p11, row4(&m[12], a00, a01, a10, a11));
        g += 2;
      } else {
        scalar_group(g);
        ++g;
      }
    }
    return;
  }
  // q_lo == 0: the qubit-0 partner of every index is adjacent in
  // memory, so each contiguous quad holds two groups' worth of one
  // butterfly arm pair — deinterleave with permute2f128 as in the 1q
  // stride-1 case. The other arm pair sits bit_hi complex values away.
  const std::size_t bit_hi = std::size_t{1} << q_hi;
  std::size_t g = lo;
  while (g < hi) {
    const std::size_t j = insert_zero_bit(g, 0);  // == 2 * g
    if (g + 1 < hi && (j & low_hi) != low_hi - 1) {
      const std::size_t i00 = insert_zero_bit(j, q_hi);
      double* p_lo = base + 2 * i00;
      double* p_hi = base + 2 * (i00 | bit_hi);
      const __m256d va = _mm256_loadu_pd(p_lo);
      const __m256d vb = _mm256_loadu_pd(p_lo + 4);
      const __m256d vc = _mm256_loadu_pd(p_hi);
      const __m256d vd = _mm256_loadu_pd(p_hi + 4);
      const __m256d w0 = _mm256_permute2f128_pd(va, vb, 0x20);
      const __m256d w1 = _mm256_permute2f128_pd(va, vb, 0x31);
      const __m256d y0 = _mm256_permute2f128_pd(vc, vd, 0x20);
      const __m256d y1 = _mm256_permute2f128_pd(vc, vd, 0x31);
      // qubit 0 is `qa` (bit_a == 1): quad partner is a01/a11;
      // otherwise qubit 0 is `qb` and the partner is a10/a11.
      const __m256d a00 = w0;
      const __m256d a01 = bit_a == 1 ? w1 : y0;
      const __m256d a10 = bit_a == 1 ? y0 : w1;
      const __m256d a11 = y1;
      const __m256d o00 = row4(&m[0], a00, a01, a10, a11);
      const __m256d o01 = row4(&m[4], a00, a01, a10, a11);
      const __m256d o10 = row4(&m[8], a00, a01, a10, a11);
      const __m256d o11 = row4(&m[12], a00, a01, a10, a11);
      const __m256d ow = bit_a == 1 ? o01 : o10;
      const __m256d oy = bit_a == 1 ? o10 : o01;
      _mm256_storeu_pd(p_lo, _mm256_permute2f128_pd(o00, ow, 0x20));
      _mm256_storeu_pd(p_lo + 4, _mm256_permute2f128_pd(o00, ow, 0x31));
      _mm256_storeu_pd(p_hi, _mm256_permute2f128_pd(oy, o11, 0x20));
      _mm256_storeu_pd(p_hi + 4, _mm256_permute2f128_pd(oy, o11, 0x31));
      g += 2;
    } else {
      scalar_group(g);
      ++g;
    }
  }
}

template <bool Fma>
void diag4_range_avx2(Complex* amps, const Complex* d, std::size_t bit_b,
                      std::size_t bit_a, std::size_t lo, std::size_t hi) {
  const std::size_t bit_min = bit_a < bit_b ? bit_a : bit_b;
  const std::size_t bit_max = bit_a < bit_b ? bit_b : bit_a;
  auto sel_of = [&](std::size_t i) {
    return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
  };
  if (bit_min >= 2) {
    // Runs of bit_min consecutive indices share one selector (bit_max
    // runs are unions of bit_min runs).
    std::size_t i = lo;
    while (i < hi) {
      const std::size_t run_end = std::min(hi, (i | (bit_min - 1)) + 1);
      scale_run<Fma>(amps + i, d[sel_of(i)], run_end - i);
      i = run_end;
    }
    return;
  }
  // One of the qubits is 0: the selector alternates per amplitude, the
  // other bit holds over runs of bit_max.
  const unsigned low_contrib = bit_a == 1 ? 1U : 2U;
  double* const base = reinterpret_cast<double*>(amps);
  std::size_t i = lo;
  if ((i & 1) != 0 && i < hi) {
    amps[i] = csmul(amps[i], d[sel_of(i)]);
    ++i;
  }
  while (i < hi) {
    const unsigned s0 = sel_of(i);  // i even: qubit-0 bit clear
    const Complex e0 = d[s0];
    const Complex e1 = d[s0 | low_contrib];
    const __m256d dr =
        _mm256_setr_pd(e0.real(), e0.real(), e1.real(), e1.real());
    const __m256d di =
        _mm256_setr_pd(e0.imag(), e0.imag(), e1.imag(), e1.imag());
    const std::size_t run_end = std::min(hi, (i | (bit_max - 1)) + 1);
    std::size_t j = i;
    for (; j + 2 <= run_end; j += 2) {
      double* p = base + 2 * j;
      _mm256_storeu_pd(p, cmul<Fma>(dr, di, _mm256_loadu_pd(p)));
    }
    if (j < run_end) amps[j] = csmul(amps[j], e0);  // j even
    i = run_end;
  }
}

// ---------------------------------------------------------------------------
// Fast-arm bracket reductions. Lane accumulators hold two partial
// complex sums that are folded once at the end, so the summation
// association differs from the scalar bracket — these run only when
// strict reproducibility is off (ULP bounds tested in test_kernels).

Complex bracket_1q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat2& m, int q) {
  const std::size_t bit = std::size_t{1} << q;
  const double* lp = reinterpret_cast<const double*>(lam);
  const double* pp = reinterpret_cast<const double*>(psi);
  __m256d acc = _mm256_setzero_pd();
  Complex tail{0.0, 0.0};
  if (is_zero(m[1]) && is_zero(m[2])) {
    const Complex d0 = m[0], d1 = m[3];
    if (bit == 1) {
      const __m256d dr =
          _mm256_setr_pd(d0.real(), d0.real(), d1.real(), d1.real());
      const __m256d di =
          _mm256_setr_pd(d0.imag(), d0.imag(), d1.imag(), d1.imag());
      std::size_t i = 0;
      for (; i + 2 <= n; i += 2) {
        const __m256d mu = cmul<true>(dr, di, _mm256_loadu_pd(pp + 2 * i));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i), mu));
      }
      for (; i < n; ++i) tail += std::conj(lam[i]) * (psi[i] * d0);
      return hsum(acc) + tail;
    }
    std::size_t i = 0;
    while (i < n) {
      const Complex dv = (i & bit) ? d1 : d0;
      const __m256d dr = bc(dv.real());
      const __m256d di = bc(dv.imag());
      const std::size_t run_end = std::min(n, (i | (bit - 1)) + 1);
      for (; i + 2 <= run_end; i += 2) {
        const __m256d mu = cmul<true>(dr, di, _mm256_loadu_pd(pp + 2 * i));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i), mu));
      }
      for (; i < run_end; ++i) tail += std::conj(lam[i]) * (psi[i] * dv);
    }
    return hsum(acc) + tail;
  }
  const std::size_t n_groups = n >> 1;
  if (bit == 1) {
    // Lanes hold one group's (i0, i1); both arms need both inputs, so
    // pair each lane with its 128-bit-swapped sibling.
    const __m256d mar = _mm256_setr_pd(m[0].real(), m[0].real(), m[3].real(),
                                       m[3].real());
    const __m256d mai = _mm256_setr_pd(m[0].imag(), m[0].imag(), m[3].imag(),
                                       m[3].imag());
    const __m256d mbr = _mm256_setr_pd(m[1].real(), m[1].real(), m[2].real(),
                                       m[2].real());
    const __m256d mbi = _mm256_setr_pd(m[1].imag(), m[1].imag(), m[2].imag(),
                                       m[2].imag());
    for (std::size_t p = 0; p < n_groups; ++p) {
      const __m256d v = _mm256_loadu_pd(pp + 4 * p);
      const __m256d vs = _mm256_permute2f128_pd(v, v, 0x01);
      const __m256d mu = _mm256_add_pd(cmul<true>(mar, mai, v),
                                       cmul<true>(mbr, mbi, vs));
      acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 4 * p), mu));
    }
    return hsum(acc);
  }
  std::size_t p = 0;
  while (p < n_groups) {
    if (p + 1 < n_groups && (p & (bit - 1)) != bit - 1) {
      const std::size_t i0 = insert_zero_bit(p, q);
      const std::size_t i1 = i0 | bit;
      const __m256d v0 = _mm256_loadu_pd(pp + 2 * i0);
      const __m256d v1 = _mm256_loadu_pd(pp + 2 * i1);
      const __m256d mu0 =
          _mm256_add_pd(cmulc<true>(m[0], v0), cmulc<true>(m[1], v1));
      const __m256d mu1 =
          _mm256_add_pd(cmulc<true>(m[2], v0), cmulc<true>(m[3], v1));
      acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i0), mu0));
      acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i1), mu1));
      p += 2;
    } else {
      const std::size_t i0 = insert_zero_bit(p, q);
      const std::size_t i1 = i0 | bit;
      tail += std::conj(lam[i0]) * (m[0] * psi[i0] + m[1] * psi[i1]);
      tail += std::conj(lam[i1]) * (m[2] * psi[i0] + m[3] * psi[i1]);
      ++p;
    }
  }
  return hsum(acc) + tail;
}

Complex bracket_2q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat4& m, int qb, int qa) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  bool diagonal = true;
  for (int r = 0; r < 4 && diagonal; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (r != c && !is_zero(m[static_cast<std::size_t>(4 * r + c)])) {
        diagonal = false;
        break;
      }
    }
  }
  const double* lp = reinterpret_cast<const double*>(lam);
  const double* pp = reinterpret_cast<const double*>(psi);
  __m256d acc = _mm256_setzero_pd();
  Complex tail{0.0, 0.0};
  if (diagonal) {
    const Complex d[4] = {m[0], m[5], m[10], m[15]};
    // Reuse the diag4 run decomposition, accumulating instead of
    // scaling.
    const std::size_t bit_min = bit_a < bit_b ? bit_a : bit_b;
    const std::size_t bit_max = bit_a < bit_b ? bit_b : bit_a;
    auto sel_of = [&](std::size_t i) {
      return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
    };
    std::size_t i = 0;
    if (bit_min >= 2) {
      while (i < n) {
        const Complex dv = d[sel_of(i)];
        const __m256d dr = bc(dv.real());
        const __m256d di = bc(dv.imag());
        const std::size_t run_end = std::min(n, (i | (bit_min - 1)) + 1);
        for (; i + 2 <= run_end; i += 2) {
          const __m256d mu = cmul<true>(dr, di, _mm256_loadu_pd(pp + 2 * i));
          acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i), mu));
        }
        for (; i < run_end; ++i) tail += std::conj(lam[i]) * (psi[i] * dv);
      }
      return hsum(acc) + tail;
    }
    const unsigned low_contrib = bit_a == 1 ? 1U : 2U;
    while (i < n) {
      const unsigned s0 = sel_of(i);
      const Complex e0 = d[s0];
      const Complex e1 = d[s0 | low_contrib];
      const __m256d dr =
          _mm256_setr_pd(e0.real(), e0.real(), e1.real(), e1.real());
      const __m256d di =
          _mm256_setr_pd(e0.imag(), e0.imag(), e1.imag(), e1.imag());
      const std::size_t run_end = std::min(n, (i | (bit_max - 1)) + 1);
      for (; i + 2 <= run_end; i += 2) {
        const __m256d mu = cmul<true>(dr, di, _mm256_loadu_pd(pp + 2 * i));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i), mu));
      }
      for (; i < run_end; ++i) tail += std::conj(lam[i]) * (psi[i] * d[sel_of(i)]);
    }
    return hsum(acc) + tail;
  }
  // General: walk butterfly groups (two per vector when contiguous),
  // computing all four row brackets per group.
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  const std::size_t low_lo = (std::size_t{1} << q_lo) - 1;
  const std::size_t low_hi = (std::size_t{1} << q_hi) - 1;
  const std::size_t n_groups = n >> 2;
  auto row4 = [&](const Complex* r, __m256d a00, __m256d a01, __m256d a10,
                  __m256d a11) {
    __m256d s = cmulc<true>(r[0], a00);
    s = _mm256_add_pd(s, cmulc<true>(r[1], a01));
    s = _mm256_add_pd(s, cmulc<true>(r[2], a10));
    s = _mm256_add_pd(s, cmulc<true>(r[3], a11));
    return s;
  };
  auto scalar_group = [&](std::size_t g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    const std::size_t idx[4] = {i00, i00 | bit_a, i00 | bit_b,
                                i00 | bit_b | bit_a};
    const Complex a00 = psi[idx[0]];
    const Complex a01 = psi[idx[1]];
    const Complex a10 = psi[idx[2]];
    const Complex a11 = psi[idx[3]];
    for (unsigned r = 0; r < 4; ++r) {
      const Complex* row = &m[static_cast<std::size_t>(4 * r)];
      tail += std::conj(lam[idx[r]]) *
              (row[0] * a00 + row[1] * a01 + row[2] * a10 + row[3] * a11);
    }
  };
  std::size_t g = 0;
  if (q_lo >= 1) {
    while (g < n_groups) {
      const std::size_t j = insert_zero_bit(g, q_lo);
      if (g + 1 < n_groups && (g & low_lo) != low_lo &&
          (j & low_hi) != low_hi) {
        const std::size_t i00 = insert_zero_bit(j, q_hi);
        const std::size_t i01 = i00 | bit_a;
        const std::size_t i10 = i00 | bit_b;
        const std::size_t i11 = i00 | bit_b | bit_a;
        const __m256d a00 = _mm256_loadu_pd(pp + 2 * i00);
        const __m256d a01 = _mm256_loadu_pd(pp + 2 * i01);
        const __m256d a10 = _mm256_loadu_pd(pp + 2 * i10);
        const __m256d a11 = _mm256_loadu_pd(pp + 2 * i11);
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i00),
                                          row4(&m[0], a00, a01, a10, a11)));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i01),
                                          row4(&m[4], a00, a01, a10, a11)));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i10),
                                          row4(&m[8], a00, a01, a10, a11)));
        acc = _mm256_add_pd(acc, cconjmul(_mm256_loadu_pd(lp + 2 * i11),
                                          row4(&m[12], a00, a01, a10, a11)));
        g += 2;
      } else {
        scalar_group(g);
        ++g;
      }
    }
    return hsum(acc) + tail;
  }
  const std::size_t bit_hi = std::size_t{1} << q_hi;
  while (g < n_groups) {
    const std::size_t j = insert_zero_bit(g, 0);
    if (g + 1 < n_groups && (j & low_hi) != low_hi - 1) {
      const std::size_t i00 = insert_zero_bit(j, q_hi);
      const double* p_lo = pp + 2 * i00;
      const double* p_hi = pp + 2 * (i00 | bit_hi);
      const double* l_lo = lp + 2 * i00;
      const double* l_hi = lp + 2 * (i00 | bit_hi);
      const __m256d va = _mm256_loadu_pd(p_lo);
      const __m256d vb = _mm256_loadu_pd(p_lo + 4);
      const __m256d vc = _mm256_loadu_pd(p_hi);
      const __m256d vd = _mm256_loadu_pd(p_hi + 4);
      const __m256d w0 = _mm256_permute2f128_pd(va, vb, 0x20);
      const __m256d w1 = _mm256_permute2f128_pd(va, vb, 0x31);
      const __m256d y0 = _mm256_permute2f128_pd(vc, vd, 0x20);
      const __m256d y1 = _mm256_permute2f128_pd(vc, vd, 0x31);
      const __m256d a00 = w0;
      const __m256d a01 = bit_a == 1 ? w1 : y0;
      const __m256d a10 = bit_a == 1 ? y0 : w1;
      const __m256d a11 = y1;
      const __m256d la = _mm256_loadu_pd(l_lo);
      const __m256d lb = _mm256_loadu_pd(l_lo + 4);
      const __m256d lc = _mm256_loadu_pd(l_hi);
      const __m256d ld = _mm256_loadu_pd(l_hi + 4);
      const __m256d lw0 = _mm256_permute2f128_pd(la, lb, 0x20);
      const __m256d lw1 = _mm256_permute2f128_pd(la, lb, 0x31);
      const __m256d ly0 = _mm256_permute2f128_pd(lc, ld, 0x20);
      const __m256d ly1 = _mm256_permute2f128_pd(lc, ld, 0x31);
      const __m256d l00 = lw0;
      const __m256d l01 = bit_a == 1 ? lw1 : ly0;
      const __m256d l10 = bit_a == 1 ? ly0 : lw1;
      const __m256d l11 = ly1;
      acc = _mm256_add_pd(acc, cconjmul(l00, row4(&m[0], a00, a01, a10, a11)));
      acc = _mm256_add_pd(acc, cconjmul(l01, row4(&m[4], a00, a01, a10, a11)));
      acc =
          _mm256_add_pd(acc, cconjmul(l10, row4(&m[8], a00, a01, a10, a11)));
      acc =
          _mm256_add_pd(acc, cconjmul(l11, row4(&m[12], a00, a01, a10, a11)));
      g += 2;
    } else {
      scalar_group(g);
      ++g;
    }
  }
  return hsum(acc) + tail;
}

// ---------------------------------------------------------------------------
// Sample-batched row kernels: rows are contiguous, so every arm is a
// straight strided loop — the mini-GEMM inner dimension.

template <bool Fma>
void batched_mat2_avx2(Complex* r0, Complex* r1, const Mat2& m,
                       std::size_t count) {
  double* p0 = reinterpret_cast<double*>(r0);
  double* p1 = reinterpret_cast<double*>(r1);
  const __m256d m0r = bc(m[0].real()), m0i = bc(m[0].imag());
  const __m256d m1r = bc(m[1].real()), m1i = bc(m[1].imag());
  const __m256d m2r = bc(m[2].real()), m2i = bc(m[2].imag());
  const __m256d m3r = bc(m[3].real()), m3i = bc(m[3].imag());
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const __m256d a0 = _mm256_loadu_pd(p0 + 2 * b);
    const __m256d a1 = _mm256_loadu_pd(p1 + 2 * b);
    _mm256_storeu_pd(p0 + 2 * b, _mm256_add_pd(cmul<Fma>(m0r, m0i, a0),
                                               cmul<Fma>(m1r, m1i, a1)));
    _mm256_storeu_pd(p1 + 2 * b, _mm256_add_pd(cmul<Fma>(m2r, m2i, a0),
                                               cmul<Fma>(m3r, m3i, a1)));
  }
  for (; b < count; ++b) {
    const Complex a0 = r0[b];
    const Complex a1 = r1[b];
    r0[b] = csrow2(&m[0], a0, a1);
    r1[b] = csrow2(&m[2], a0, a1);
  }
}

template <bool Fma>
void batched_mat2_each_avx2(Complex* r0, Complex* r1, const Mat2* mats,
                            std::size_t count) {
  double* p0 = reinterpret_cast<double*>(r0);
  double* p1 = reinterpret_cast<double*>(r1);
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const double* ma = reinterpret_cast<const double*>(mats + b);
    const double* mb = reinterpret_cast<const double*>(mats + b + 1);
    const __m256d a0 = _mm256_loadu_pd(p0 + 2 * b);
    const __m256d a1 = _mm256_loadu_pd(p1 + 2 * b);
    const __m256d o0 =
        _mm256_add_pd(cmul<Fma>(dup2(ma + 0, mb + 0), dup2(ma + 1, mb + 1), a0),
                      cmul<Fma>(dup2(ma + 2, mb + 2), dup2(ma + 3, mb + 3), a1));
    const __m256d o1 =
        _mm256_add_pd(cmul<Fma>(dup2(ma + 4, mb + 4), dup2(ma + 5, mb + 5), a0),
                      cmul<Fma>(dup2(ma + 6, mb + 6), dup2(ma + 7, mb + 7), a1));
    _mm256_storeu_pd(p0 + 2 * b, o0);
    _mm256_storeu_pd(p1 + 2 * b, o1);
  }
  for (; b < count; ++b) {
    const Mat2& m = mats[b];
    const Complex a0 = r0[b];
    const Complex a1 = r1[b];
    r0[b] = csrow2(&m[0], a0, a1);
    r1[b] = csrow2(&m[2], a0, a1);
  }
}

template <bool Fma>
void batched_scale_avx2(Complex* row, Complex d, std::size_t count) {
  scale_run<Fma>(row, d, count);
}

template <bool Fma>
void batched_scale_each_avx2(Complex* row, const Complex* ds,
                             std::size_t count) {
  double* p = reinterpret_cast<double*>(row);
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const double* da = reinterpret_cast<const double*>(ds + b);
    const double* db = reinterpret_cast<const double*>(ds + b + 1);
    _mm256_storeu_pd(p + 2 * b,
                     cmul<Fma>(dup2(da + 0, db + 0), dup2(da + 1, db + 1),
                               _mm256_loadu_pd(p + 2 * b)));
  }
  for (; b < count; ++b) row[b] = csmul(row[b], ds[b]);
}

template <bool Fma>
void batched_mat4_avx2(Complex* r00, Complex* r01, Complex* r10, Complex* r11,
                       const Mat4& m, std::size_t count) {
  double* p00 = reinterpret_cast<double*>(r00);
  double* p01 = reinterpret_cast<double*>(r01);
  double* p10 = reinterpret_cast<double*>(r10);
  double* p11 = reinterpret_cast<double*>(r11);
  auto row4 = [&](const Complex* r, __m256d a00, __m256d a01, __m256d a10,
                  __m256d a11) {
    __m256d s = cmulc<Fma>(r[0], a00);
    s = _mm256_add_pd(s, cmulc<Fma>(r[1], a01));
    s = _mm256_add_pd(s, cmulc<Fma>(r[2], a10));
    s = _mm256_add_pd(s, cmulc<Fma>(r[3], a11));
    return s;
  };
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const __m256d a00 = _mm256_loadu_pd(p00 + 2 * b);
    const __m256d a01 = _mm256_loadu_pd(p01 + 2 * b);
    const __m256d a10 = _mm256_loadu_pd(p10 + 2 * b);
    const __m256d a11 = _mm256_loadu_pd(p11 + 2 * b);
    _mm256_storeu_pd(p00 + 2 * b, row4(&m[0], a00, a01, a10, a11));
    _mm256_storeu_pd(p01 + 2 * b, row4(&m[4], a00, a01, a10, a11));
    _mm256_storeu_pd(p10 + 2 * b, row4(&m[8], a00, a01, a10, a11));
    _mm256_storeu_pd(p11 + 2 * b, row4(&m[12], a00, a01, a10, a11));
  }
  for (; b < count; ++b) {
    const Complex a00 = r00[b];
    const Complex a01 = r01[b];
    const Complex a10 = r10[b];
    const Complex a11 = r11[b];
    r00[b] = csrow4(&m[0], a00, a01, a10, a11);
    r01[b] = csrow4(&m[4], a00, a01, a10, a11);
    r10[b] = csrow4(&m[8], a00, a01, a10, a11);
    r11[b] = csrow4(&m[12], a00, a01, a10, a11);
  }
}

template <bool Fma>
void batched_mat4_each_avx2(Complex* r00, Complex* r01, Complex* r10,
                            Complex* r11, const Mat4* mats,
                            std::size_t count) {
  double* p00 = reinterpret_cast<double*>(r00);
  double* p01 = reinterpret_cast<double*>(r01);
  double* p10 = reinterpret_cast<double*>(r10);
  double* p11 = reinterpret_cast<double*>(r11);
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    const double* ma = reinterpret_cast<const double*>(mats + b);
    const double* mb = reinterpret_cast<const double*>(mats + b + 1);
    const __m256d a00 = _mm256_loadu_pd(p00 + 2 * b);
    const __m256d a01 = _mm256_loadu_pd(p01 + 2 * b);
    const __m256d a10 = _mm256_loadu_pd(p10 + 2 * b);
    const __m256d a11 = _mm256_loadu_pd(p11 + 2 * b);
    auto row4 = [&](unsigned r, __m256d* out) {
      const std::size_t o = 8 * r;  // 4 complex = 8 doubles per row
      __m256d s = cmul<Fma>(dup2(ma + o, mb + o), dup2(ma + o + 1, mb + o + 1),
                            a00);
      s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 2, mb + o + 2),
                                     dup2(ma + o + 3, mb + o + 3), a01));
      s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 4, mb + o + 4),
                                     dup2(ma + o + 5, mb + o + 5), a10));
      s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 6, mb + o + 6),
                                     dup2(ma + o + 7, mb + o + 7), a11));
      *out = s;
    };
    __m256d o00, o01, o10, o11;
    row4(0, &o00);
    row4(1, &o01);
    row4(2, &o10);
    row4(3, &o11);
    _mm256_storeu_pd(p00 + 2 * b, o00);
    _mm256_storeu_pd(p01 + 2 * b, o01);
    _mm256_storeu_pd(p10 + 2 * b, o10);
    _mm256_storeu_pd(p11 + 2 * b, o11);
  }
  for (; b < count; ++b) {
    const Mat4& m = mats[b];
    const Complex a00 = r00[b];
    const Complex a01 = r01[b];
    const Complex a10 = r10[b];
    const Complex a11 = r11[b];
    r00[b] = csrow4(&m[0], a00, a01, a10, a11);
    r01[b] = csrow4(&m[4], a00, a01, a10, a11);
    r10[b] = csrow4(&m[8], a00, a01, a10, a11);
    r11[b] = csrow4(&m[12], a00, a01, a10, a11);
  }
}

// ---------------------------------------------------------------------------
// Register-level batched gates: the row walk runs inside this arm, so a
// gate resolves its arm once rather than once per row.

template <bool Fma>
void batched_apply_mat2_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2& m, int q) {
  for_each_row_pair(amps, dim, stride, q, [&](Complex* r0, Complex* r1) {
    batched_mat2_avx2<Fma>(r0, r1, m, count);
  });
}

template <bool Fma>
void batched_apply_mat2_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat2* mats, int q) {
  for_each_row_pair(amps, dim, stride, q, [&](Complex* r0, Complex* r1) {
    batched_mat2_each_avx2<Fma>(r0, r1, mats, count);
  });
}

template <bool Fma>
void batched_apply_mat4_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4& m, int qb, int qa) {
  for_each_row_quad(amps, dim, stride, qb, qa,
                    [&](Complex* r00, Complex* r01, Complex* r10,
                        Complex* r11) {
                      batched_mat4_avx2<Fma>(r00, r01, r10, r11, m, count);
                    });
}

template <bool Fma>
void batched_apply_mat4_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat4* mats, int qb, int qa) {
  for_each_row_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        batched_mat4_each_avx2<Fma>(r00, r01, r10, r11, mats, count);
      });
}

template <bool Fma>
void batched_apply_diag_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* d, std::size_t bit_b,
                             std::size_t bit_a) {
  for_each_row_sel(amps, dim, stride, bit_b, bit_a,
                   [&](Complex* row, unsigned sel) {
                     scale_run<Fma>(row, d[sel], count);
                   });
}

template <bool Fma>
void batched_apply_diag_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Complex* const* ds, std::size_t bit_b,
                                  std::size_t bit_a) {
  for_each_row_sel(amps, dim, stride, bit_b, bit_a,
                   [&](Complex* row, unsigned sel) {
                     batched_scale_each_avx2<Fma>(row, ds[sel], count);
                   });
}

// ---------------------------------------------------------------------------
// Explicit instantiations: Fma = false is the strict (bit-identical)
// arm, Fma = true the fast arm.

template void mat2_range_avx2<false>(Complex*, const Mat2&, int, std::size_t,
                                     std::size_t);
template void mat2_range_avx2<true>(Complex*, const Mat2&, int, std::size_t,
                                    std::size_t);
template void diag2_range_avx2<false>(Complex*, Complex, Complex, std::size_t,
                                      std::size_t, std::size_t);
template void diag2_range_avx2<true>(Complex*, Complex, Complex, std::size_t,
                                     std::size_t, std::size_t);
template void mat4_range_avx2<false>(Complex*, const Mat4&, int, int,
                                     std::size_t, std::size_t);
template void mat4_range_avx2<true>(Complex*, const Mat4&, int, int,
                                    std::size_t, std::size_t);
template void diag4_range_avx2<false>(Complex*, const Complex*, std::size_t,
                                      std::size_t, std::size_t, std::size_t);
template void diag4_range_avx2<true>(Complex*, const Complex*, std::size_t,
                                     std::size_t, std::size_t, std::size_t);

template void batched_apply_mat2_avx2<false>(Complex*, std::size_t,
                                             std::size_t, std::size_t,
                                             const Mat2&, int);
template void batched_apply_mat2_avx2<true>(Complex*, std::size_t, std::size_t,
                                            std::size_t, const Mat2&, int);
template void batched_apply_mat2_each_avx2<false>(Complex*, std::size_t,
                                                  std::size_t, std::size_t,
                                                  const Mat2*, int);
template void batched_apply_mat2_each_avx2<true>(Complex*, std::size_t,
                                                 std::size_t, std::size_t,
                                                 const Mat2*, int);
template void batched_apply_mat4_avx2<false>(Complex*, std::size_t,
                                             std::size_t, std::size_t,
                                             const Mat4&, int, int);
template void batched_apply_mat4_avx2<true>(Complex*, std::size_t, std::size_t,
                                            std::size_t, const Mat4&, int,
                                            int);
template void batched_apply_mat4_each_avx2<false>(Complex*, std::size_t,
                                                  std::size_t, std::size_t,
                                                  const Mat4*, int, int);
template void batched_apply_mat4_each_avx2<true>(Complex*, std::size_t,
                                                 std::size_t, std::size_t,
                                                 const Mat4*, int, int);
template void batched_apply_diag_avx2<false>(Complex*, std::size_t,
                                             std::size_t, std::size_t,
                                             const Complex*, std::size_t,
                                             std::size_t);
template void batched_apply_diag_avx2<true>(Complex*, std::size_t, std::size_t,
                                            std::size_t, const Complex*,
                                            std::size_t, std::size_t);
template void batched_apply_diag_each_avx2<false>(Complex*, std::size_t,
                                                  std::size_t, std::size_t,
                                                  const Complex* const*,
                                                  std::size_t, std::size_t);
template void batched_apply_diag_each_avx2<true>(Complex*, std::size_t,
                                                 std::size_t, std::size_t,
                                                 const Complex* const*,
                                                 std::size_t, std::size_t);

}  // namespace arbiterq::sim::kernels::detail

#endif  // ARBITERQ_SIMD_AVX2
