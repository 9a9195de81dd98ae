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

/// conj(l) * v per complex lane: [lr*vr + li*vi, lr*vi - li*vr]. The
/// strict arm lowers it as addsub(lr*v, (-li)*swap(v)), which is the
/// rounding sequence of std::complex's conj(l) * v, with the product
/// pinned as in cmul.
template <bool Fma>
inline __m256d cconjmul(__m256d l, __m256d v) noexcept {
  const __m256d lr = _mm256_movedup_pd(l);
  const __m256d li = _mm256_permute_pd(l, 0xF);
  const __m256d sw = _mm256_permute_pd(v, 0x5);
  if constexpr (Fma) {
    return _mm256_fmsubadd_pd(lr, v, _mm256_mul_pd(li, sw));
  }
  __m256d pr = _mm256_mul_pd(lr, v);
  asm("" : "+x"(pr));
  const __m256d neg_li = _mm256_xor_pd(li, bc(-0.0));
  return _mm256_addsub_pd(pr, _mm256_mul_pd(neg_li, sw));
}

/// [a, a] and [b, b] from the two complex lanes of v = [a, b].
inline __m256d dup_lo(__m256d v) noexcept {
  return _mm256_permute2f128_pd(v, v, 0x00);
}
inline __m256d dup_hi(__m256d v) noexcept {
  return _mm256_permute2f128_pd(v, v, 0x11);
}

/// Running sum of conj(lambda_j) * mu_j over lane pairs (j, j+1). The
/// strict arm adds each complex lane into one [re, im] accumulator in
/// amplitude-index order — the scalar association, so the result is
/// bitwise the scalar bracket. The FMA arm keeps two lane accumulators
/// and folds them once at the end.
template <bool Fma>
class BracketSum {
 public:
  void add(__m256d lam, __m256d mu) noexcept {
    const __m256d p = cconjmul<Fma>(lam, mu);
    if constexpr (Fma) {
      lanes_ = _mm256_add_pd(lanes_, p);
    } else {
      acc_ = _mm_add_pd(acc_, _mm256_castpd256_pd128(p));
      acc_ = _mm_add_pd(acc_, _mm256_extractf128_pd(p, 1));
    }
  }

  Complex result() const noexcept {
    __m128d s = acc_;
    if constexpr (Fma) {
      s = _mm_add_pd(_mm256_castpd256_pd128(lanes_),
                     _mm256_extractf128_pd(lanes_, 1));
    }
    alignas(16) double out[2];
    _mm_store_pd(out, s);
    return Complex{out[0], out[1]};
  }

 private:
  __m256d lanes_ = _mm256_setzero_pd();
  __m128d acc_ = _mm_setzero_pd();
};

/// The one bracket walk: visits amplitudes in index order, two per
/// vector. mu_j = sum_k row(j)[k] * input_k(j), summed left to right as
/// the scalar brackets do. Over each aligned run of `run` indices the
/// two lanes' rows are fixed, row_of(i) and row_of(i + 1) at the run
/// start; load(j, a) fills the K inputs of lanes (j, j+1). Registers
/// hold a power-of-two n >= 2 amplitudes and every run is even, so a
/// lane pair never straddles two runs.
template <bool Fma, std::size_t K, class RowOf, class Load>
Complex bracket_walk(const Complex* lam, std::size_t n, std::size_t run,
                     RowOf&& row_of, Load&& load) {
  const double* lp = reinterpret_cast<const double*>(lam);
  BracketSum<Fma> sum;
  for (std::size_t i = 0; i < n; i += run) {
    const Complex* r0 = row_of(i);
    const Complex* r1 = row_of(i + 1);
    __m256d cr[K];
    __m256d ci[K];
    for (std::size_t k = 0; k < K; ++k) {
      const __m256d rows = _mm256_set_m128d(
          _mm_loadu_pd(reinterpret_cast<const double*>(r1 + k)),
          _mm_loadu_pd(reinterpret_cast<const double*>(r0 + k)));
      cr[k] = _mm256_movedup_pd(rows);
      ci[k] = _mm256_permute_pd(rows, 0xF);
    }
    for (std::size_t j = i; j < i + run; j += 2) {
      __m256d a[K];
      load(j, a);
      __m256d mu = cmul<Fma>(cr[0], ci[0], a[0]);
      for (std::size_t k = 1; k < K; ++k) {
        mu = _mm256_add_pd(mu, cmul<Fma>(cr[k], ci[k], a[k]));
      }
      sum.add(_mm256_loadu_pd(lp + 2 * j), mu);
    }
  }
  return sum.result();
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
void diag_range_avx2(Complex* amps, const Complex* d, std::size_t bit_b,
                     std::size_t bit_a, std::size_t lo, std::size_t hi) {
  // A 1q diagonal has bit_b == 0: its one bit is both bit_min and the
  // only bit, and no other bit ever ends a run.
  const std::size_t bit_min = bit_b == 0 || bit_a < bit_b ? bit_a : bit_b;
  const std::size_t bit_other = bit_a ^ bit_b ^ bit_min;
  auto sel_of = [&](std::size_t i) {
    return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
  };
  if (bit_min >= 2) {
    // Runs of bit_min consecutive indices share one selector (runs of
    // the other bit are unions of bit_min runs).
    std::size_t i = lo;
    while (i < hi) {
      const std::size_t run_end = std::min(hi, (i | (bit_min - 1)) + 1);
      scale_run<Fma>(amps + i, d[sel_of(i)], run_end - i);
      i = run_end;
    }
    return;
  }
  // One of the qubits is 0: the selector alternates per amplitude, the
  // other bit holds over runs of bit_other.
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
    const std::size_t run_end =
        bit_other == 0 ? hi : std::min(hi, (i | (bit_other - 1)) + 1);
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
// Bracket reductions: the scalar brackets' index-order sums over
// bracket_walk. A diagonal M is the K = 1 walk over psi itself, its
// diagonal entry (m[3 * sel] or m[5 * sel]) the row; psi[i] * d
// commutes bitwise to d * psi[i].

template <bool Fma>
Complex bracket_1q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat2& m, int q) {
  const std::size_t bit = std::size_t{1} << q;
  const double* pp = reinterpret_cast<const double*>(psi);
  // Lanes (j, j+1) sit on one side of the butterfly unless q == 0.
  const std::size_t run = bit >= 2 ? bit : n;
  const auto side = [bit](std::size_t i) { return (i & bit) ? 1U : 0U; };
  if (classify(m).shape == Shape::kDiagonal) {
    return bracket_walk<Fma, 1>(
        lam, n, run, [&](std::size_t i) { return &m[3 * side(i)]; },
        [&](std::size_t j, __m256d* a) { a[0] = _mm256_loadu_pd(pp + 2 * j); });
  }
  const auto row_of = [&](std::size_t i) { return &m[2 * side(i)]; };
  if (bit == 1) {
    return bracket_walk<Fma, 2>(lam, n, run, row_of,
                                [&](std::size_t j, __m256d* a) {
                                  const __m256d v = _mm256_loadu_pd(pp + 2 * j);
                                  a[0] = dup_lo(v);
                                  a[1] = dup_hi(v);
                                });
  }
  return bracket_walk<Fma, 2>(lam, n, run, row_of,
                              [&](std::size_t j, __m256d* a) {
                                const std::size_t j0 = j & ~bit;
                                a[0] = _mm256_loadu_pd(pp + 2 * j0);
                                a[1] = _mm256_loadu_pd(pp + 2 * (j0 | bit));
                              });
}

template <bool Fma>
Complex bracket_2q_avx2(const Complex* lam, const Complex* psi, std::size_t n,
                        const Mat4& m, int qb, int qa) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const std::size_t bit_min = bit_a < bit_b ? bit_a : bit_b;
  const std::size_t bit_max = bit_a < bit_b ? bit_b : bit_a;
  const std::size_t mask = bit_b | bit_a;
  const double* pp = reinterpret_cast<const double*>(psi);
  // Lanes (j, j+1) share a row unless one qubit is 0; then they share
  // it with their partners over runs of the other bit.
  const std::size_t run = bit_min >= 2 ? bit_min : bit_max;
  const auto sel = [=](std::size_t i) {
    return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
  };
  if (classify(m).shape == Shape::kDiagonal) {
    return bracket_walk<Fma, 1>(
        lam, n, run, [&](std::size_t i) { return &m[5 * sel(i)]; },
        [&](std::size_t j, __m256d* a) { a[0] = _mm256_loadu_pd(pp + 2 * j); });
  }
  const auto row_of = [&](std::size_t i) { return &m[4 * sel(i)]; };
  if (bit_min == 1) {
    // Both lanes read the same four inputs: the qubit-0 pairs at base
    // and base | bit_max, each broadcast to both lanes.
    return bracket_walk<Fma, 4>(
        lam, n, run, row_of, [&](std::size_t j, __m256d* a) {
          const std::size_t base = j & ~mask;
          const __m256d lo = _mm256_loadu_pd(pp + 2 * base);
          const __m256d hi = _mm256_loadu_pd(pp + 2 * (base | bit_max));
          const __m256d at_min = dup_hi(lo);  // input at base | 1
          const __m256d at_max = dup_lo(hi);  // input at base | bit_max
          a[0] = dup_lo(lo);
          a[1] = bit_a == 1 ? at_min : at_max;
          a[2] = bit_a == 1 ? at_max : at_min;
          a[3] = dup_hi(hi);
        });
  }
  return bracket_walk<Fma, 4>(lam, n, run, row_of,
                              [&](std::size_t j, __m256d* a) {
                                const std::size_t base = j & ~mask;
                                a[0] = _mm256_loadu_pd(pp + 2 * base);
                                a[1] = _mm256_loadu_pd(pp + 2 * (base | bit_a));
                                a[2] = _mm256_loadu_pd(pp + 2 * (base | bit_b));
                                a[3] = _mm256_loadu_pd(pp + 2 * (base | mask));
                              });
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
template void mat4_range_avx2<false>(Complex*, const Mat4&, int, int,
                                     std::size_t, std::size_t);
template void mat4_range_avx2<true>(Complex*, const Mat4&, int, int,
                                    std::size_t, std::size_t);
template void diag_range_avx2<false>(Complex*, const Complex*, std::size_t,
                                     std::size_t, std::size_t, std::size_t);
template void diag_range_avx2<true>(Complex*, const Complex*, std::size_t,
                                    std::size_t, std::size_t, std::size_t);

template Complex bracket_1q_avx2<false>(const Complex*, const Complex*,
                                        std::size_t, const Mat2&, int);
template Complex bracket_1q_avx2<true>(const Complex*, const Complex*,
                                       std::size_t, const Mat2&, int);
template Complex bracket_2q_avx2<false>(const Complex*, const Complex*,
                                        std::size_t, const Mat4&, int, int);
template Complex bracket_2q_avx2<true>(const Complex*, const Complex*,
                                       std::size_t, const Mat4&, int, int);

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
