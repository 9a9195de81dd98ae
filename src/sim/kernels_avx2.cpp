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
// therefore bit-identical to the scalar loops, lane for lane. Every
// amplitude an arm touches outside a 256-bit vector (a 128-bit lane, or
// a scalar group at a range edge) takes that arm's own arithmetic, so
// an amplitude's value never depends on where a walk or a batch split
// put it.
//
// Butterfly vectorization pairs two groups per vector. For stride
// >= 2 consecutive groups touch consecutive amplitude indices and load
// directly; for stride 1 (qubit 0) the pair/partner amplitudes are
// interleaved in memory and one permute2f128 deinterleaves them.
//
// Setup-free walks. Coefficients are splatted once per gate, never per
// run of amplitudes: where runs sharing a selector are short (qubits
// 1-3), the diagonal and bracket walks unroll one selector period
// (2 * bit_min amplitudes) with both halves' coefficients held, and the
// batched walks carry hoisted coefficients into every row.

#include "kernels_impl.hpp"

#if defined(ARBITERQ_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace arbiterq::sim::kernels::detail {

namespace {

inline __m256d bc(double v) noexcept { return _mm256_set1_pd(v); }

/// Complex multiply c * a of one amplitude with the arithmetic of a
/// cmul<Fma> lane. Strict: four rounded products, pinned in registers
/// (this TU is compiled with -mfma, and GCC contracts even the
/// _Complex-lowering of std::complex operator* into vfmaddsub there,
/// ignoring -ffp-contract=off), then one subtract and one add — the
/// scalar kernels' std::complex product. FMA: the cross products are
/// rounded and fused into c.re * a exactly as _mm256_fmaddsub_pd does.
template <bool Fma>
inline Complex csmul(Complex c, Complex a) noexcept {
  double ii = c.imag() * a.imag();
  double ir = c.imag() * a.real();
  if constexpr (Fma) {
    asm("" : "+x"(ii), "+x"(ir));
    return Complex{std::fma(c.real(), a.real(), -ii),
                   std::fma(c.real(), a.imag(), ir)};
  }
  double rr = c.real() * a.real();
  double ri = c.real() * a.imag();
  asm("" : "+x"(rr), "+x"(ii), "+x"(ri), "+x"(ir));
  return Complex{rr - ii, ri + ir};
}

/// m[0]*a0 + m[1]*a1 with csmul products (left-to-right sum).
template <bool Fma>
inline Complex csrow2(const Complex* m, Complex a0, Complex a1) noexcept {
  return csmul<Fma>(m[0], a0) + csmul<Fma>(m[1], a1);
}

/// m[0]*a00 + m[1]*a01 + m[2]*a10 + m[3]*a11, left-to-right.
template <bool Fma>
inline Complex csrow4(const Complex* m, Complex a00, Complex a01, Complex a10,
                      Complex a11) noexcept {
  return csmul<Fma>(m[0], a00) + csmul<Fma>(m[1], a01) +
         csmul<Fma>(m[2], a10) + csmul<Fma>(m[3], a11);
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

/// The same multiply on one complex lane (the odd column of a batched
/// row): _mm_fmaddsub_pd / _mm_addsub_pd compute lane for lane what the
/// 256-bit forms do.
template <bool Fma>
inline __m128d cmul(__m128d mr, __m128d mi, __m128d v) noexcept {
  const __m128d sw = _mm_permute_pd(v, 0x1);
  if constexpr (Fma) {
    return _mm_fmaddsub_pd(mr, v, _mm_mul_pd(mi, sw));
  }
  __m128d pr = _mm_mul_pd(mr, v);
  asm("" : "+x"(pr));
  return _mm_addsub_pd(pr, _mm_mul_pd(mi, sw));
}

/// A coefficient splatted for cmul: real parts in r, imaginary in i.
/// The low 128 bits serve a single complex lane.
struct Coef {
  __m256d r;
  __m256d i;
};

inline Coef splat(Complex c) noexcept { return {bc(c.real()), bc(c.imag())}; }

/// Per-column coefficients: a for the low complex lane, b for the high.
inline Coef splat2(Complex a, Complex b) noexcept {
  return {_mm256_setr_pd(a.real(), a.real(), b.real(), b.real()),
          _mm256_setr_pd(a.imag(), a.imag(), b.imag(), b.imag())};
}

template <bool Fma>
inline __m256d cmul(const Coef& c, __m256d v) noexcept {
  return cmul<Fma>(c.r, c.i, v);
}

template <bool Fma>
inline __m128d cmul(const Coef& c, __m128d v) noexcept {
  return cmul<Fma>(_mm256_castpd256_pd128(c.r), _mm256_castpd256_pd128(c.i),
                   v);
}

template <bool Fma>
inline __m256d cmulc(const Complex& c, __m256d v) noexcept {
  return cmul<Fma>(bc(c.real()), bc(c.imag()), v);
}

inline __m256d vadd(__m256d a, __m256d b) noexcept {
  return _mm256_add_pd(a, b);
}
inline __m128d vadd(__m128d a, __m128d b) noexcept { return _mm_add_pd(a, b); }

/// Column widths of a batched row walk: two columns per 256-bit vector,
/// one in a 128-bit lane.
struct Wide {};
struct Narrow {};
inline __m256d vload(Wide, const double* p) noexcept {
  return _mm256_loadu_pd(p);
}
inline __m128d vload(Narrow, const double* p) noexcept {
  return _mm_loadu_pd(p);
}
inline void vstore(double* p, __m256d v) noexcept { _mm256_storeu_pd(p, v); }
inline void vstore(double* p, __m128d v) noexcept { _mm_storeu_pd(p, v); }

/// col(b, width) over columns [0, count): pairs as Wide, an odd last
/// column as Narrow.
template <class Col>
inline void for_each_col(std::size_t count, Col&& col) {
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) col(b, Wide{});
  if (b < count) col(b, Narrow{});
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

/// The K row entries lanes (j, j+1) multiply their inputs by: lane j
/// takes row r0, lane j+1 row r1.
template <std::size_t K>
struct LaneRows {
  Coef c[K];
};

template <std::size_t K>
inline LaneRows<K> lane_rows(const Complex* r0, const Complex* r1) noexcept {
  LaneRows<K> out;
  for (std::size_t k = 0; k < K; ++k) out.c[k] = splat2(r0[k], r1[k]);
  return out;
}

/// One lane pair of a bracket: mu = sum_k row[k] * a[k], summed left to
/// right as the scalar brackets do, then sum += conj(lambda) * mu.
template <bool Fma, std::size_t K, class Load>
inline void bracket_step(BracketSum<Fma>& sum, const double* lp,
                         const LaneRows<K>& rows, std::size_t j,
                         Load& load) noexcept {
  __m256d a[K];
  load(j, a);
  __m256d mu = cmul<Fma>(rows.c[0], a[0]);
  for (std::size_t k = 1; k < K; ++k) {
    mu = _mm256_add_pd(mu, cmul<Fma>(rows.c[k], a[k]));
  }
  const __m256d lam = _mm256_loadu_pd(lp + 2 * j);
  sum.add(lam, mu);
}

/// The walk over one block [j, end) whose runs of `run` indices take
/// rows r[0] and r[1] in turn (r[0] only when !sides). R > 0 unrolls
/// short runs of R lane pairs: each selector period is a run on r[0]
/// followed by a run on r[1], both held for the block. Kept out of line
/// so each loop gets its own registers — the strict accumulator is a
/// serial chain, and a spilled one doubles its latency.
template <bool Fma, std::size_t K, std::size_t R, class Load>
[[gnu::noinline]] BracketSum<Fma> bracket_block(
    BracketSum<Fma> sum, const double* lp, const LaneRows<K>* r, bool sides,
    std::size_t run, std::size_t j, std::size_t end, Load& load) {
  if constexpr (R > 0) {
    const LaneRows<K> ra = r[0];
    const LaneRows<K> rb = r[1];
    for (; j < end; j += 4 * R) {
      for (std::size_t v = 0; v < R; ++v) {
        bracket_step<Fma, K>(sum, lp, ra, j + 2 * v, load);
      }
      for (std::size_t v = 0; v < R; ++v) {
        bracket_step<Fma, K>(sum, lp, rb, j + 2 * (R + v), load);
      }
    }
  } else {
    for (std::size_t i = j; i < end; i += run) {
      const LaneRows<K> cur = r[sides && (i & run) != 0 ? 1 : 0];
      for (std::size_t k = i; k < i + run; k += 2) {
        bracket_step<Fma, K>(sum, lp, cur, k, load);
      }
    }
  }
  return sum;
}

/// The one bracket walk: visits amplitudes in index order, two per
/// vector; load(j, a) fills the K inputs of lanes (j, j+1). The lanes'
/// rows (row_of(i) for lane i) depend on two bits only: they are fixed
/// over each aligned run of `run` indices, alternate between two row
/// pairs from run to run, and switch to another two over each aligned
/// block of `outer` indices (outer == n when no second bit matters).
/// All of them are splatted once per gate. Registers hold a
/// power-of-two n >= 2 amplitudes and every run is even, so a lane pair
/// never straddles two runs.
template <bool Fma, std::size_t K, class RowOf, class Load>
Complex bracket_walk(const Complex* lam, std::size_t n, std::size_t run,
                     std::size_t outer, RowOf&& row_of, Load&& load) {
  const double* lp = reinterpret_cast<const double*>(lam);
  const bool sides = run < outer;  // runs alternate between two row pairs
  LaneRows<K> rows[2][2];          // [outer bit][run bit]
  for (std::size_t h = 0; h < (outer < n ? 2U : 1U); ++h) {
    for (std::size_t s = 0; s < (sides ? 2U : 1U); ++s) {
      const std::size_t i = h * outer + s * run;
      rows[h][s] = lane_rows<K>(row_of(i), row_of(i + 1));
    }
  }
  BracketSum<Fma> sum;
  for (std::size_t o = 0; o < n; o += outer) {
    const LaneRows<K>* r = rows[(o & outer) != 0 ? 1 : 0];
    const std::size_t end = o + outer;
    if (sides && run == 2) {
      sum = bracket_block<Fma, K, 1>(sum, lp, r, sides, run, o, end, load);
    } else if (sides && run == 4) {
      sum = bracket_block<Fma, K, 2>(sum, lp, r, sides, run, o, end, load);
    } else if (sides && run == 8) {
      sum = bracket_block<Fma, K, 4>(sum, lp, r, sides, run, o, end, load);
    } else {
      sum = bracket_block<Fma, K, 0>(sum, lp, r, sides, run, o, end, load);
    }
  }
  return sum.result();
}

/// row[0..count) *= c: column pairs per vector, an odd last amplitude in
/// a 128-bit lane.
template <bool Fma>
inline void scale_run(Complex* row, const Coef& c, std::size_t count) noexcept {
  double* p = reinterpret_cast<double*>(row);
  for_each_col(count, [&](std::size_t b, auto w) {
    vstore(p + 2 * b, cmul<Fma>(c, vload(w, p + 2 * b)));
  });
}

/// Diagonal over [lo, hi) one selector run at a time: runs of bit_min
/// (>= 2) consecutive indices share one selector.
template <bool Fma, class SelOf>
inline void scale_runs(Complex* amps, const Coef* c, std::size_t bit_min,
                       SelOf& sel_of, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  while (i < hi) {
    const std::size_t run_end = std::min(hi, (i | (bit_min - 1)) + 1);
    scale_run<Fma>(amps + i, c[sel_of(i)], run_end - i);
    i = run_end;
  }
}

/// `periods` whole selector periods of 4V amplitudes from p: the first
/// 2V (V vectors) scale by c0, the next 2V by c1.
template <bool Fma, std::size_t V>
inline void scale_periods(double* p, std::size_t periods, const Coef& c0,
                          const Coef& c1) noexcept {
  const Coef a = c0;
  const Coef b = c1;
  for (std::size_t k = 0; k < periods; ++k, p += 8 * V) {
    for (std::size_t v = 0; v < V; ++v) {
      _mm256_storeu_pd(p + 4 * v,
                       cmul<Fma>(a, _mm256_loadu_pd(p + 4 * v)));
    }
    for (std::size_t v = V; v < 2 * V; ++v) {
      _mm256_storeu_pd(p + 4 * v,
                       cmul<Fma>(b, _mm256_loadu_pd(p + 4 * v)));
    }
  }
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
    amps[i0] = csrow2<Fma>(&m[0], a0, a1);
    amps[i1] = csrow2<Fma>(&m[2], a0, a1);
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
    amps[i00] = csrow4<Fma>(&m[0], a00, a01, a10, a11);
    amps[i01] = csrow4<Fma>(&m[4], a00, a01, a10, a11);
    amps[i10] = csrow4<Fma>(&m[8], a00, a01, a10, a11);
    amps[i11] = csrow4<Fma>(&m[12], a00, a01, a10, a11);
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
  Coef c[4];
  for (unsigned s = 0; s < (bit_b == 0 ? 2U : 4U); ++s) c[s] = splat(d[s]);
  if (bit_min >= 16) {
    // Long runs: setup per run is already amortized.
    scale_runs<Fma>(amps, c, bit_min, sel_of, lo, hi);
    return;
  }
  if (bit_min >= 2) {
    // Qubits 1-3: runs of 2-8 amplitudes. Whole selector periods (a run
    // with bit_min clear, then one with it set) go through the unrolled
    // walk, runs of the other bit at a time; the range's partial
    // periods at either end take the run walk.
    const std::size_t period = 2 * bit_min;
    const std::size_t body_lo = std::min(hi, (lo + period - 1) & ~(period - 1));
    const std::size_t body_hi = std::max(body_lo, hi & ~(period - 1));
    const unsigned low = bit_min == bit_a ? 1U : 2U;  // bit_min's selector bit
    scale_runs<Fma>(amps, c, bit_min, sel_of, lo, body_lo);
    double* const base = reinterpret_cast<double*>(amps);
    for (std::size_t i = body_lo; i < body_hi;) {
      const std::size_t end =
          bit_other == 0 ? body_hi
                         : std::min(body_hi, (i | (bit_other - 1)) + 1);
      const unsigned s0 = sel_of(i);
      const std::size_t periods = (end - i) / period;
      if (bit_min == 2) {
        scale_periods<Fma, 1>(base + 2 * i, periods, c[s0], c[s0 | low]);
      } else if (bit_min == 4) {
        scale_periods<Fma, 2>(base + 2 * i, periods, c[s0], c[s0 | low]);
      } else {
        scale_periods<Fma, 4>(base + 2 * i, periods, c[s0], c[s0 | low]);
      }
      i = end;
    }
    scale_runs<Fma>(amps, c, bit_min, sel_of, body_hi, hi);
    return;
  }
  // One of the qubits is 0: the selector alternates per amplitude, the
  // other bit holds over runs of bit_other.
  const unsigned low_contrib = bit_a == 1 ? 1U : 2U;
  double* const base = reinterpret_cast<double*>(amps);
  std::size_t i = lo;
  if ((i & 1) != 0 && i < hi) {
    amps[i] = csmul<Fma>(d[sel_of(i)], amps[i]);
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
    if (j < run_end) amps[j] = csmul<Fma>(e0, amps[j]);  // j even
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
        lam, n, run, n, [&](std::size_t i) { return &m[3 * side(i)]; },
        [&](std::size_t j, __m256d* a) { a[0] = _mm256_loadu_pd(pp + 2 * j); });
  }
  const auto row_of = [&](std::size_t i) { return &m[2 * side(i)]; };
  if (bit == 1) {
    return bracket_walk<Fma, 2>(lam, n, run, n, row_of,
                                [&](std::size_t j, __m256d* a) {
                                  const __m256d v = _mm256_loadu_pd(pp + 2 * j);
                                  a[0] = dup_lo(v);
                                  a[1] = dup_hi(v);
                                });
  }
  return bracket_walk<Fma, 2>(lam, n, run, n, row_of,
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
  // Lanes (j, j+1) share a row over runs of bit_min, the rows switching
  // with bit_max; when one qubit is 0 the lanes take their two rows over
  // runs of the other bit.
  const std::size_t run = bit_min >= 2 ? bit_min : bit_max;
  const std::size_t outer = bit_min >= 2 ? bit_max : n;
  const auto sel = [=](std::size_t i) {
    return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
  };
  if (classify(m).shape == Shape::kDiagonal) {
    return bracket_walk<Fma, 1>(
        lam, n, run, outer, [&](std::size_t i) { return &m[5 * sel(i)]; },
        [&](std::size_t j, __m256d* a) { a[0] = _mm256_loadu_pd(pp + 2 * j); });
  }
  const auto row_of = [&](std::size_t i) { return &m[4 * sel(i)]; };
  if (bit_min == 1) {
    // Both lanes read the same four inputs: the qubit-0 pairs at base
    // and base | bit_max, each broadcast to both lanes.
    return bracket_walk<Fma, 4>(
        lam, n, run, outer, row_of, [&](std::size_t j, __m256d* a) {
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
  return bracket_walk<Fma, 4>(lam, n, run, outer, row_of,
                              [&](std::size_t j, __m256d* a) {
                                const std::size_t base = j & ~mask;
                                a[0] = _mm256_loadu_pd(pp + 2 * base);
                                a[1] = _mm256_loadu_pd(pp + 2 * (base | bit_a));
                                a[2] = _mm256_loadu_pd(pp + 2 * (base | bit_b));
                                a[3] = _mm256_loadu_pd(pp + 2 * (base | mask));
                              });
}

// ---------------------------------------------------------------------------
// Register-level batched gates: rows are contiguous columns, so every
// row is a straight column walk — the mini-GEMM inner dimension. The
// row walk runs inside this arm, so a gate resolves its arm once, and
// every coefficient is splatted before the walk: once per gate for a
// shared matrix, once per block of kEachBlock columns for per-column
// matrices.

namespace {

/// Columns whose per-column coefficients one splat table holds.
constexpr std::size_t kEachBlock = 32;

/// out[p * E + e] = entry e of the matrices of columns (2p, 2p + 1) of
/// [b0, b0 + count), for `count` <= kEachBlock; an odd last column is
/// splatted into both lanes. entry(b, e) reads entry e of column b.
template <std::size_t E, class Entry>
inline void splat_columns(Coef* out, std::size_t b0, std::size_t count,
                          Entry&& entry) noexcept {
  for (std::size_t b = 0; b < count; b += 2) {
    const std::size_t b1 = b + 1 < count ? b + 1 : b;
    for (std::size_t e = 0; e < E; ++e) {
      out[(b / 2) * E + e] = splat2(entry(b0 + b, e), entry(b0 + b1, e));
    }
  }
}

/// The 1q butterfly of columns starting at b (width w) of rows p0, p1.
template <bool Fma, class W>
inline void butterfly2(double* p0, double* p1, std::size_t b, W w,
                       const Coef* c) noexcept {
  const auto a0 = vload(w, p0 + 2 * b);
  const auto a1 = vload(w, p1 + 2 * b);
  vstore(p0 + 2 * b, vadd(cmul<Fma>(c[0], a0), cmul<Fma>(c[1], a1)));
  vstore(p1 + 2 * b, vadd(cmul<Fma>(c[2], a0), cmul<Fma>(c[3], a1)));
}

/// The 2q butterfly of columns starting at b of rows p[0..3], each
/// output row summed left to right.
template <bool Fma, class W>
inline void butterfly4(double* const* p, std::size_t b, W w,
                       const Coef* c) noexcept {
  const auto a0 = vload(w, p[0] + 2 * b);
  const auto a1 = vload(w, p[1] + 2 * b);
  const auto a2 = vload(w, p[2] + 2 * b);
  const auto a3 = vload(w, p[3] + 2 * b);
  for (std::size_t r = 0; r < 4; ++r) {
    const Coef* row = c + 4 * r;
    auto s = cmul<Fma>(row[0], a0);
    s = vadd(s, cmul<Fma>(row[1], a1));
    s = vadd(s, cmul<Fma>(row[2], a2));
    s = vadd(s, cmul<Fma>(row[3], a3));
    vstore(p[r] + 2 * b, s);
  }
}

inline double* dp(Complex* row) noexcept {
  return reinterpret_cast<double*>(row);
}

}  // namespace

template <bool Fma>
void batched_apply_mat2_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat2& m, int q) {
  const Coef c[4] = {splat(m[0]), splat(m[1]), splat(m[2]), splat(m[3])};
  for_each_row_pair(amps, dim, stride, q, [&](Complex* r0, Complex* r1) {
    for_each_col(count, [&](std::size_t b, auto w) {
      butterfly2<Fma>(dp(r0), dp(r1), b, w, c);
    });
  });
}

template <bool Fma>
void batched_apply_mat2_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat2* mats, int q) {
  Coef c[kEachBlock / 2 * 4];
  for (std::size_t b0 = 0; b0 < count; b0 += kEachBlock) {
    const std::size_t n = std::min(kEachBlock, count - b0);
    splat_columns<4>(c, b0, n, [&](std::size_t b, std::size_t e) {
      return mats[b][e];
    });
    for_each_row_pair(amps + b0, dim, stride, q,
                      [&](Complex* r0, Complex* r1) {
                        for_each_col(n, [&](std::size_t b, auto w) {
                          butterfly2<Fma>(dp(r0), dp(r1), b, w, c + 2 * b);
                        });
                      });
  }
}

template <bool Fma>
void batched_apply_mat4_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Mat4& m, int qb, int qa) {
  Coef c[16];
  for (std::size_t e = 0; e < 16; ++e) c[e] = splat(m[e]);
  for_each_row_quad(amps, dim, stride, qb, qa,
                    [&](Complex* r00, Complex* r01, Complex* r10,
                        Complex* r11) {
                      double* const p[4] = {dp(r00), dp(r01), dp(r10),
                                            dp(r11)};
                      for_each_col(count, [&](std::size_t b, auto w) {
                        butterfly4<Fma>(p, b, w, c);
                      });
                    });
}

template <bool Fma>
void batched_apply_mat4_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Mat4* mats, int qb, int qa) {
  // 16 entries per column pair: a narrower block keeps the table at the
  // size of the 1q ones.
  constexpr std::size_t kBlock = kEachBlock / 4;
  Coef c[kBlock / 2 * 16];
  for (std::size_t b0 = 0; b0 < count; b0 += kBlock) {
    const std::size_t n = std::min(kBlock, count - b0);
    splat_columns<16>(c, b0, n, [&](std::size_t b, std::size_t e) {
      return mats[b][e];
    });
    for_each_row_quad(amps + b0, dim, stride, qb, qa,
                      [&](Complex* r00, Complex* r01, Complex* r10,
                          Complex* r11) {
                        double* const p[4] = {dp(r00), dp(r01), dp(r10),
                                              dp(r11)};
                        for_each_col(n, [&](std::size_t b, auto w) {
                          butterfly4<Fma>(p, b, w, c + 8 * b);
                        });
                      });
  }
}

template <bool Fma>
void batched_apply_diag_avx2(Complex* amps, std::size_t dim,
                             std::size_t stride, std::size_t count,
                             const Complex* d, std::size_t bit_b,
                             std::size_t bit_a) {
  Coef c[4];
  for (unsigned s = 0; s < (bit_b == 0 ? 2U : 4U); ++s) c[s] = splat(d[s]);
  for_each_row_sel(amps, dim, stride, bit_b, bit_a,
                   [&](Complex* row, unsigned sel) {
                     scale_run<Fma>(row, c[sel], count);
                   });
}

template <bool Fma>
void batched_apply_diag_each_avx2(Complex* amps, std::size_t dim,
                                  std::size_t stride, std::size_t count,
                                  const Complex* const* ds, std::size_t bit_b,
                                  std::size_t bit_a) {
  // Table entry p * 4 + sel: selector sel of column pair p.
  Coef c[kEachBlock / 2 * 4];
  const std::size_t sels = bit_b == 0 ? 2 : 4;
  for (std::size_t b0 = 0; b0 < count; b0 += kEachBlock) {
    const std::size_t n = std::min(kEachBlock, count - b0);
    splat_columns<4>(c, b0, n, [&](std::size_t b, std::size_t e) {
      return ds[e < sels ? e : 0][b];
    });
    for_each_row_sel(amps + b0, dim, stride, bit_b, bit_a,
                     [&](Complex* row, unsigned sel) {
                       double* const p = dp(row);
                       for_each_col(n, [&](std::size_t b, auto w) {
                         vstore(p + 2 * b,
                                cmul<Fma>(c[2 * b + sel], vload(w, p + 2 * b)));
                       });
                     });
  }
}

// ---------------------------------------------------------------------------
// Batched adjoint steps: two columns per vector, so each column's bracket
// sum is a lane of its own. Rows walk in amplitude-index order, so a
// lane's sum runs in the order of the unbatched strict sum; on the FMA
// arm the even and odd indices go to separate sums, the unbatched lane
// accumulators' association.

namespace {

/// conj(l) * v on one complex lane, the 128-bit form of cconjmul.
template <bool Fma>
inline __m128d cconjmul(__m128d l, __m128d v) noexcept {
  const __m128d lr = _mm_movedup_pd(l);
  const __m128d li = _mm_permute_pd(l, 0x3);
  const __m128d sw = _mm_permute_pd(v, 0x1);
  if constexpr (Fma) {
    return _mm_fmsubadd_pd(lr, v, _mm_mul_pd(li, sw));
  }
  __m128d pr = _mm_mul_pd(lr, v);
  asm("" : "+x"(pr));
  const __m128d neg_li = _mm_xor_pd(li, _mm_set1_pd(-0.0));
  return _mm_addsub_pd(pr, _mm_mul_pd(neg_li, sw));
}

inline __m256d widen(__m256d v) noexcept { return v; }
inline __m256d widen(__m128d v) noexcept {
  return _mm256_insertf128_pd(_mm256_setzero_pd(), v, 0);
}

/// The bracket sums of up to kEachBlock columns, one vector per column
/// pair (an odd last column in the low lane).
template <bool Fma>
class ColumnSums {
 public:
  explicit ColumnSums(std::size_t count) noexcept : pairs_((count + 1) / 2) {
    for (std::size_t p = 0; p < pairs_; ++p) {
      even_[p] = _mm256_setzero_pd();
      odd_[p] = _mm256_setzero_pd();
    }
  }

  /// Adds conj(lam) * mu of amplitude index i for the columns starting
  /// at column b.
  template <class V>
  void add(std::size_t b, std::size_t i, V lam, V mu) noexcept {
    const __m256d p = widen(cconjmul<Fma>(lam, mu));
    __m256d& acc = Fma && (i & 1) != 0 ? odd_[b / 2] : even_[b / 2];
    acc = _mm256_add_pd(acc, p);
  }

  void store(Complex* out, std::size_t count) const noexcept {
    for (std::size_t p = 0; p < pairs_; ++p) {
      __m256d s = even_[p];
      if constexpr (Fma) s = _mm256_add_pd(s, odd_[p]);
      alignas(32) double v[4];
      _mm256_store_pd(v, s);
      out[2 * p] = Complex{v[0], v[1]};
      if (2 * p + 1 < count) out[2 * p + 1] = Complex{v[2], v[3]};
    }
  }

 private:
  std::size_t pairs_;
  __m256d even_[kEachBlock / 2];
  __m256d odd_[kEachBlock / 2];
};

}  // namespace

template <bool Fma>
void batched_bracket_1q_avx2(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat2* mats,
                             std::size_t step, bool diagonal, int q,
                             Complex* out) {
  const std::size_t bit = std::size_t{1} << q;
  Coef c[kEachBlock / 2 * 4];
  for (std::size_t b0 = 0; b0 < count; b0 += kEachBlock) {
    const std::size_t n = std::min(kEachBlock, count - b0);
    splat_columns<4>(c, b0, n, [&](std::size_t b, std::size_t e) {
      return mats[b * step][e];
    });
    ColumnSums<Fma> sums(n);
    for (std::size_t i = 0; i < dim; ++i) {
      const double* const l =
          reinterpret_cast<const double*>(lam + i * stride + b0);
      const std::size_t side = (i & bit) ? 1 : 0;
      if (diagonal) {
        const double* const p =
            reinterpret_cast<const double*>(psi + i * stride + b0);
        for_each_col(n, [&](std::size_t b, auto w) {
          sums.add(b, i, vload(w, l + 2 * b),
                   cmul<Fma>(c[2 * b + 3 * side], vload(w, p + 2 * b)));
        });
        continue;
      }
      const double* const p0 =
          reinterpret_cast<const double*>(psi + (i & ~bit) * stride + b0);
      const double* const p1 =
          reinterpret_cast<const double*>(psi + (i | bit) * stride + b0);
      for_each_col(n, [&](std::size_t b, auto w) {
        const Coef* const r = c + 2 * b + 2 * side;
        sums.add(b, i, vload(w, l + 2 * b),
                 vadd(cmul<Fma>(r[0], vload(w, p0 + 2 * b)),
                      cmul<Fma>(r[1], vload(w, p1 + 2 * b))));
      });
    }
    sums.store(out + b0, n);
  }
}

template <bool Fma>
void batched_bracket_2q_avx2(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat4* mats,
                             std::size_t step, bool diagonal, int qb, int qa,
                             Complex* out) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const std::size_t mask = bit_b | bit_a;
  // 16 entries per column pair, so a narrower block, as in
  // batched_apply_mat4_each_avx2.
  constexpr std::size_t kBlock = kEachBlock / 4;
  Coef c[kBlock / 2 * 16];
  for (std::size_t b0 = 0; b0 < count; b0 += kBlock) {
    const std::size_t n = std::min(kBlock, count - b0);
    splat_columns<16>(c, b0, n, [&](std::size_t b, std::size_t e) {
      return mats[b * step][e];
    });
    ColumnSums<Fma> sums(n);
    for (std::size_t i = 0; i < dim; ++i) {
      const double* const l =
          reinterpret_cast<const double*>(lam + i * stride + b0);
      const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
      if (diagonal) {
        const double* const p =
            reinterpret_cast<const double*>(psi + i * stride + b0);
        for_each_col(n, [&](std::size_t b, auto w) {
          sums.add(b, i, vload(w, l + 2 * b),
                   cmul<Fma>(c[8 * b + 5 * sel], vload(w, p + 2 * b)));
        });
        continue;
      }
      const std::size_t base = i & ~mask;
      const double* const a[4] = {
          reinterpret_cast<const double*>(psi + base * stride + b0),
          reinterpret_cast<const double*>(psi + (base | bit_a) * stride + b0),
          reinterpret_cast<const double*>(psi + (base | bit_b) * stride + b0),
          reinterpret_cast<const double*>(psi + (base | mask) * stride + b0)};
      for_each_col(n, [&](std::size_t b, auto w) {
        const Coef* const row = c + 8 * b + 4 * sel;
        auto mu = cmul<Fma>(row[0], vload(w, a[0] + 2 * b));
        mu = vadd(mu, cmul<Fma>(row[1], vload(w, a[1] + 2 * b)));
        mu = vadd(mu, cmul<Fma>(row[2], vload(w, a[2] + 2 * b)));
        mu = vadd(mu, cmul<Fma>(row[3], vload(w, a[3] + 2 * b)));
        sums.add(b, i, vload(w, l + 2 * b), mu);
      });
    }
    sums.store(out + b0, n);
  }
}

template <bool Fma>
void batched_adjoint_step_diag_1q_avx2(Complex* lam, Complex* psi,
                                       std::size_t dim, std::size_t stride,
                                       std::size_t count, const Mat2* md,
                                       const Mat2* dm, std::size_t step, int q,
                                       Complex* out) {
  const std::size_t bit = std::size_t{1} << q;
  // Table entry p * 2 + side: md's (dm's) diagonal entry `side` of
  // column pair p.
  Coef cm[kEachBlock];
  Coef cd[kEachBlock];
  for (std::size_t b0 = 0; b0 < count; b0 += kEachBlock) {
    const std::size_t n = std::min(kEachBlock, count - b0);
    splat_columns<2>(cm, b0, n, [&](std::size_t b, std::size_t e) {
      return md[b * step][3 * e];
    });
    splat_columns<2>(cd, b0, n, [&](std::size_t b, std::size_t e) {
      return dm[b * step][3 * e];
    });
    ColumnSums<Fma> sums(n);
    for (std::size_t i = 0; i < dim; ++i) {
      double* const l = dp(lam + i * stride + b0);
      double* const p = dp(psi + i * stride + b0);
      const std::size_t side = (i & bit) ? 1 : 0;
      for_each_col(n, [&](std::size_t b, auto w) {
        const Coef& d = cm[b + side];
        const auto ps = cmul<Fma>(d, vload(w, p + 2 * b));
        vstore(p + 2 * b, ps);
        const auto lv = vload(w, l + 2 * b);
        sums.add(b, i, lv, cmul<Fma>(cd[b + side], ps));
        vstore(l + 2 * b, cmul<Fma>(d, lv));
      });
    }
    sums.store(out + b0, n);
  }
}

// ---------------------------------------------------------------------------
namespace {

/// A Mat2's entries splatted: r[e] and i[e] hold entry e's real and
/// imaginary part in every lane.
struct Splat2 {
  __m256d r[4];
  __m256d i[4];
};

inline Splat2 splat2(const Mat2& m) noexcept {
  Splat2 s;
  for (std::size_t e = 0; e < 4; ++e) {
    s.r[e] = bc(m[e].real());
    s.i[e] = bc(m[e].imag());
  }
  return s;
}

/// acc = f * acc on one column: output row r is f[r][0] * (acc row 0) +
/// f[r][1] * (acc row 1), each acc row two complex lanes. cmul<false>
/// is the strict product, so the step is mat2_multiply's.
inline void fold_column(Mat2& acc, const Splat2& f) noexcept {
  auto* const a = reinterpret_cast<double*>(acc.data());
  const __m256d y0 = _mm256_loadu_pd(a);
  const __m256d y1 = _mm256_loadu_pd(a + 4);
  const __m256d row0 = _mm256_add_pd(cmul<false>(f.r[0], f.i[0], y0),
                                     cmul<false>(f.r[1], f.i[1], y1));
  const __m256d row1 = _mm256_add_pd(cmul<false>(f.r[2], f.i[2], y0),
                                     cmul<false>(f.r[3], f.i[3], y1));
  _mm256_storeu_pd(a, row0);
  _mm256_storeu_pd(a + 4, row1);
}

}  // namespace

void fold_mat2_avx2(Mat2* acc, const Mat2* fac, std::size_t step,
                    const std::uint32_t* cols, std::size_t n) {
  if (step == 0) {
    const Splat2 f = splat2(*fac);
    for (std::size_t k = 0; k < n; ++k) fold_column(acc[cols[k]], f);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t c = cols[k];
    fold_column(acc[c], splat2(fac[c * step]));
  }
}

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
template void batched_bracket_1q_avx2<false>(const Complex*, const Complex*,
                                             std::size_t, std::size_t,
                                             std::size_t, const Mat2*,
                                             std::size_t, bool, int, Complex*);
template void batched_bracket_1q_avx2<true>(const Complex*, const Complex*,
                                            std::size_t, std::size_t,
                                            std::size_t, const Mat2*,
                                            std::size_t, bool, int, Complex*);
template void batched_bracket_2q_avx2<false>(const Complex*, const Complex*,
                                             std::size_t, std::size_t,
                                             std::size_t, const Mat4*,
                                             std::size_t, bool, int, int,
                                             Complex*);
template void batched_bracket_2q_avx2<true>(const Complex*, const Complex*,
                                            std::size_t, std::size_t,
                                            std::size_t, const Mat4*,
                                            std::size_t, bool, int, int,
                                            Complex*);
template void batched_adjoint_step_diag_1q_avx2<false>(
    Complex*, Complex*, std::size_t, std::size_t, std::size_t, const Mat2*,
    const Mat2*, std::size_t, int, Complex*);
template void batched_adjoint_step_diag_1q_avx2<true>(
    Complex*, Complex*, std::size_t, std::size_t, std::size_t, const Mat2*,
    const Mat2*, std::size_t, int, Complex*);

}  // namespace arbiterq::sim::kernels::detail

#endif  // ARBITERQ_SIMD_AVX2
