// Randomized kernel-equivalence suite for the CPU-dispatch layer
// (sim/kernels.hpp): every SIMD arm against the scalar reference, over
// the full gate set (including noise-biased angles and fully random
// matrices), adjoint brackets, 1..8-qubit registers, partial dispatch
// ranges, and the sample-batched register gates at batch widths
// 1 / 2 / odd / wider than a cache block. Under strict reproducibility
// (the default) the comparison is bitwise; with strict relaxed the FMA
// arm is held to a tight ULP-scale bound. The unit-permutation path
// (CX, SWAP) is checked against the dense kernel it replaces.

#include "arbiterq/sim/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {
namespace {

using circuit::GateKind;
using circuit::Mat2;
using circuit::Mat4;

/// Restores the dispatch flags on scope exit so one test's overrides
/// never leak into another (or into a different test binary ordering).
class FlagGuard {
 public:
  FlagGuard()
      : simd_(kernels::simd_runtime_enabled()),
        strict_(kernels::strict_reproducibility()) {}
  ~FlagGuard() {
    kernels::set_simd_runtime_enabled(simd_);
    kernels::set_strict_reproducibility(strict_);
  }

 private:
  bool simd_;
  bool strict_;
};

AmpVector random_state(int nq, math::Rng& rng) {
  AmpVector v(std::size_t{1} << nq);
  for (Complex& a : v) a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

std::array<double, 3> random_angles(math::Rng& rng) {
  // A coherent calibration bias folded into the polar angle — the shape
  // noisy plans feed the kernels — is just another random angle here.
  return {rng.uniform(-3.0, 3.0) + rng.uniform(-0.1, 0.1),
          rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
}

std::vector<Mat2> all_mat2(math::Rng& rng) {
  std::vector<Mat2> ms;
  for (GateKind k :
       {GateKind::kI, GateKind::kX, GateKind::kY, GateKind::kZ, GateKind::kH,
        GateKind::kS, GateKind::kSdg, GateKind::kSX, GateKind::kRX,
        GateKind::kRY, GateKind::kRZ, GateKind::kU3}) {
    ms.push_back(circuit::gate_matrix_1q(k, random_angles(rng)));
  }
  Mat2 r;
  for (Complex& c : r) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  ms.push_back(r);  // non-unitary: the kernels must not assume unitarity
  return ms;
}

std::vector<Mat4> all_mat4(math::Rng& rng) {
  std::vector<Mat4> ms;
  for (GateKind k : {GateKind::kCX, GateKind::kCZ, GateKind::kCRX,
                     GateKind::kCRY, GateKind::kCRZ, GateKind::kSwap}) {
    ms.push_back(circuit::gate_matrix_2q(k, random_angles(rng)));
  }
  Mat4 r;
  for (Complex& c : r) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  ms.push_back(r);
  return ms;
}

void expect_bitwise(const AmpVector& got, const AmpVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "amp " << i;
  }
}

void expect_ulp_close(const AmpVector& got, const AmpVector& want,
                      double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, tol) << "amp " << i;
  }
}

/// Applies `apply` to a copy of `init` under (a) forced scalar, (b) the
/// active dispatch arm, and checks bitwise equality when `strict`.
template <typename Apply>
void compare_arms(const AmpVector& init, bool strict, double tol,
                  const Apply& apply) {
  AmpVector ref = init;
  kernels::set_simd_runtime_enabled(false);
  apply(ref.data());
  AmpVector got = init;
  kernels::set_simd_runtime_enabled(true);
  apply(got.data());
  if (strict) {
    expect_bitwise(got, ref);
  } else {
    expect_ulp_close(got, ref, tol);
  }
}

/// The whole range [0, items) plus slices that start and end inside a
/// period of `period` items — mid-run, the way Statevector::dispatch
/// chunks can cut a walk.
std::vector<std::pair<std::size_t, std::size_t>> mid_period_ranges(
    std::size_t items, std::size_t period) {
  std::vector<std::pair<std::size_t, std::size_t>> out = {{0, items}};
  const std::size_t half = std::max<std::size_t>(period / 2, 1);
  for (const std::size_t lo : {std::size_t{1}, half + 1, period + half - 1}) {
    for (const std::size_t back : {std::size_t{1}, half, period + 1}) {
      if (back < items && lo < items - back) out.emplace_back(lo, items - back);
    }
  }
  return out;
}

TEST(KernelDispatch, KillSwitchForcesScalar) {
  FlagGuard guard;
  kernels::set_simd_runtime_enabled(false);
  EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kScalar);
  kernels::set_simd_runtime_enabled(true);
  if (kernels::simd_compiled() && kernels::simd_supported()) {
    EXPECT_NE(kernels::active_arch(), kernels::KernelArch::kScalar);
  } else {
    EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kScalar);
  }
}

TEST(KernelDispatch, StrictModeNeverSelectsFma) {
  FlagGuard guard;
  kernels::set_simd_runtime_enabled(true);
  kernels::set_strict_reproducibility(true);
  EXPECT_NE(kernels::active_arch(), kernels::KernelArch::kAvx2Fma);
  kernels::set_strict_reproducibility(false);
  if (kernels::simd_compiled() && kernels::simd_supported()) {
    EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kAvx2Fma);
  }
}

TEST(KernelDispatch, ArchNamesAreStable) {
  EXPECT_STREQ(kernels::arch_name(kernels::KernelArch::kScalar), "scalar");
}

class KernelEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    kernels::set_simd_runtime_enabled(true);
    kernels::set_strict_reproducibility(GetParam());
  }
  bool strict() const { return GetParam(); }
  /// Tolerance for the FMA arm: a handful of ULPs per arithmetic step
  /// on O(1) amplitudes.
  static constexpr double kTol = 1e-13;

  FlagGuard guard_;
};

TEST_P(KernelEquivalence, Mat2AllQubitsAndKinds) {
  math::Rng rng(101);
  for (int nq = 1; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t groups = init.size() >> 1;
    for (int q = 0; q < nq; ++q) {
      for (const Mat2& m : all_mat2(rng)) {
        compare_arms(init, strict(), kTol, [&](Complex* amps) {
          kernels::apply_mat2_range(amps, m, q, 0, groups);
        });
      }
    }
  }
}

TEST_P(KernelEquivalence, Diag2AllBits) {
  math::Rng rng(102);
  for (int nq = 1; nq <= 10; ++nq) {
    const AmpVector init = random_state(nq, rng);
    for (int q = 0; q < nq; ++q) {
      const Complex d[2] = {{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
                            {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}};
      compare_arms(init, strict(), kTol, [&](Complex* amps) {
        kernels::apply_diag_range(amps, d, 0, std::size_t{1} << q, 0,
                                  init.size());
      });
    }
  }
}

TEST_P(KernelEquivalence, Mat4AllQubitPairsAndKinds) {
  math::Rng rng(103);
  for (int nq = 2; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t groups = init.size() >> 2;
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        for (const Mat4& m : all_mat4(rng)) {
          compare_arms(init, strict(), kTol, [&](Complex* amps) {
            kernels::apply_mat4_range(amps, m, qb, qa, 0, groups);
          });
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, Diag4AllBitPairs) {
  math::Rng rng(104);
  for (int nq = 2; nq <= 10; ++nq) {
    const AmpVector init = random_state(nq, rng);
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        Complex d[4];
        for (Complex& c : d) {
          c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        compare_arms(init, strict(), kTol, [&](Complex* amps) {
          kernels::apply_diag_range(amps, d, std::size_t{1} << qb,
                                    std::size_t{1} << qa, 0, init.size());
        });
      }
    }
  }
}

TEST_P(KernelEquivalence, PartialRangesExerciseHeadsAndTails) {
  // parallel_for hands the kernels arbitrary [lo, hi) chunks; the SIMD
  // heads/tails must land on exactly the same amplitudes as scalar.
  math::Rng rng(105);
  const int nq = 7;
  const AmpVector init = random_state(nq, rng);
  for (int rep = 0; rep < 24; ++rep) {
    const int q = static_cast<int>(rng.uniform_int(nq));
    const Mat2 m = circuit::gate_matrix_1q(GateKind::kU3, random_angles(rng));
    const std::size_t groups = init.size() >> 1;
    std::size_t lo = rng.uniform_int(groups);
    std::size_t hi = rng.uniform_int(groups + 1);
    if (lo > hi) std::swap(lo, hi);
    compare_arms(init, strict(), kTol, [&](Complex* amps) {
      kernels::apply_mat2_range(amps, m, q, lo, hi);
    });
    const std::size_t dlo = rng.uniform_int(init.size());
    const Complex d[2] = {{0.6, -0.8}, {0.0, 1.0}};
    compare_arms(init, strict(), kTol, [&](Complex* amps) {
      kernels::apply_diag_range(amps, d, 0, std::size_t{1} << q, dlo,
                                init.size());
    });
  }
}

TEST_P(KernelEquivalence, DiagonalWalksMidPeriodRanges) {
  // Every 1q diagonal (qb = -1) and 2q diagonal on 1-10 qubits over
  // [lo, hi) slices that start and end inside a selector period, as
  // Statevector::dispatch chunks may: against scalar, and on the active
  // arm a split walk must equal the whole walk bit for bit.
  math::Rng rng(109);
  for (int nq = 1; nq <= 10; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t dim = init.size();
    Complex d[4];
    for (Complex& c : d) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (int qb = -1; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        const std::size_t bit_b = qb < 0 ? 0 : std::size_t{1} << qb;
        const std::size_t bit_a = std::size_t{1} << qa;
        const std::size_t bit_min =
            bit_b == 0 ? bit_a : std::min(bit_a, bit_b);
        for (const auto& [lo, hi] : mid_period_ranges(dim, 2 * bit_min)) {
          compare_arms(init, strict(), kTol, [&](Complex* amps) {
            kernels::apply_diag_range(amps, d, bit_b, bit_a, lo, hi);
          });
          AmpVector whole = init;
          kernels::apply_diag_range(whole.data(), d, bit_b, bit_a, 0, dim);
          AmpVector split = init;
          kernels::apply_diag_range(split.data(), d, bit_b, bit_a, 0, lo);
          kernels::apply_diag_range(split.data(), d, bit_b, bit_a, lo, hi);
          kernels::apply_diag_range(split.data(), d, bit_b, bit_a, hi, dim);
          expect_bitwise(split, whole);
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, ButterflySplitsMatchWholeWalk) {
  // The FMA arm's range-edge groups take the vector lanes' arithmetic:
  // a 1q or 2q butterfly walked in two pieces equals one whole walk on
  // the active arm bit for bit, on every qubit and pair.
  math::Rng rng(112);
  for (int nq = 1; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const Mat2 m2 = circuit::gate_matrix_1q(GateKind::kU3, random_angles(rng));
    const Mat4 m4 = circuit::gate_matrix_2q(GateKind::kCRX, random_angles(rng));
    for (int qb = 0; qb < nq; ++qb) {
      const std::size_t groups = init.size() >> 1;
      for (const auto& [lo, hi] : mid_period_ranges(groups, 2)) {
        AmpVector whole = init;
        kernels::apply_mat2_range(whole.data(), m2, qb, 0, groups);
        AmpVector split = init;
        kernels::apply_mat2_range(split.data(), m2, qb, 0, lo);
        kernels::apply_mat2_range(split.data(), m2, qb, lo, hi);
        kernels::apply_mat2_range(split.data(), m2, qb, hi, groups);
        expect_bitwise(split, whole);
      }
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        const std::size_t groups4 = init.size() >> 2;
        for (const auto& [lo, hi] : mid_period_ranges(groups4, 2)) {
          AmpVector whole = init;
          kernels::apply_mat4_range(whole.data(), m4, qb, qa, 0, groups4);
          AmpVector split = init;
          kernels::apply_mat4_range(split.data(), m4, qb, qa, 0, lo);
          kernels::apply_mat4_range(split.data(), m4, qb, qa, lo, hi);
          kernels::apply_mat4_range(split.data(), m4, qb, qa, hi, groups4);
          expect_bitwise(split, whole);
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, BracketsMatchScalarReference) {
  math::Rng rng(106);
  // The FMA bracket reassociates an n-term reduction into vector lanes;
  // the bound scales with the register, hence the looser tolerance.
  const double tol = 1e-10;
  for (int nq = 1; nq <= 10; ++nq) {
    const AmpVector lam = random_state(nq, rng);
    const AmpVector psi = random_state(nq, rng);
    for (int q = 0; q < nq; ++q) {
      for (const Mat2& m : all_mat2(rng)) {
        kernels::set_simd_runtime_enabled(false);
        const Complex ref =
            kernels::bracket_1q(lam.data(), psi.data(), psi.size(), m, q);
        kernels::set_simd_runtime_enabled(true);
        const Complex got =
            kernels::bracket_1q(lam.data(), psi.data(), psi.size(), m, q);
        if (strict()) {
          EXPECT_EQ(got, ref);
        } else {
          EXPECT_NEAR(std::abs(got - ref), 0.0, tol);
        }
      }
    }
    if (nq < 2) continue;
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        for (const Mat4& m : all_mat4(rng)) {
          kernels::set_simd_runtime_enabled(false);
          const Complex ref = kernels::bracket_2q(lam.data(), psi.data(),
                                                  psi.size(), m, qb, qa);
          kernels::set_simd_runtime_enabled(true);
          const Complex got = kernels::bracket_2q(lam.data(), psi.data(),
                                                  psi.size(), m, qb, qa);
          if (strict()) {
            EXPECT_EQ(got, ref);
          } else {
            EXPECT_NEAR(std::abs(got - ref), 0.0, tol);
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, BatchedGatesMatchPerColumnScalar) {
  // Every register-level batched gate against the unbatched kernels
  // applied column by column, on every qubit and qubit pair of 1-10
  // qubit registers, at widths 1-5, 31-33 (around a 128-bit odd lane
  // and a splat-table block) and 40. The register carries two columns
  // past the width, which must stay untouched. Scalar per-column runs
  // bound the arm (bitwise when strict); per-column runs on the active
  // arm itself must match bit for bit on every arm.
  math::Rng rng(107);
  const std::size_t widths[] = {1, 2, 3, 4, 5, 31, 32, 33, 40};
  for (int nq = 1; nq <= 10; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    for (const std::size_t count : widths) {
      // Wide registers only on small qubit counts: the walks are the
      // same, and a 10-qubit register at width 40 adds only time.
      if (nq > 6 && count > 5 && count != 32 && count != 33) continue;
      if (nq > 8 && count != 1 && count != 4 && count != 5) continue;
      // Full width (a power-of-two stride walks the register as one
      // unbatched register) and two untouched trailing columns.
      for (const std::size_t stride : {count, count + 2}) {
        AmpVector base(dim * stride);
        for (Complex& a : base) {
          a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        const Mat2 m2 =
            circuit::gate_matrix_1q(GateKind::kU3, random_angles(rng));
        const Mat4 m4 =
            circuit::gate_matrix_2q(GateKind::kCRX, random_angles(rng));
        std::vector<Mat2> m2s;
        std::vector<Mat4> m4s;
        for (std::size_t b = 0; b < count; ++b) {
          m2s.push_back(circuit::gate_matrix_1q(
              b % 3 == 0 ? GateKind::kRZ : GateKind::kU3, random_angles(rng)));
          m4s.push_back(circuit::gate_matrix_2q(
              b % 2 == 0 ? GateKind::kCRZ : GateKind::kCRX,
              random_angles(rng)));
        }
        Complex d[4];
        for (Complex& c : d) {
          c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        std::vector<Complex> ds_store(4 * count);
        for (Complex& c : ds_store) {
          c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        const Complex* ds[4] = {ds_store.data(), ds_store.data() + count,
                                ds_store.data() + 2 * count,
                                ds_store.data() + 3 * count};

        // Runs `per_column(col, b)` on each of the first `count` columns
        // of a copy of base, column by column.
        auto per_column_ref = [&](auto&& per_column) {
          AmpVector ref = base;
          AmpVector col(dim);
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t i = 0; i < dim; ++i) col[i] = ref[i * stride + b];
            per_column(col.data(), b);
            for (std::size_t i = 0; i < dim; ++i) ref[i * stride + b] = col[i];
          }
          return ref;
        };
        auto check = [&](const char* what, auto&& batched, auto&& per_column) {
          AmpVector got = base;
          batched(got.data());
          const AmpVector same_arm = per_column_ref(per_column);
          kernels::set_simd_runtime_enabled(false);
          const AmpVector ref = per_column_ref(per_column);
          kernels::set_simd_runtime_enabled(true);
          std::size_t bad = 0;
          for (std::size_t i = 0; i < got.size(); ++i) {
            const std::size_t col = i % stride;
            const bool exact = strict() || col >= count;
            if (got[i] == same_arm[i] &&
                (exact ? got[i] == ref[i]
                       : std::abs(got[i] - ref[i]) <= kTol)) {
              continue;
            }
            if (bad++ == 0) {
              ADD_FAILURE() << what << " nq " << nq << " width " << count
                            << " stride " << stride << " row " << i / stride
                            << " col " << col << ": got " << got[i]
                            << " same arm " << same_arm[i] << " scalar "
                            << ref[i];
            }
          }
          EXPECT_EQ(bad, 0U) << what << " nq " << nq << " width " << count
                             << " stride " << stride;
        };

        for (int q = 0; q < nq; ++q) {
          const std::size_t bit = std::size_t{1} << q;
          check(
              "mat2",
              [&](Complex* amps) {
                kernels::batched_apply_mat2(amps, dim, stride, count, m2, q);
              },
              [&](Complex* c, std::size_t) {
                kernels::apply_mat2_range(c, m2, q, 0, dim / 2);
              });
          check(
              "mat2_each",
              [&](Complex* amps) {
                kernels::batched_apply_mat2_each(amps, dim, stride, count,
                                                 m2s.data(), q);
              },
              [&](Complex* c, std::size_t b) {
                kernels::apply_mat2_range(c, m2s[b], q, 0, dim / 2);
              });
          check(
              "diag 1q",
              [&](Complex* amps) {
                kernels::batched_apply_diag(amps, dim, stride, count, d, 0,
                                            bit);
              },
              [&](Complex* c, std::size_t) {
                kernels::apply_diag_range(c, d, 0, bit, 0, dim);
              });
          check(
              "diag_each 1q",
              [&](Complex* amps) {
                kernels::batched_apply_diag_each(amps, dim, stride, count,
                                                 ds, 0, bit);
              },
              [&](Complex* c, std::size_t b) {
                const Complex db[2] = {ds[0][b], ds[1][b]};
                kernels::apply_diag_range(c, db, 0, bit, 0, dim);
              });
          for (int qa = 0; qa < nq; ++qa) {
            if (qa == q) continue;
            const std::size_t bit_a = std::size_t{1} << qa;
            check(
                "mat4",
                [&](Complex* amps) {
                  kernels::batched_apply_mat4(amps, dim, stride, count, m4, q,
                                              qa);
                },
                [&](Complex* c, std::size_t) {
                  kernels::apply_mat4_range(c, m4, q, qa, 0, dim / 4);
                });
            check(
                "mat4_each",
                [&](Complex* amps) {
                  kernels::batched_apply_mat4_each(amps, dim, stride, count,
                                                   m4s.data(), q, qa);
                },
                [&](Complex* c, std::size_t b) {
                  kernels::apply_mat4_range(c, m4s[b], q, qa, 0, dim / 4);
                });
            check(
                "diag 2q",
                [&](Complex* amps) {
                  kernels::batched_apply_diag(amps, dim, stride, count, d, bit,
                                              bit_a);
                },
                [&](Complex* c, std::size_t) {
                  kernels::apply_diag_range(c, d, bit, bit_a, 0, dim);
                });
            check(
                "diag_each 2q",
                [&](Complex* amps) {
                  kernels::batched_apply_diag_each(amps, dim, stride, count, ds,
                                                   bit, bit_a);
                },
                [&](Complex* c, std::size_t b) {
                  const Complex db[4] = {ds[0][b], ds[1][b], ds[2][b],
                                         ds[3][b]};
                  kernels::apply_diag_range(c, db, bit, bit_a, 0, dim);
                });
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, AdjointDiagStepMatchesSeparateKernels) {
  // The fused reverse-sweep step of a diagonal 1q gate against the
  // three kernels it replaces, on every qubit of 1-10 qubit registers:
  // bitwise on the active arm (both registers and the bracket), and
  // against scalar bitwise when strict, within the bracket bound when
  // not.
  math::Rng rng(113);
  for (int nq = 1; nq <= 10; ++nq) {
    const AmpVector lam0 = random_state(nq, rng);
    const AmpVector psi0 = random_state(nq, rng);
    const std::size_t n = psi0.size();
    for (int q = 0; q < nq; ++q) {
      const Mat2 md = circuit::mat2_adjoint(
          circuit::gate_matrix_1q(GateKind::kRZ, random_angles(rng)));
      const Mat2 dm = {Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
                       Complex{0.0, 0.0}, Complex{0.0, 0.0},
                       Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}};
      const Complex d[2] = {md[0], md[3]};
      const std::size_t bit = std::size_t{1} << q;
      auto separate = [&](AmpVector& lam, AmpVector& psi) {
        kernels::apply_diag_range(psi.data(), d, 0, bit, 0, n);
        const Complex ip =
            kernels::bracket_1q(lam.data(), psi.data(), n, dm, q);
        kernels::apply_diag_range(lam.data(), d, 0, bit, 0, n);
        return ip;
      };
      AmpVector lam = lam0;
      AmpVector psi = psi0;
      const Complex got =
          kernels::adjoint_step_diag_1q(lam.data(), psi.data(), n, md, dm, q);
      AmpVector lam_sep = lam0;
      AmpVector psi_sep = psi0;
      EXPECT_EQ(got, separate(lam_sep, psi_sep)) << "nq " << nq << " q " << q;
      expect_bitwise(lam, lam_sep);
      expect_bitwise(psi, psi_sep);
      kernels::set_simd_runtime_enabled(false);
      AmpVector lam_ref = lam0;
      AmpVector psi_ref = psi0;
      const Complex ref = kernels::adjoint_step_diag_1q(
          lam_ref.data(), psi_ref.data(), n, md, dm, q);
      kernels::set_simd_runtime_enabled(true);
      if (strict()) {
        EXPECT_EQ(got, ref) << "nq " << nq << " q " << q;
        expect_bitwise(lam, lam_ref);
        expect_bitwise(psi, psi_ref);
      } else {
        EXPECT_NEAR(std::abs(got - ref), 0.0, 1e-10);
        expect_ulp_close(lam, lam_ref, kTol);
        expect_ulp_close(psi, psi_ref, kTol);
      }
    }
  }
}

TEST_P(KernelEquivalence, FullCircuitEvolutionViaStatevector) {
  // End-to-end through Statevector's own dispatch (diag detection,
  // chunking): a deep random evolution stays equivalent across arms.
  math::Rng rng(108);
  for (int nq = 2; nq <= 6; nq += 2) {
    Statevector ref(nq);
    Statevector got(nq);
    std::vector<std::pair<Mat2, int>> ops1;
    std::vector<std::pair<Mat4, std::pair<int, int>>> ops2;
    math::Rng mrng(200 + static_cast<std::uint64_t>(nq));
    for (int i = 0; i < 30; ++i) {
      ops1.emplace_back(all_mat2(mrng)[mrng.uniform_int(13)],
                        static_cast<int>(mrng.uniform_int(nq)));
      int qb = static_cast<int>(mrng.uniform_int(nq));
      int qa = qb;
      while (qa == qb) qa = static_cast<int>(mrng.uniform_int(nq));
      ops2.emplace_back(all_mat4(mrng)[mrng.uniform_int(7)],
                        std::make_pair(qb, qa));
    }
    kernels::set_simd_runtime_enabled(false);
    for (int i = 0; i < 30; ++i) {
      ref.apply_mat2(ops1[static_cast<std::size_t>(i)].first,
                     ops1[static_cast<std::size_t>(i)].second);
      ref.apply_mat4(ops2[static_cast<std::size_t>(i)].first,
                     ops2[static_cast<std::size_t>(i)].second.first,
                     ops2[static_cast<std::size_t>(i)].second.second);
    }
    kernels::set_simd_runtime_enabled(true);
    for (int i = 0; i < 30; ++i) {
      got.apply_mat2(ops1[static_cast<std::size_t>(i)].first,
                     ops1[static_cast<std::size_t>(i)].second);
      got.apply_mat4(ops2[static_cast<std::size_t>(i)].first,
                     ops2[static_cast<std::size_t>(i)].second.first,
                     ops2[static_cast<std::size_t>(i)].second.second);
    }
    for (std::size_t i = 0; i < ref.dim(); ++i) {
      if (strict()) {
        EXPECT_EQ(got.amplitudes()[i], ref.amplitudes()[i]) << "amp " << i;
      } else {
        EXPECT_NEAR(std::abs(got.amplitudes()[i] - ref.amplitudes()[i]), 0.0,
                    1e-10)
            << "amp " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unit-permutation fast path

Mat4 perm_matrix(const kernels::Perm4& src) {
  Mat4 m{};
  for (std::size_t r = 0; r < 4; ++r) m[4 * r + src[r]] = 1.0;
  return m;
}

/// CX (control qb), CX the other way round (control qa), SWAP, and a
/// non-involutive 4-cycle.
std::vector<Mat4> unit_permutations() {
  return {circuit::gate_matrix_2q(GateKind::kCX, {}), perm_matrix({0, 3, 2, 1}),
          circuit::gate_matrix_2q(GateKind::kSwap, {}),
          perm_matrix({1, 2, 3, 0})};
}

/// A random state, |0...0>, and the H-product state (real amplitudes
/// whose imaginary parts are exact zeros).
std::vector<AmpVector> permutation_states(int nq, math::Rng& rng) {
  const std::size_t dim = std::size_t{1} << nq;
  AmpVector zero(dim);
  zero[0] = 1.0;
  return {random_state(nq, rng), zero,
          AmpVector(dim, Complex{std::pow(2.0, -0.5 * nq), 0.0})};
}

TEST(PermutationKernels, ClassifierShapes) {
  for (const Mat4& m : unit_permutations()) {
    EXPECT_EQ(kernels::classify(m).shape, kernels::Shape::kPermutation);
  }
  EXPECT_EQ(kernels::classify(perm_matrix({1, 2, 3, 0})).src,
            (kernels::Perm4{1, 2, 3, 0}));
  EXPECT_EQ(kernels::classify(perm_matrix({0, 1, 2, 3})).shape,
            kernels::Shape::kDiagonal);
  EXPECT_EQ(kernels::classify(circuit::gate_matrix_2q(GateKind::kCZ, {})).shape,
            kernels::Shape::kDiagonal);
  EXPECT_EQ(
      kernels::classify(circuit::gate_matrix_2q(GateKind::kCRX, {0.3, 0, 0}))
          .shape,
      kernels::Shape::kDense);
  for (const Complex entry : {Complex{0.0, 1.0}, Complex{1.0, 0.5}}) {
    Mat4 scaled = perm_matrix({1, 0, 3, 2});
    scaled[1] = entry;  // not exactly (1, 0)
    EXPECT_EQ(kernels::classify(scaled).shape, kernels::Shape::kDense);
  }
  Mat4 doubled = perm_matrix({1, 0, 3, 2});
  doubled[4 * 1 + 1] = 1.0;  // two nonzeros in one row
  EXPECT_EQ(kernels::classify(doubled).shape, kernels::Shape::kDense);
  EXPECT_EQ(kernels::classify(perm_matrix({1, 1, 3, 2})).shape,
            kernels::Shape::kDense);  // a repeated column
  EXPECT_EQ(kernels::classify(circuit::gate_matrix_1q(GateKind::kRZ, {0.4}))
                .shape,
            kernels::Shape::kDiagonal);
  const auto x = kernels::classify(circuit::gate_matrix_1q(GateKind::kX, {}));
  EXPECT_EQ(x.shape, kernels::Shape::kPermutation);
  EXPECT_EQ(x.src, (std::array<std::uint8_t, 2>{1, 0}));
  EXPECT_EQ(kernels::classify(circuit::gate_matrix_1q(GateKind::kY, {})).shape,
            kernels::Shape::kDense);
}

TEST(PermutationKernels, StatevectorMatchesDenseKernel) {
  math::Rng rng(301);
  for (int nq = 2; nq <= 8; ++nq) {
    for (const AmpVector& init : permutation_states(nq, rng)) {
      for (int qb = 0; qb < nq; ++qb) {
        for (int qa = 0; qa < nq; ++qa) {
          if (qa == qb) continue;
          for (const Mat4& m : unit_permutations()) {
            AmpVector want = init;
            kernels::apply_mat4_range(want.data(), m, qb, qa, 0,
                                      init.size() >> 2);
            Statevector sv(nq);
            sv.load_strided(init.data(), 1);
            sv.apply_mat4(m, qb, qa);
            expect_bitwise(sv.amplitudes(), want);
          }
        }
      }
    }
  }
}

TEST(PermutationKernels, MidRunRangesMatchDenseKernel) {
  // [lo, hi) group slices that start and end inside a run of 2^q_lo
  // groups, on every pair of 2-10 qubit registers.
  math::Rng rng(304);
  for (int nq = 2; nq <= 10; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t groups = init.size() >> 2;
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        const std::size_t run = std::size_t{1} << std::min(qa, qb);
        for (const Mat4& m : unit_permutations()) {
          const auto src = kernels::classify(m).src;
          for (const auto& [lo, hi] : mid_period_ranges(groups, 2 * run)) {
            AmpVector want = init;
            kernels::apply_mat4_range(want.data(), m, qb, qa, lo, hi);
            AmpVector got = init;
            kernels::apply_perm4_range(got.data(), src, qb, qa, lo, hi);
            expect_bitwise(got, want);
          }
        }
      }
    }
  }
}

TEST(PermutationKernels, ThreadSplitStatevectorMatchesDenseKernel) {
  // 2^15 amplitudes: twice the default grain of 2q groups, so dispatch
  // hands the permutation kernel two chunks on a 2-thread policy.
  constexpr int kQubits = 15;
  math::Rng rng(302);
  const AmpVector init = random_state(kQubits, rng);
  for (const auto& [qb, qa] : {std::pair{0, 1}, std::pair{1, 0},
                               std::pair{0, 14}, std::pair{14, 3},
                               std::pair{7, 8}}) {
    for (const Mat4& m : unit_permutations()) {
      AmpVector want = init;
      kernels::apply_mat4_range(want.data(), m, qb, qa, 0, init.size() >> 2);
      Statevector sv(kQubits);
      sv.set_exec_policy(exec::ExecPolicy{2, 0});
      sv.load_strided(init.data(), 1);
      sv.apply_mat4(m, qb, qa);
      expect_bitwise(sv.amplitudes(), want);
    }
  }
}

TEST(PermutationKernels, BatchedMatchesDenseKernelPerColumn) {
  // (batch, width): widths 1 / 2 / odd / above kBatchBlock, and a width
  // below the batch whose trailing columns must stay untouched.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {2, 2}, {5, 5}, {kBatchBlock + 8, kBatchBlock + 8}, {7, 3}};
  math::Rng rng(303);
  for (int nq = 2; nq <= 8; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    for (const auto& [batch, width] : shapes) {
      // Column b starts in one of the three permutation states.
      std::vector<AmpVector> cols;
      for (std::size_t b = 0; b < batch; ++b) {
        cols.push_back(permutation_states(nq, rng)[b % 3]);
      }
      auto load = [&](BatchedStatevector& st) {
        st.configure(nq, batch);
        for (std::size_t i = 0; i < dim; ++i) {
          for (std::size_t b = 0; b < batch; ++b) st.row(i)[b] = cols[b][i];
        }
      };
      auto expect_cols = [&](const BatchedStatevector& st,
                             const std::vector<const Mat4*>& per_col, int qb,
                             int qa) {
        for (std::size_t b = 0; b < batch; ++b) {
          AmpVector want = cols[b];
          if (b < per_col.size()) {
            kernels::apply_mat4_range(want.data(), *per_col[b], qb, qa, 0,
                                      dim >> 2);
          }
          for (std::size_t i = 0; i < dim; ++i) {
            EXPECT_EQ(st.row(i)[b], want[i])
                << "nq " << nq << " batch " << batch << " width " << width
                << " col " << b << " amp " << i;
          }
        }
      };
      const std::vector<Mat4> perms = unit_permutations();
      BatchedStatevector st;
      for (int qb = 0; qb < nq; ++qb) {
        for (int qa = 0; qa < nq; ++qa) {
          if (qa == qb) continue;
          for (const Mat4& m : perms) {
            load(st);
            st.apply_mat4_all(m, qb, qa, width);
            expect_cols(st, std::vector<const Mat4*>(width, &m), qb, qa);
          }
          if (width != batch) continue;
          // Per-column matrices: runs of one permutation, a switch to
          // another, and a dense column between them.
          const Mat4 crx =
              circuit::gate_matrix_2q(GateKind::kCRX, random_angles(rng));
          std::vector<Mat4> mats;
          std::vector<const Mat4*> refs;
          for (std::size_t b = 0; b < batch; ++b) {
            mats.push_back(b % 5 == 4 ? crx : perms[(b / 2) % perms.size()]);
          }
          for (const Mat4& m : mats) refs.push_back(&m);
          load(st);
          st.apply_mat4_each(mats.data(), qb, qa);
          expect_cols(st, refs, qb, qa);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StrictAndFast, KernelEquivalence,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "strict" : "fast";
                         });

}  // namespace
}  // namespace arbiterq::sim
