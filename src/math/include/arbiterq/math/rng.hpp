#pragma once
// Deterministic, splittable random number generator (xoshiro256**).
// Every stochastic component in the stack (dataset synthesis, weight
// initialization, shot sampling, trajectory noise) draws from an Rng seeded
// through a named split so experiments are reproducible bit-for-bit and
// independent components never share a stream.

#include <cstdint>
#include <string_view>

namespace arbiterq::math {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Derive an independent stream, e.g. rng.split("qpu-3/shots").
  Rng split(std::string_view label) const noexcept;
  Rng split(std::uint64_t salt) const noexcept;

  // The per-draw hot path (next_u64, uniform, uniform_int, bernoulli)
  // is inline: trajectory sampling makes thousands of draws per call.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the 53 high bits of next_u64().
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n); n must be > 0. Rejection-free modulo is
  /// fine here: n is tiny relative to 2^64 at every call site (Pauli
  /// picks, qubit indices, shuffles), so the bias is negligible.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    return next_u64() % n;
  }
  /// Standard normal via Box-Muller.
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]);
  /// consumes one draw only when 0 < p < 1.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace arbiterq::math
