#include "arbiterq/math/rng.hpp"

#include <cmath>
#include <numbers>

namespace arbiterq::math {

namespace {

// splitmix64: seeds the xoshiro state and hashes split labels.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& st : state_) st = splitmix64(s);
}

Rng Rng::split(std::string_view label) const noexcept {
  return split(fnv1a(label));
}

Rng Rng::split(std::uint64_t salt) const noexcept {
  // Mix current state with the salt into a fresh seed; const_cast-free by
  // hashing a copy of the state words.
  std::uint64_t mix = salt;
  std::uint64_t acc = splitmix64(mix);
  for (std::uint64_t st : state_) {
    std::uint64_t t = st ^ acc;
    acc ^= splitmix64(t);
  }
  return Rng(acc);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

}  // namespace arbiterq::math
