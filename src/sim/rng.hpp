// Deterministic random number generation for experiments.
//
// All randomness in the simulator flows through this generator so that every
// experiment is reproducible from a single seed.  The implementation is
// xoshiro256** seeded via splitmix64 — small, fast, and with well understood
// statistical quality; we deliberately avoid std::mt19937 so the bit stream
// is stable across standard library implementations.
#pragma once

#include <cstdint>
#include <limits>

namespace mcan::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  /// Inline, and a power-of-two span masks instead of dividing (the Sec.
  /// V-B study draws its ~59 M IDs from 2,048 values); the mask rejects the
  /// same draws and returns the same values as the division.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo,
                                      std::uint64_t hi) noexcept {
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next();  // full 64-bit range
    // Rejection sampling to remove modulo bias.  For a power-of-two span
    // kMax % span is span - 1, so the limit is 2^64 - span.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const bool pow2 = (span & (span - 1)) == 0;
    const std::uint64_t limit = pow2 ? 0 - span : kMax - kMax % span;
    std::uint64_t v = next();
    while (v >= limit) v = next();
    return lo + (pow2 ? v & (span - 1) : v % span);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Number of failures before the first success of a Bernoulli(p) process
  /// (geometric distribution, support {0, 1, ...}).  Lets rare-event
  /// schedules (e.g. bit-error injection) draw one number per *event*
  /// instead of one per trial.  p <= 0 returns the maximum representable
  /// gap; p >= 1 returns 0.
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// Derive an independent child generator (for per-node streams).
  [[nodiscard]] Rng fork() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Stateless analogue of Rng::fork() for parallel fan-out: hash-derive the
/// seed of stream `stream` under a `root` seed.  Unlike fork(), the result
/// depends only on (root, stream) — never on how many other streams were
/// derived before or on which thread asked — so a task grid seeded this way
/// is bit-identical regardless of worker count and scheduling order.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root,
                                        std::uint64_t stream) noexcept;

}  // namespace mcan::sim
