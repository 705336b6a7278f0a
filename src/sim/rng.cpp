#include "sim/rng.hpp"

#include <cmath>

namespace mcan::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return uniform01() < p; }

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  // Inverse-CDF sampling: floor(log(1-u) / log(1-p)) with u ~ U[0,1).
  const double g = std::log1p(-uniform01()) / std::log1p(-p);
  if (!(g < 9.2e18)) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(g);
}

Rng Rng::fork() noexcept { return Rng{next()}; }

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) noexcept {
  // Two rounds of splitmix64 over a stream-offset root.  The odd multiplier
  // spreads consecutive stream indices across the whole seed space before
  // mixing, so (root, 0), (root, 1), ... land far apart.
  std::uint64_t x = root ^ (stream * 0xD1B54A32D192ED03ull + 0x8BB84B93962EACC9ull);
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace mcan::sim
