#pragma once
// Counter-seeded random number generation.
//
// Reproducibility requirement: distributed RandQB_EI must draw the *same*
// Gaussian block Omega_k on every rank regardless of the number of ranks, so
// all random streams are derived from (seed, stream-id, counter) rather than
// from shared mutable generator state.

#include <cstdint>
#include <vector>

namespace lra {

/// SplitMix64-based counter RNG. Cheap, statistically solid for simulation
/// purposes, and stateless across ranks: value(i) depends only on (seed, i).
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform integer in [0, bound).
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;
  /// Standard normal via Box-Muller (caches the second deviate).
  double gaussian() noexcept;

  /// Raw 64-bit output (advances the counter).
  std::uint64_t next() noexcept;

  /// Skip the stream to an absolute counter position.
  void seek(std::uint64_t counter) noexcept;
  /// The counter position: raw outputs drawn since position 0 (or since the
  /// position given to seek()).
  std::uint64_t counter() const noexcept { return counter_; }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
  double cached_gauss_ = 0.0;
  bool has_cached_gauss_ = false;
};

/// Fill `out` with iid standard normals from stream (seed, stream).
void fill_gaussian(std::uint64_t seed, std::uint64_t stream,
                   std::vector<double>& out);

}  // namespace lra
