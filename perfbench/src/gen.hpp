// Seeded input generation for the benchmark's four workloads.
//
// Every input the program receives is a pure function of (seed, index) and
// of this file alone: the generator uses its own SplitMix64 stream and its
// own double formatting, never the library's RNG or a standard-library
// distribution, so a change to the library cannot silently change what the
// benchmark feeds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace perfbench {

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, and fully specified.
class Rng {
 public:
  explicit Rng(std::uint64_t state) : state_(state) {}
  /// An independent stream for (seed, stream id, index).
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id,
                    std::uint64_t index = 0);

  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Log-uniform in [lo, hi), lo > 0.
  double log_uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

/// whatif_batch: `portfolios` heavy portfolios (2-8 services, bottleneck
/// offered loads ~2k-20k Erlangs, drawn so the total work barely depends
/// on the seed) crossed with `losses`
/// log-spaced target losses in [1e-4, 1e-1] and `scales` workload scales in
/// [0.5, 2.0].
/// Cell order: portfolio slowest, then scale, then loss (fastest).
struct WhatIfShape {
  std::size_t portfolios = 0;
  std::size_t losses = 0;
  std::size_t scales = 0;
  std::size_t cells() const { return portfolios * losses * scales; }
};
std::vector<vmcons::core::ModelInputs> whatif_cells(std::uint64_t seed,
                                                    const WhatIfShape& shape);

/// stream_sweep / sharded_sweep: one light scenario (2-4 services, tens of
/// Erlangs) as a pure function of (seed, index), so any cell can be rebuilt
/// for the oracle without keeping the store's inputs in memory.
vmcons::core::ModelInputs light_scenario(std::uint64_t seed,
                                         std::uint64_t index);

/// plan_ini's share of texts that repeat an earlier portfolio. The value is
/// an arbitrary choice: no measured or published re-query rate backs it.
inline constexpr double kPlanRepeatShare = 0.25;

/// plan_ini: `count` scenario INI texts (2-8 services, 10-5000 Erlangs).
/// After the first four, each text repeats an earlier one verbatim with
/// probability kPlanRepeatShare; the other texts do not depend on the share.
std::vector<std::string> plan_texts(std::uint64_t seed, std::size_t count);

/// Canonical bytes of model inputs (every number as its bit pattern, impact
/// curves sampled at 1..16 VMs), for determinism checks.
std::string encode(const vmcons::core::ModelInputs& inputs);

}  // namespace perfbench
