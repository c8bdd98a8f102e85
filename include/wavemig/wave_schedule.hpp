#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig {

/// Result of checking the wave-pipelining feasibility conditions of §II-C /
/// §III: (a) every path between two connected components has equal length —
/// equivalently, every non-constant edge spans exactly one level — and
/// (b) all primary outputs sit at the same base distance.
struct wave_readiness {
  bool ready{false};
  /// Edges (u -> v) with level(v) != level(u) + 1 ("residual paths that jump
  /// through graph levels"). An edge into a buffer run ends at the run's
  /// first stage (see level_map); a run's inner edges always span 1.
  std::size_t violating_edges{0};
  /// True when all non-constant PO drivers share one level.
  bool outputs_aligned{false};
  std::uint32_t depth{0};
  /// Human-readable description of the first few violations.
  std::vector<std::string> issues;
};

/// Verifies wave readiness against the network's ASAP levels with exact
/// balancing (tolerance 0). Constant fan-ins and constant-driven outputs are
/// exempt (they carry no data wave).
wave_readiness check_wave_readiness(const mig_network& net);

/// Verifies wave readiness under an explicit clock schedule and coherence
/// tolerance: every non-constant edge must span between 1 and tolerance + 1
/// scheduled levels (a P-phase clock tolerates up to P - 2; see
/// buffer_insertion_options::tolerance), and all non-constant PO drivers
/// must sit within `tolerance` levels of each other.
wave_readiness check_wave_readiness(const mig_network& net, const level_map& schedule,
                                    unsigned tolerance);

}  // namespace wavemig
