#pragma once

#include <cstdint>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig {

/// Level-assignment policy for path balancing. Buffer insertion charges
/// every edge (u,v) with level(v) - level(u) - 1 buffers (shared per driver
/// chain), so moving nodes inside their slack window changes the buffer
/// bill without affecting depth. The paper's Algorithm 1 implicitly uses
/// ASAP levels; ALAP and mid-slack are classic alternatives evaluated by
/// the scheduling ablation bench.
enum class schedule_policy {
  /// As-soon-as-possible: longest path from the inputs (the paper's levels).
  asap,
  /// As-late-as-possible: every node one level above its earliest consumer;
  /// primary-output drivers are pinned to the circuit depth, which aligns
  /// outputs without padding and pushes all slack onto the (highly shared)
  /// input chains.
  alap,
  /// Midpoint of the ASAP/ALAP window, legalized by a forward pass.
  mid_slack,
};

/// Computes a level assignment under `policy`. PIs and constants stay at
/// level 0; the depth (max PO-driver level) equals the ASAP depth for every
/// policy, so scheduling never costs latency.
level_map compute_schedule(const mig_network& net, schedule_policy policy);

/// True when `levels` is a feasible wave schedule: every non-constant edge
/// (u,v) satisfies level(v) >= level(u) + length(v) (1, or k for a buffer
/// run, whose inner edges span one level each), PIs sit at level 0, and no
/// node exceeds the recorded depth.
bool is_valid_schedule(const mig_network& net, const level_map& levels);

/// Total positive slack Σ_edges (level(v) - level(u) - length(v)): the number of
/// buffers a *naive* (unshared) balancing pass would insert, and a useful
/// imbalance measure for wave-aware optimization.
std::uint64_t slack_sum(const mig_network& net, const level_map& levels);

}  // namespace wavemig
