#pragma once

#include <cstddef>
#include <vector>

#include "wavemig/mig.hpp"

namespace wavemig {

/// A per-node polarity assignment: `flip[n]` true means the physical cell for
/// node n realizes the *complement* of the logical node (legal for majority
/// gates by self-duality M(!a,!b,!c) = !M(a,b,c), and trivially for buffers
/// and fan-out gates). Primary inputs and constants are never flipped.
///
/// Under an assignment, a physical inverter sits on edge (d -> consumer c
/// with complement attribute `compl`) iff `compl ^ flip[d] ^ flip[c]` (and
/// `compl ^ flip[d]` for PO edges). This reproduces the inversion
/// optimization of Testa et al. [20] as used by the paper's INV component
/// counts: the logical MIG stays canonical while the physical inverter count
/// is minimized.
///
/// A buffer run of length k >= 2 is flipped as its last stage: its other
/// stages never flip (in the unit chain a greedy flip of a middle stage
/// never pays, since both its edges start without an inverter), so the
/// edge into the run carries `compl ^ flip[d]`, and the inner edge into the
/// last stage carries an inverter iff `flip[run]`.
struct polarity_assignment {
  std::vector<bool> flip;
  std::size_t inverter_count{0};
};

/// Physical inverter count with no polarity flips (or under `assignment`).
/// Complemented constant edges are free: the complement of a constant is the
/// other constant, not an inverter.
std::size_t count_inverters(const mig_network& net);
std::size_t count_inverters(const mig_network& net, const std::vector<bool>& flip);

/// Greedy polarity optimization: flips any node whose flip strictly reduces
/// the physical inverter count, until a fixpoint. Deterministic; the count
/// decreases monotonically, so termination is guaranteed.
polarity_assignment optimize_inverters(const mig_network& net);

}  // namespace wavemig
