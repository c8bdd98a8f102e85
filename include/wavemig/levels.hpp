#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "wavemig/mig.hpp"

namespace wavemig {

/// Longest-path levels of a network (the paper's base-distance maxima):
/// PIs sit at level 0, majority and fan-out gates contribute one level and a
/// buffer run of length k contributes k (its last stage's level is the
/// node's level). Constant fan-ins carry no data wave and are ignored (§2.1
/// of DESIGN.md); a gate whose non-constant fan-ins are all PIs sits at
/// level 1.
///
/// The same map type carries clock schedules. A run scheduled at L has its
/// stages at L - k + 1 ... L: the edge into it spans
/// `L - (k - 1) - level(fan-in)` and its internal edges span 1.
struct level_map {
  std::vector<std::uint32_t> level;  ///< per node index
  std::uint32_t depth{0};            ///< max level over all PO drivers

  [[nodiscard]] std::uint32_t operator[](node_index n) const { return level[n]; }
};

/// Computes levels in one forward pass (node index order is topological).
/// Throws std::overflow_error if a level exceeds the 32-bit range.
level_map compute_levels(const mig_network& net);

/// ASAP level of node `n` from the levels of its fan-ins (`level[f]` for
/// every fan-in f; `level[0]`, the constant's, must be 0): the deepest
/// fan-in plus the node's length, or the length alone when no fan-in
/// carries a wave; 0 for PIs and the constant. The rule compute_levels
/// applies node by node, for passes that level the network they are
/// building. Throws std::overflow_error if the level exceeds the 32-bit
/// range.
template <typename Levels>
std::uint32_t node_level(const mig_network& net, node_index n, const Levels& level) {
  // The constant sits at level 0, so a constant fan-in never raises the
  // deepest level and needs no test of its own.
  const auto fis = net.fanins(n);
  std::uint32_t deepest;
  std::uint32_t length = 1;
  switch (net.kind(n)) {
    case node_kind::majority:
      deepest = std::max<std::uint32_t>(
          {level[fis[0].index()], level[fis[1].index()], level[fis[2].index()]});
      break;
    case node_kind::buffer:
      length = net.length(n);
      [[fallthrough]];
    case node_kind::fanout:
      deepest = level[fis[0].index()];
      break;
    default:
      return 0;
  }
  if (deepest > std::numeric_limits<std::uint32_t>::max() - length) {
    throw std::overflow_error{"levels: a level exceeds the 32-bit range"};
  }
  return deepest + length;
}

/// Maximum exclusive base distance of a node: the level of its first stage
/// minus one, i.e. the depth of its deepest non-constant fan-in (one level
/// below a gate's own level, k below a length-k buffer run's). Defined for
/// components; returns 0 for PIs/constants.
std::uint32_t max_exclusive_base_distance(const mig_network& net, const level_map& levels,
                                          node_index n);

/// Whether any buffer node of `net` is a run longer than one stage.
[[nodiscard]] inline bool has_buffer_runs(const mig_network& net) {
  return net.num_buffer_nodes() != net.num_buffers();
}

/// Node count of the unit-buffer form of `net`: its nodes plus the inner
/// stages of its buffer runs.
[[nodiscard]] inline std::uint64_t expanded_num_nodes(const mig_network& net) {
  return net.num_nodes() + (net.num_buffers() - net.num_buffer_nodes());
}

/// Largest unit-buffer form expand_buffer_runs and expand_schedule build:
/// 2^26 nodes (1.3 GB of nodes). A run long enough to pass it (a `.mig`
/// file may hold a run of two billion stages in one line) is refused before
/// anything is allocated, rather than exhausting memory stage by stage.
inline constexpr std::uint64_t max_expanded_nodes = std::uint64_t{1} << 26;

/// The unit-buffer form of `net`: every buffer run of length k becomes k
/// chained unit buffers in its place, every other node and output is copied
/// in order. The result is the netlist the runs stand for, node for node:
/// what the wave-pipelining passes emitted before runs existed. Throws
/// std::length_error if it would exceed max_expanded_nodes.
mig_network expand_buffer_runs(const mig_network& net);

/// `schedule` of `net` carried over to `expand_buffer_runs(net)`: stage j
/// (1-based) of a run scheduled at L sits at L - k + j; every other node
/// keeps its level. Throws std::invalid_argument if the schedule does not
/// match the network, std::length_error if the unit-buffer form would
/// exceed max_expanded_nodes.
level_map expand_schedule(const mig_network& net, const level_map& schedule);

/// Fan-out structure of a network. For each driver node, lists every
/// consumer fan-in slot and every primary output it feeds. A slot is a
/// physical connection: a node consuming the same driver through several
/// fan-in positions occupies several slots.
///
/// Layout: compressed sparse rows. All edges sit in one array, grouped by
/// driver; driver n's edges are `targets[offset[n] .. offset[n + 1])`, and
/// `edges[n]` views them as a span, valid while the map lives (bind the
/// map, not the span, when the map is a temporary).
///
/// Edge order inside a driver's group is part of the contract: first the
/// consumer fan-in slots in node index order (slot order within a node),
/// then the primary outputs in position order. Passes that create nodes or
/// hand out tree positions while walking a driver's edges depend on it for
/// their exact output: insert_buffers' per-edge chains and its `tree`
/// strategy's parent assignment, and restrict_fanout's FOG ports among
/// equal deadlines.
struct fanout_map {
  static constexpr node_index po_consumer = std::numeric_limits<node_index>::max();

  struct edge {
    node_index consumer;  ///< consuming node, or `po_consumer` for an output
    std::uint32_t slot;   ///< fan-in position, or PO position for outputs
  };

  /// The edge lists, indexed by driver node.
  struct edge_lists {
    std::vector<std::size_t> offset;  ///< num_nodes + 1 entries
    std::vector<edge> targets;        ///< every edge, grouped by driver

    [[nodiscard]] std::span<const edge> operator[](node_index n) const {
      return std::span<const edge>{targets}.subspan(offset[n], offset[n + 1] - offset[n]);
    }
  };

  edge_lists edges;

  /// Number of physical consumer connections of `n` (gate slots + POs).
  [[nodiscard]] std::size_t degree(node_index n) const {
    return edges.offset[n + 1] - edges.offset[n];
  }
};

/// Computes the fan-out map. Constant drivers are given empty edge lists:
/// constants are gate-internal biases, not routed signals.
fanout_map compute_fanouts(const mig_network& net);

/// Maximum fan-out degree over all non-constant nodes. Counts degrees only;
/// builds no fan-out map. The inner stages of a buffer run drive one stage
/// each, so a network holding a run of length >= 2 has degree at least 1.
std::size_t max_fanout_degree(const mig_network& net);

/// Basic structural statistics used throughout benches and reports.
struct network_stats {
  std::size_t pis{0};
  std::size_t pos{0};
  std::size_t majorities{0};
  std::size_t buffers{0};
  std::size_t fanout_gates{0};
  std::size_t components{0};  ///< majorities + buffers + fanout gates
  std::uint32_t depth{0};
  std::size_t max_fanout{0};
};

/// Statistics of `net`; computes its levels.
network_stats compute_stats(const mig_network& net);

/// Statistics of `net` whose `depth` is read from `levels`, which must be
/// `compute_levels(net)`. Callers that need the levels anyway (a readiness
/// check, a compile) pass them here and save a level pass.
network_stats compute_stats(const mig_network& net, const level_map& levels);

}  // namespace wavemig
