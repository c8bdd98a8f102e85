#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "wavemig/mig.hpp"

namespace wavemig {

/// Longest-path levels of a network (the paper's base-distance maxima):
/// PIs sit at level 0 and every component (majority gate, buffer, fan-out
/// gate) contributes one level. Constant fan-ins carry no data wave and are
/// ignored (§2.1 of DESIGN.md); a component whose non-constant fan-ins are
/// all PIs sits at level 1.
struct level_map {
  std::vector<std::uint32_t> level;  ///< per node index
  std::uint32_t depth{0};            ///< max level over all PO drivers

  [[nodiscard]] std::uint32_t operator[](node_index n) const { return level[n]; }
};

/// Computes levels in one forward pass (node index order is topological).
level_map compute_levels(const mig_network& net);

/// Maximum exclusive base distance of a node: one level below the node's own
/// level, i.e. the depth of its deepest non-constant fan-in. Defined for
/// components; returns 0 for PIs/constants.
std::uint32_t max_exclusive_base_distance(const mig_network& net, const level_map& levels,
                                          node_index n);

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
/// builds no fan-out map.
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
