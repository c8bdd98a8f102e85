#include "wavemig/scheduling.hpp"

#include <algorithm>

namespace wavemig {

namespace {

level_map compute_alap(const mig_network& net, const level_map& asap) {
  const std::uint32_t depth = asap.depth;
  const auto fanouts = compute_fanouts(net);

  level_map result;
  result.depth = depth;
  result.level.assign(net.num_nodes(), 0);

  // Reverse topological sweep (indices descend through consumers first).
  for (node_index n = static_cast<node_index>(net.num_nodes()); n-- > 1;) {
    if (!net.is_majority(n) && !net.is_buffer(n) && !net.is_fanout_gate(n)) {
      continue;  // PIs and constants stay at level 0
    }
    std::uint32_t latest = depth;  // unreferenced nodes float to the bottom
    for (const auto& edge : fanouts.edges[n]) {
      if (edge.consumer == fanout_map::po_consumer) {
        // PO virtual consumer at depth + 1: drivers pin to the depth, which
        // aligns the outputs without padding buffers.
        latest = std::min(latest, depth);
      } else {
        // A run consumer's first stage sits length - 1 levels above it.
        latest = std::min(latest, result.level[edge.consumer] - net.length(edge.consumer));
      }
    }
    result.level[n] = latest;
  }
  return result;
}

}  // namespace

level_map compute_schedule(const mig_network& net, schedule_policy policy) {
  level_map asap = compute_levels(net);
  if (policy == schedule_policy::asap) {
    return asap;
  }
  level_map alap = compute_alap(net, asap);
  if (policy == schedule_policy::alap) {
    return alap;
  }

  // Mid-slack: midpoint of the window, then a forward legalization pass
  // (midpoints of different fan-ins can collide).
  level_map result;
  result.depth = asap.depth;
  result.level.assign(net.num_nodes(), 0);
  net.foreach_node([&](node_index n) {
    if (!net.is_majority(n) && !net.is_buffer(n) && !net.is_fanout_gate(n)) {
      return;
    }
    std::uint32_t lvl = (asap.level[n] + alap.level[n]) / 2;
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index())) {
        lvl = std::max(lvl, result.level[f.index()] + net.length(n));
      }
    }
    result.level[n] = std::min(lvl, alap.level[n]);
  });
  return result;
}

bool is_valid_schedule(const mig_network& net, const level_map& levels) {
  if (levels.level.size() != net.num_nodes()) {
    return false;
  }
  bool valid = true;
  net.foreach_node([&](node_index n) {
    if (net.is_pi(n) || net.is_constant(n)) {
      if (levels.level[n] != 0) {
        valid = false;
      }
      return;
    }
    if (levels.level[n] > levels.depth) {
      valid = false;
    }
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index()) &&
          levels.level[n] < std::uint64_t{levels.level[f.index()]} + net.length(n)) {
        valid = false;
      }
    }
  });
  return valid;
}

std::uint64_t slack_sum(const mig_network& net, const level_map& levels) {
  std::uint64_t total = 0;
  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index())) {
        total += levels.level[n] - levels.level[f.index()] - net.length(n);
      }
    }
  });
  return total;
}

}  // namespace wavemig
