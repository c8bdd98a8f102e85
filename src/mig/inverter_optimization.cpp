#include "wavemig/inverter_optimization.hpp"

#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

bool edge_has_inverter(const mig_network& net, const std::vector<bool>& flip, signal edge,
                       node_index consumer_or_po, bool is_po) {
  const node_index driver = edge.index();
  if (net.is_constant(driver)) {
    return false;
  }
  bool present = edge.is_complemented();
  if (flip[driver]) {
    present = !present;
  }
  // The edge into a long run (two or more stages, flipped as its last)
  // ends at its first stage, which never flips.
  if (!is_po && flip[consumer_or_po] && net.length(consumer_or_po) == 1) {
    present = !present;
  }
  return present;
}

}  // namespace

std::size_t count_inverters(const mig_network& net, const std::vector<bool>& flip) {
  std::size_t count = 0;
  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      if (edge_has_inverter(net, flip, f, n, false)) {
        ++count;
      }
    }
    if (net.length(n) > 1 && flip[n]) {
      ++count;  // the inner edge into the run's flipped last stage
    }
  });
  for (const auto& po : net.pos()) {
    if (edge_has_inverter(net, flip, po.driver, 0, true)) {
      ++count;
    }
  }
  return count;
}

std::size_t count_inverters(const mig_network& net) {
  return count_inverters(net, std::vector<bool>(net.num_nodes(), false));
}

polarity_assignment optimize_inverters(const mig_network& net) {
  polarity_assignment result;
  result.flip.assign(net.num_nodes(), false);

  const auto fanouts = compute_fanouts(net);

  // Gain of flipping node n: every touching non-constant edge toggles its
  // inverter, so gain = (#present) - (#absent) over in- and out-edges.
  // A long run's in-edge does not toggle with its flip; the inner edge into
  // its last stage does, and carries an inverter iff the run is flipped.
  auto gain = [&](node_index n) -> long {
    long present = 0;
    long absent = 0;
    if (net.length(n) > 1) {
      (result.flip[n] ? present : absent) += 1;
    } else {
      for (const signal f : net.fanins(n)) {
        if (net.is_constant(f.index())) {
          continue;
        }
        if (edge_has_inverter(net, result.flip, f, n, false)) {
          ++present;
        } else {
          ++absent;
        }
      }
    }
    for (const auto& edge : fanouts.edges[n]) {
      const bool is_po = edge.consumer == fanout_map::po_consumer;
      signal s;
      if (is_po) {
        s = net.po_signal(edge.slot);
      } else {
        s = net.fanins(edge.consumer)[edge.slot];
      }
      if (edge_has_inverter(net, result.flip, s, edge.consumer, is_po)) {
        ++present;
      } else {
        ++absent;
      }
    }
    return present - absent;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    net.foreach_node([&](node_index n) {
      const auto k = net.kind(n);
      if (k != node_kind::majority && k != node_kind::buffer && k != node_kind::fanout) {
        return;
      }
      if (gain(n) > 0) {
        result.flip[n] = !result.flip[n];
        changed = true;
      }
    });
  }

  result.inverter_count = count_inverters(net, result.flip);
  return result;
}

}  // namespace wavemig
