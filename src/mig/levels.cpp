#include "wavemig/levels.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace wavemig {

level_map compute_levels(const mig_network& net) {
  level_map result;
  result.level.assign(net.num_nodes(), 0);

  // A component fed only by constants would be degenerate; canonicalization
  // prevents it for majority gates, and buffers/FOGs on constants count
  // from level 0 (node_level).
  net.foreach_node([&](node_index n) { result.level[n] = node_level(net, n, result.level); });

  for (const auto& po : net.pos()) {
    if (!net.is_constant(po.driver.index())) {
      result.depth = std::max(result.depth, result.level[po.driver.index()]);
    }
  }
  return result;
}

std::uint32_t max_exclusive_base_distance(const mig_network& net, const level_map& levels,
                                          node_index n) {
  if (net.is_pi(n) || net.is_constant(n)) {
    return 0;
  }
  const std::uint32_t own = levels.level[n];
  const std::uint32_t length = net.length(n);
  return own < length ? 0 : own - length;
}

namespace {

/// Throws std::length_error unless the unit-buffer form of `net` stays
/// within max_expanded_nodes.
void check_expansion(const mig_network& net, const char* what) {
  if (expanded_num_nodes(net) > max_expanded_nodes) {
    throw std::length_error{std::string{what} +
                            ": the unit-buffer form of the buffer runs is too large"};
  }
}

}  // namespace

mig_network expand_buffer_runs(const mig_network& net) {
  check_expansion(net, "expand_buffer_runs");
  mig_network out;
  out.reserve(expanded_num_nodes(net));
  std::vector<signal> map(net.num_nodes(), constant0);
  const auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::constant:
        return;
      case node_kind::primary_input:
        map[n] = out.create_pi(net.pi_name(net.pi_position(n)));
        return;
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        map[n] = out.create_maj(mapped(fis[0]), mapped(fis[1]), mapped(fis[2]));
        return;
      }
      case node_kind::buffer: {
        signal s = mapped(net.fanins(n)[0]);
        for (std::uint32_t j = 0; j < net.length(n); ++j) {
          s = out.create_buffer(s);
        }
        map[n] = s;
        return;
      }
      case node_kind::fanout:
        map[n] = out.create_fanout(mapped(net.fanins(n)[0]));
        return;
    }
  });
  for (const auto& po : net.pos()) {
    out.create_po(mapped(po.driver), po.name);
  }
  return out;
}

level_map expand_schedule(const mig_network& net, const level_map& schedule) {
  if (schedule.level.size() != net.num_nodes()) {
    throw std::invalid_argument{"expand_schedule: schedule does not match the network"};
  }
  check_expansion(net, "expand_schedule");
  level_map out;
  out.depth = schedule.depth;
  out.level.reserve(expanded_num_nodes(net));
  net.foreach_node([&](node_index n) {
    const std::uint32_t level = schedule[n];
    for (std::uint32_t j = net.length(n); j-- > 1;) {
      out.level.push_back(level >= j ? level - j : 0);
    }
    out.level.push_back(level);
  });
  return out;
}

namespace {

/// Calls `fn(driver, edge)` for every consumer edge of a non-constant
/// driver, in the documented fanout_map order: fan-in slots in node order,
/// then the primary outputs.
template <typename Fn>
void foreach_fanout_edge(const mig_network& net, Fn&& fn) {
  net.foreach_node([&](node_index n) {
    const auto fis = net.fanins(n);
    for (std::uint32_t slot = 0; slot < fis.size(); ++slot) {
      if (!net.is_constant(fis[slot].index())) {
        fn(fis[slot].index(), fanout_map::edge{n, slot});
      }
    }
  });
  for (std::uint32_t position = 0; position < net.num_pos(); ++position) {
    const node_index driver = net.po_signal(position).index();
    if (!net.is_constant(driver)) {
      fn(driver, fanout_map::edge{fanout_map::po_consumer, position});
    }
  }
}

}  // namespace

fanout_map compute_fanouts(const mig_network& net) {
  fanout_map result;
  auto& [offset, targets] = result.edges;

  // Count pass: driver d's degree lands in offset[d + 1], so the prefix sum
  // turns the counts into start offsets.
  offset.assign(net.num_nodes() + 1, 0);
  foreach_fanout_edge(net, [&](node_index driver, const fanout_map::edge&) {
    ++offset[driver + 1];
  });
  std::partial_sum(offset.begin(), offset.end(), offset.begin());

  // Fill pass: each driver's edges land in visiting order.
  targets.resize(offset.back());
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  foreach_fanout_edge(net, [&](node_index driver, const fanout_map::edge& e) {
    targets[cursor[driver]++] = e;
  });
  return result;
}

std::size_t max_fanout_degree(const mig_network& net) {
  std::vector<std::uint32_t> degree(net.num_nodes(), 0);  // the constant stays at 0
  foreach_fanout_edge(net, [&](node_index driver, const fanout_map::edge&) { ++degree[driver]; });
  const std::size_t inner = has_buffer_runs(net) ? 1 : 0;  // a run's inner stages
  return std::max<std::size_t>(inner, *std::max_element(degree.begin(), degree.end()));
}

network_stats compute_stats(const mig_network& net) {
  return compute_stats(net, compute_levels(net));
}

network_stats compute_stats(const mig_network& net, const level_map& levels) {
  network_stats s;
  s.pis = net.num_pis();
  s.pos = net.num_pos();
  s.majorities = net.num_majorities();
  s.buffers = net.num_buffers();
  s.fanout_gates = net.num_fanout_gates();
  s.components = net.num_components();
  s.depth = levels.depth;
  s.max_fanout = max_fanout_degree(net);
  return s;
}

}  // namespace wavemig
