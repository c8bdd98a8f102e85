#include "wavemig/cleanup.hpp"

#include <vector>

namespace wavemig {

mig_network cleanup_dangling(const mig_network& net) {
  std::vector<bool> live(net.num_nodes(), false);
  live[0] = true;
  for (const auto& po : net.pos()) {
    live[po.driver.index()] = true;
  }
  // Reverse sweep: fan-ins have smaller indices than their consumers.
  for (node_index n = static_cast<node_index>(net.num_nodes()); n-- > 1;) {
    if (!live[n]) {
      continue;
    }
    for (const signal f : net.fanins(n)) {
      live[f.index()] = true;
    }
  }

  mig_network result;
  std::vector<signal> map(net.num_nodes(), constant0);
  net.foreach_node([&](node_index n) {
    if (net.is_pi(n)) {
      map[n] = result.create_pi(net.pi_name(net.pi_position(n)));
      return;
    }
    if (!live[n]) {
      return;
    }
    auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
    switch (net.kind(n)) {
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        map[n] = result.create_maj(mapped(fis[0]), mapped(fis[1]), mapped(fis[2]));
        break;
      }
      case node_kind::buffer:
        map[n] = result.create_buffer(mapped(net.fanins(n)[0]), net.length(n));
        break;
      case node_kind::fanout:
        map[n] = result.create_fanout(mapped(net.fanins(n)[0]));
        break;
      default:
        break;
    }
  });

  for (const auto& po : net.pos()) {
    result.create_po(map[po.driver.index()].complement_if(po.driver.is_complemented()), po.name);
  }
  return result;
}

}  // namespace wavemig
