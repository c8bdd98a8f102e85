#include "wavemig/fanout_restriction.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <span>
#include <vector>

#include "edge_taps.hpp"
#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

constexpr std::int64_t po_deadline = std::numeric_limits<std::int64_t>::max();

class restriction_builder {
public:
  restriction_builder(const mig_network& old_net, const fanout_restriction_options& options)
      : old_{old_net},
        options_{options},
        levels_{compute_levels(old_net)},
        fanouts_{compute_fanouts(old_net)},
        taps_{old_net} {
    lower_bound_.assign(old_.num_nodes(), 0);
    old_.foreach_node([&](node_index n) { lower_bound_[n] = levels_[n]; });
  }

  fanout_restriction_result run() {
    fanout_restriction_result result;
    result.depth_before = levels_.depth;
    new_net_.reserve(old_.num_nodes(), old_.num_majorities());

    std::vector<signal> map(old_.num_nodes(), constant0);
    old_.foreach_node([&](node_index n) {
      switch (old_.kind(n)) {
        case node_kind::constant:
          return;
        case node_kind::primary_input:
          map[n] = new_net_.create_pi(old_.pi_name(old_.pi_position(n)));
          break;
        case node_kind::majority: {
          const auto fis = old_.fanins(n);
          map[n] = new_net_.create_maj(tap_for(n, 0, fis[0]), tap_for(n, 1, fis[1]),
                                       tap_for(n, 2, fis[2]));
          break;
        }
        case node_kind::buffer:
          map[n] = new_net_.create_buffer(tap_for(n, 0, old_.fanins(n)[0]), old_.length(n));
          break;
        case node_kind::fanout:
          map[n] = new_net_.create_fanout(tap_for(n, 0, old_.fanins(n)[0]));
          break;
      }
      sync_levels();
      lower_bound_[n] = level_of(map[n]);
      plan_driver(n, map[n], result);
    });

    for (std::uint32_t position = 0; position < old_.num_pos(); ++position) {
      const signal driver = old_.po_signal(position);
      signal s = driver;
      if (!old_.is_constant(driver.index())) {
        s = taps_.po(position).complement_if(driver.is_complemented());
      }
      new_net_.create_po(s, old_.po_name(position));
    }

    result.fogs_added = new_net_.num_fanout_gates() - old_.num_fanout_gates();
    result.buffers_added = new_net_.num_buffers() - old_.num_buffers();
    result.depth_after = compute_levels(new_net_).depth;
    result.net = std::move(new_net_);
    return result;
  }

private:
  void sync_levels() {
    while (new_levels_.size() < new_net_.num_nodes()) {
      const auto n = static_cast<node_index>(new_levels_.size());
      new_levels_.push_back(node_level(new_net_, n, new_levels_));
    }
  }

  [[nodiscard]] std::uint32_t level_of(signal s) const { return new_levels_[s.index()]; }

  signal tap_for(node_index consumer, std::uint32_t slot, signal original) const {
    if (old_.is_constant(original.index())) {
      return original;
    }
    return taps_.fanin(consumer, slot).complement_if(original.is_complemented());
  }

  void plan_driver(node_index n, signal s, fanout_restriction_result& result) {
    const std::span<const fanout_map::edge> edges = fanouts_.edges[n];
    if (edges.empty()) {
      return;
    }
    const std::uint32_t L = level_of(s);

    // Drivers within their native capability connect directly: every
    // component drives one consumer; an existing FOG drives up to `limit`.
    const std::size_t native_capacity = old_.is_fanout_gate(n) ? options_.limit : 1;
    if (edges.size() <= native_capacity) {
      for (const auto& e : edges) {
        record_tap(e, s, L + 1);
      }
      return;
    }

    const std::uint64_t m = edges.size();
    const std::uint64_t k = options_.limit;
    const std::uint64_t fog_count = (m - 1 + (k - 1) - 1) / (k - 1);  // ceil((m-1)/(k-1))

    // BFS FOG placement: ports are (depth, driving vertex); placing a FOG on
    // the shallowest free port keeps the tree as shallow as possible.
    struct port {
      std::uint32_t depth;  // consumer attached here sits at level >= L + depth
      signal vertex;
    };
    std::vector<port> ports{{1, s}};
    std::size_t head = 0;
    for (std::uint64_t i = 0; i < fog_count; ++i) {
      const port p = ports[head++];
      const signal fog = new_net_.create_fanout(p.vertex);
      sync_levels();
      for (std::uint64_t j = 0; j < k; ++j) {
        ports.push_back({p.depth + 1, fog});
      }
    }

    // Deadline of a consumer edge: the deepest port it can take without
    // being delayed. PO edges absorb any depth (they are padded later).
    struct pending {
      const fanout_map::edge* e;
      std::int64_t deadline;
    };
    std::vector<pending> consumers;
    consumers.reserve(edges.size());
    for (const auto& e : edges) {
      std::int64_t deadline = po_deadline;
      if (e.consumer != fanout_map::po_consumer) {
        deadline = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(lower_bound_[e.consumer]) - static_cast<std::int64_t>(L));
      }
      consumers.push_back({&e, deadline});
    }
    std::stable_sort(consumers.begin(), consumers.end(),
                     [](const pending& a, const pending& b) { return a.deadline < b.deadline; });

    // Ports remaining from `head` are free, already sorted by depth. The
    // deepest assigned port bounds residual stretching: within the FOG
    // tree's span no path may exit shallower than the tree is deep ("do not
    // leave residual paths that jump through graph levels", Fig. 6b), but
    // slack beyond the tree is left for the shared chains of the buffer
    // insertion pass.
    const std::uint32_t tree_depth = ports[head + consumers.size() - 1].depth;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      const port& p = ports[head + i];
      const pending& c = consumers[i];
      const bool is_po = c.e->consumer == fanout_map::po_consumer;
      signal tap = p.vertex;
      std::uint32_t arrival = L + p.depth;

      if (!is_po && static_cast<std::int64_t>(p.depth) > c.deadline) {
        ++result.delayed_edges;
      } else if (!is_po && options_.fill_residual &&
                 static_cast<std::int64_t>(p.depth) < c.deadline) {
        const auto target = std::min<std::int64_t>(c.deadline, tree_depth);
        for (std::int64_t j = p.depth; j < target; ++j) {
          tap = new_net_.create_buffer(tap);
        }
        sync_levels();
        arrival = L + static_cast<std::uint32_t>(std::max<std::int64_t>(p.depth, target));
      }
      record_tap(*c.e, tap, arrival);
    }
  }

  void record_tap(const fanout_map::edge& e, signal tap, std::uint32_t arrival) {
    taps_[e] = tap;
    if (e.consumer != fanout_map::po_consumer) {
      lower_bound_[e.consumer] = std::max(lower_bound_[e.consumer], arrival);
    }
  }

  const mig_network& old_;
  const fanout_restriction_options& options_;
  level_map levels_;
  fanout_map fanouts_;
  detail::edge_taps taps_;
  mig_network new_net_;
  std::vector<std::uint32_t> new_levels_;
  std::vector<std::uint32_t> lower_bound_;  // growing level estimates, old indices
};

}  // namespace

fanout_restriction_result restrict_fanout(const mig_network& net,
                                          const fanout_restriction_options& options) {
  if (options.limit < 2) {
    throw std::invalid_argument{"restrict_fanout: limit must be at least 2"};
  }
  restriction_builder builder{net, options};
  return builder.run();
}

}  // namespace wavemig
