#include "wavemig/buffer_insertion.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "edge_taps.hpp"
#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

using edge_span = std::span<const fanout_map::edge>;

class balance_builder {
public:
  balance_builder(const mig_network& old_net, const buffer_insertion_options& options)
      : old_{old_net},
        options_{options},
        capacity_{options.strategy == buffer_strategy::tree && options.fanout_limit
                      ? *options.fanout_limit
                      : std::numeric_limits<std::uint64_t>::max()},
        levels_{compute_schedule(old_net, options.schedule)},
        fanouts_{compute_fanouts(old_net)},
        taps_{old_net} {}

  buffer_insertion_result run() {
    buffer_insertion_result result;
    result.depth_before = levels_.depth;

    // Every old node is rebuilt (structural hashing can only merge some),
    // plus exactly the buffer nodes plan_driver hangs off the drivers.
    std::uint64_t planned = 0;
    old_.foreach_node([&](node_index n) { planned += planned_nodes(n); });
    new_net_.reserve(old_.num_nodes() + planned, old_.num_majorities());
    schedule_.reserve(old_.num_nodes() + planned);
    asap_.reserve(old_.num_nodes() + planned);
    schedule_.push_back(0);  // the constant node
    asap_.push_back(0);

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
      record(map[n], levels_[n]);
      plan_driver(n, map[n]);
    });

    result.depth_after = 0;
    for (std::uint32_t position = 0; position < old_.num_pos(); ++position) {
      const signal driver = old_.po_signal(position);
      signal s;
      if (old_.is_constant(driver.index())) {
        s = driver;  // constant outputs carry no wave; no padding needed
      } else {
        s = taps_.po(position).complement_if(driver.is_complemented());
        result.depth_after = std::max(result.depth_after, asap_[s.index()]);
      }
      new_net_.create_po(s, old_.po_name(position));
    }

    result.buffers_added = new_net_.num_buffers() - old_.num_buffers();
    result.schedule.level = std::move(schedule_);
    result.schedule.depth = 0;
    for (const auto& po : new_net_.pos()) {
      if (!new_net_.is_constant(po.driver.index())) {
        result.schedule.depth =
            std::max(result.schedule.depth, result.schedule.level[po.driver.index()]);
      }
    }
    result.net = std::move(new_net_);
    return result;
  }

private:
  /// A span of consecutive depths of one driver's buffer tree: `count`
  /// vertices at each depth of [lo, hi]. Spans of several depths hold one
  /// vertex each, with no tap above hi, and become one buffer run.
  struct tier {
    std::uint32_t lo;
    std::uint32_t hi;
    std::uint64_t count;
    std::size_t first{0};  ///< node index of vertex 0, once created
  };

  /// Required number of buffers on one consumer edge of driver `n`:
  /// the scheduled gap, reduced by the coherence tolerance (cells hold their
  /// value long enough to bridge `tolerance` extra levels).
  std::uint32_t gap_of(node_index n, const fanout_map::edge& e) const {
    std::uint32_t gap;
    if (e.consumer == fanout_map::po_consumer) {
      gap = options_.pad_outputs ? levels_.depth - levels_[n] : 0;
    } else {
      gap = levels_[e.consumer] - (old_.length(e.consumer) - 1) - levels_[n] - 1;
    }
    return gap > options_.tolerance ? gap - options_.tolerance : 0;
  }

  /// Records the scheduled level and the ASAP level of a rebuilt node
  /// (idempotent: structural hashing may map several requests onto one
  /// node; the first wins). Every node is recorded right after it is
  /// created, so a new node's index is the size of the tables.
  void record(signal s, std::uint32_t level) {
    if (s.index() == schedule_.size()) {
      schedule_.push_back(level);
      asap_.push_back(node_level(new_net_, s.index(), asap_));
    }
  }

  /// Number of buffer nodes plan_driver hangs off driver `n`.
  std::uint64_t planned_nodes(node_index n) {
    const edge_span edges = fanouts_.edges[n];
    if (options_.strategy == buffer_strategy::naive) {
      return static_cast<std::uint64_t>(std::count_if(
          edges.begin(), edges.end(), [&](const auto& e) { return gap_of(n, e) != 0; }));
    }
    std::uint64_t nodes = 0;
    for (const tier& t : shape_tree(n, edges)) {
      nodes += t.count;
    }
    return nodes;
  }

  /// Plans the buffer structure hanging off driver `n` (whose rebuilt signal
  /// is `s`) and records the tap signal of every consumer edge.
  void plan_driver(node_index n, signal s) {
    const edge_span edges = fanouts_.edges[n];
    if (options_.strategy != buffer_strategy::naive) {
      plan_tree(n, s, edges);
      return;
    }
    for (const auto& e : edges) {
      const std::uint32_t gap = gap_of(n, e);
      signal tap = s;
      if (gap != 0) {
        tap = new_net_.create_buffer(s, gap);
        record(tap, levels_[n] + gap);
      }
      taps_[e] = tap;
    }
  }

  /// The gap of an `order_` entry.
  static std::uint32_t gap_in(std::uint64_t entry) { return static_cast<std::uint32_t>(entry >> 32); }

  /// Shapes the buffer tree of driver `n` in time linear in its edges (plus
  /// sorting them by gap): `order_` lists the edges by (gap, edge order),
  /// and the returned tiers cover depths 1 .. largest gap top-down. The
  /// vertices at a depth drive the taps at that depth plus the vertices of
  /// the depth below, at most capacity_ each; between two tap depths the
  /// vertex count shrinks to one within a few depths, and from there a
  /// single unbranched run reaches the next tap depth.
  const std::vector<tier>& shape_tree(node_index n, edge_span edges) {
    order_.clear();
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      order_.push_back(std::uint64_t{gap_of(n, edges[i])} << 32 | i);
    }
    std::sort(order_.begin(), order_.end());
    const auto gap = [&](std::size_t k) { return gap_in(order_[k]); };

    // Bottom-up: `k` edges have gaps above the depth p being shaped, and
    // `carriers` vertices sit at depth p + 1.
    tiers_.clear();
    std::size_t k = order_.size();
    std::uint64_t carriers = 0;
    std::uint32_t p = order_.empty() ? 0 : gap(k - 1);
    while (p >= 1) {
      std::uint64_t taps = 0;
      for (; k > 0 && gap(k - 1) == p; --k) {
        ++taps;
      }
      const std::uint32_t next_tap = k > 0 ? gap(k - 1) : 0;
      if (taps == 0 && carriers == 1) {
        // One vertex here driving the single vertex below: the run below
        // reaches up to just under the next tap depth.
        tiers_.back().lo = next_tap + 1;
        p = next_tap;
        continue;
      }
      // Overflow-safe ceiling division (the capacity may be unlimited).
      carriers = 1 + (taps + carriers - 1) / capacity_;
      tiers_.push_back({p, p, carriers});
      --p;
    }
    if (k + carriers > capacity_) {
      throw std::invalid_argument{
          "insert_buffers: driver fan-out exceeds the buffer-tree capacity; "
          "run fanout restriction first"};
    }
    std::reverse(tiers_.begin(), tiers_.end());
    return tiers_;
  }

  /// Buffer tree of driver `n`, every vertex driving at most capacity_
  /// children. With unlimited capacity it is the paper's Algorithm 1: one
  /// shared chain that each fan-out taps at its required depth, stored as
  /// one run per stretch between tap depths.
  void plan_tree(node_index n, signal s, edge_span edges) {
    shape_tree(n, edges);

    // Children fill the vertices of the depth above them in order,
    // capacity_ to a vertex: first the carrier buffers of the next depth,
    // then the taps in edge order. The vertices of a tier are created
    // together, so first + i names vertex i of the tier's last depth.
    const auto parent = [&](std::size_t t, std::uint64_t child) {
      return signal{static_cast<node_index>(tiers_[t].first + child / capacity_), false};
    };
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      tiers_[t].first = new_net_.num_nodes();
      const std::uint32_t length = tiers_[t].hi - tiers_[t].lo + 1;
      for (std::uint64_t i = 0; i < tiers_[t].count; ++i) {
        record(new_net_.create_buffer(t == 0 ? s : parent(t - 1, i), length),
               levels_[n] + tiers_[t].hi);
      }
    }
    // Taps in (gap, edge) order; the taps of a tier's last depth follow the
    // carriers of the tier below among its vertices' children.
    std::size_t t = 0;
    std::uint64_t child = 0;
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const std::uint32_t p = gap_in(order_[k]);
      const fanout_map::edge& e = edges[static_cast<std::uint32_t>(order_[k])];
      if (p == 0) {
        taps_[e] = s;
        continue;
      }
      if (k == 0 || p != gap_in(order_[k - 1])) {
        while (tiers_[t].hi != p) {
          ++t;
        }
        child = t + 1 < tiers_.size() ? tiers_[t + 1].count : 0;
      }
      taps_[e] = parent(t, child++);
    }
  }

  /// Fan-in signal of the rebuilt consumer: the planned tap with the original
  /// edge complement, or the constant itself.
  signal tap_for(node_index consumer, std::uint32_t slot, signal original) const {
    if (old_.is_constant(original.index())) {
      return original;
    }
    return taps_.fanin(consumer, slot).complement_if(original.is_complemented());
  }

  const mig_network& old_;
  const buffer_insertion_options& options_;
  const std::uint64_t capacity_;  // children per tree vertex
  level_map levels_;
  fanout_map fanouts_;
  detail::edge_taps taps_;
  mig_network new_net_;
  std::vector<std::uint32_t> schedule_;  // scheduled level per new node
  std::vector<std::uint32_t> asap_;      // ASAP level per new node
  // Per-driver scratch of shape_tree/plan_tree, reused across drivers.
  std::vector<std::uint64_t> order_;  // gap << 32 | edge position
  std::vector<tier> tiers_;
};

}  // namespace

buffer_insertion_result insert_buffers(const mig_network& net,
                                       const buffer_insertion_options& options) {
  if (options.fanout_limit && *options.fanout_limit < 2) {
    throw std::invalid_argument{"insert_buffers: fanout limit must be at least 2"};
  }
  balance_builder builder{net, options};
  return builder.run();
}

}  // namespace wavemig
