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
    // plus exactly the buffers plan_driver hangs off the drivers.
    std::uint64_t planned = 0;
    old_.foreach_node([&](node_index n) { planned += planned_buffers(n); });
    new_net_.reserve(old_.num_nodes() + planned);
    schedule_.reserve(old_.num_nodes() + planned);

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
          map[n] = new_net_.create_buffer(tap_for(n, 0, old_.fanins(n)[0]));
          break;
        case node_kind::fanout:
          map[n] = new_net_.create_fanout(tap_for(n, 0, old_.fanins(n)[0]));
          break;
      }
      record_schedule(map[n], levels_[n]);
      plan_driver(n, map[n]);
    });

    for (std::uint32_t position = 0; position < old_.num_pos(); ++position) {
      const signal driver = old_.po_signal(position);
      signal s;
      if (old_.is_constant(driver.index())) {
        s = driver;  // constant outputs carry no wave; no padding needed
      } else {
        s = taps_.po(position).complement_if(driver.is_complemented());
      }
      new_net_.create_po(s, old_.po_name(position));
    }

    result.buffers_added = new_net_.num_buffers() - old_.num_buffers();
    result.depth_after = compute_levels(new_net_).depth;

    schedule_.resize(new_net_.num_nodes(), 0);
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
  /// Required number of buffers on one consumer edge of driver `n`:
  /// the scheduled gap, reduced by the coherence tolerance (cells hold their
  /// value long enough to bridge `tolerance` extra levels).
  std::uint32_t gap_of(node_index n, const fanout_map::edge& e) const {
    std::uint32_t gap;
    if (e.consumer == fanout_map::po_consumer) {
      gap = options_.pad_outputs ? levels_.depth - levels_[n] : 0;
    } else {
      gap = levels_[e.consumer] - levels_[n] - 1;
    }
    return gap > options_.tolerance ? gap - options_.tolerance : 0;
  }

  /// Records the scheduled level of a rebuilt node (idempotent: structural
  /// hashing may map several requests onto one node; the first wins).
  void record_schedule(signal s, std::uint32_t level) {
    if (schedule_.size() <= s.index()) {
      schedule_.resize(s.index() + 1, 0);
      schedule_[s.index()] = level;
    }
  }

  /// Number of buffers plan_driver hangs off driver `n`.
  std::uint64_t planned_buffers(node_index n) {
    const edge_span edges = fanouts_.edges[n];
    std::uint64_t buffers = 0;
    if (options_.strategy == buffer_strategy::naive) {
      for (const auto& e : edges) {
        buffers += gap_of(n, e);
      }
      return buffers;
    }
    const std::uint32_t max_gap = shape_tree(n, edges);
    for (std::uint32_t p = 1; p <= max_gap; ++p) {
      buffers += vertices_[p];
    }
    return buffers;
  }

  /// Plans the buffer structure hanging off driver `n` (whose rebuilt signal
  /// is `s`) and records the tap signal of every consumer edge.
  void plan_driver(node_index n, signal s) {
    const edge_span edges = fanouts_.edges[n];
    if (edges.empty()) {
      return;
    }
    if (options_.strategy != buffer_strategy::naive) {
      plan_tree(n, s, edges);
      return;
    }
    for (const auto& e : edges) {
      signal tap = s;
      for (std::uint32_t i = 0; i < gap_of(n, e); ++i) {
        tap = new_net_.create_buffer(tap);
        record_schedule(tap, levels_[n] + i + 1);
      }
      taps_[e] = tap;
    }
  }

  /// Sizes the buffer tree of driver `n` and returns its depth (the largest
  /// gap): taps_at_[p] consumer edges attach after p buffers, and
  /// vertices_[p] buffers sit at depth p, 1 <= p <= depth.
  std::uint32_t shape_tree(node_index n, edge_span edges) {
    std::uint32_t max_gap = 0;
    for (const auto& e : edges) {
      max_gap = std::max(max_gap, gap_of(n, e));
    }
    taps_at_.assign(max_gap + 1, 0);
    for (const auto& e : edges) {
      ++taps_at_[gap_of(n, e)];
    }
    // Bottom-up vertex counts: vertices at depth p drive the taps at p plus
    // the carrier buffers at p+1.
    vertices_.assign(max_gap + 2, 0);
    for (std::uint32_t p = max_gap; p >= 1; --p) {
      const std::uint64_t demand = taps_at_[p] + vertices_[p + 1];
      // Overflow-safe ceiling division (the capacity may be unlimited).
      vertices_[p] = demand == 0 ? 0 : 1 + (demand - 1) / capacity_;
    }
    return max_gap;
  }

  /// Buffer tree of driver `n`, every vertex driving at most capacity_
  /// children. With unlimited capacity it is the paper's Algorithm 1: one
  /// shared chain that each fan-out taps at its required depth.
  void plan_tree(node_index n, signal s, edge_span edges) {
    const std::uint32_t max_gap = shape_tree(n, edges);
    if (taps_at_[0] + vertices_[1] > capacity_) {
      throw std::invalid_argument{
          "insert_buffers: driver fan-out exceeds the buffer-tree capacity; "
          "run fanout restriction first"};
    }

    // Children fill the vertices of the depth above them in order,
    // capacity_ to a vertex: first the carrier buffers of the next depth,
    // then the taps in edge order. The buffers of one depth are created
    // together, so first_[p] + i names vertex i of depth p.
    first_.assign(max_gap + 1, 0);
    const auto parent = [&](std::uint32_t p, std::uint64_t child) {
      return p == 0 ? s : signal{static_cast<node_index>(first_[p] + child / capacity_), false};
    };
    for (std::uint32_t p = 1; p <= max_gap; ++p) {
      first_[p] = new_net_.num_nodes();
      for (std::uint64_t i = 0; i < vertices_[p]; ++i) {
        record_schedule(new_net_.create_buffer(parent(p - 1, i)), levels_[n] + p);
      }
    }
    // taps_at_[p] becomes the child index of the next tap at depth p.
    for (std::uint32_t p = 0; p <= max_gap; ++p) {
      taps_at_[p] = vertices_[p + 1];
    }
    for (const auto& e : edges) {
      const std::uint32_t p = gap_of(n, e);
      taps_[e] = parent(p, taps_at_[p]++);
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
  // Per-driver scratch of shape_tree/plan_tree, reused across drivers.
  std::vector<std::uint64_t> taps_at_;
  std::vector<std::uint64_t> vertices_;
  std::vector<std::size_t> first_;
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
