#include "wavemig/depth_rewriting.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "wavemig/cleanup.hpp"
#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

/// Builder that tracks levels of the network under construction so that
/// rewriting decisions can be made against the *new* structure.
class leveled_builder {
public:
  explicit leveled_builder(mig_network& net) : net_{net} { sync(); }

  [[nodiscard]] std::uint32_t level_of(signal s) const {
    return net_.is_constant(s.index()) ? 0 : levels_[s.index()];
  }

  signal create_maj(signal a, signal b, signal c) {
    const signal s = net_.create_maj(a, b, c);
    sync();
    return s;
  }

  mig_network& net() { return net_; }

  /// Catches up on nodes created directly on the network (PIs, buffers,
  /// fan-out gates). Must be called before level_of sees their signals —
  /// otherwise level_of reads past the end of the level table.
  void sync() {
    while (levels_.size() < net_.num_nodes()) {
      const auto n = static_cast<node_index>(levels_.size());
      levels_.push_back(node_level(net_, n, levels_));
    }
  }

private:
  mig_network& net_;
  std::vector<std::uint32_t> levels_;
};

/// One candidate decomposition of a majority gate: the deepest fan-in `g`
/// (which must reference a majority node) and the two shallow siblings.
struct split {
  signal g;
  signal s1;
  signal s2;
};

signal build_with_rules(leveled_builder& b, signal x, signal y, signal z, bool allow_area) {
  b.sync();  // PIs/buffers/fan-outs are created on the network directly
  auto lvl = [&](signal s) { return b.level_of(s); };
  const std::uint32_t baseline = std::max({lvl(x), lvl(y), lvl(z)}) + 1;

  // Consider each fan-in as the critical decomposition point.
  const std::array<split, 3> splits{{{x, y, z}, {y, x, z}, {z, x, y}}};

  signal best_result = constant0;
  std::uint32_t best_level = baseline;
  bool found = false;

  for (const auto& sp : splits) {
    const mig_network& net = b.net();
    if (!net.is_majority(sp.g.index())) {
      continue;
    }
    const std::uint32_t lg = lvl(sp.g);
    const std::uint32_t ls = std::max(lvl(sp.s1), lvl(sp.s2));
    if (lg < ls + 2 || lg < 2) {
      continue;  // no room for improvement through this fan-in
    }

    // Grandchildren with the complement of g pushed inside (self-duality).
    const auto fis = net.fanins(sp.g.index());
    std::array<signal, 3> gc{fis[0].complement_if(sp.g.is_complemented()),
                             fis[1].complement_if(sp.g.is_complemented()),
                             fis[2].complement_if(sp.g.is_complemented())};

    // Associativity: requires a signal u shared between {s1,s2} and the
    // grandchildren: M(u, s, M(u, p, q)) = M(u, q, M(u, p, s)) — swap the
    // shallow sibling s with the deep grandchild q.
    for (unsigned i = 0; i < 3; ++i) {
      for (const signal s_shared : {sp.s1, sp.s2}) {
        if (gc[i] != s_shared) {
          continue;
        }
        const signal u = gc[i];
        const signal other = s_shared == sp.s1 ? sp.s2 : sp.s1;
        signal p = gc[(i + 1) % 3];
        signal q = gc[(i + 2) % 3];
        if (lvl(p) > lvl(q)) {
          std::swap(p, q);
        }
        // Only beneficial when the grandchild we hoist is deeper than the
        // sibling we push down.
        if (lvl(q) <= lvl(other)) {
          continue;
        }
        const std::uint32_t inner_est = std::max({lvl(p), lvl(u), lvl(other)}) + 1;
        const std::uint32_t est = std::max({lvl(q), lvl(u), inner_est}) + 1;
        if (est < best_level) {
          const signal inner = b.create_maj(u, p, other);
          const signal outer = b.create_maj(u, q, inner);
          best_result = outer;
          best_level = b.level_of(outer);
          found = true;
        }
      }
    }

    // Distributivity: M(s1, s2, M(u, v, q)) = M(M(s1,s2,u), M(s1,s2,v), q)
    // hides the critical grandchild q at the cost of one duplicated gate.
    if (allow_area) {
      std::array<signal, 3> sorted = gc;
      std::sort(sorted.begin(), sorted.end(),
                [&](signal a_, signal b_) { return lvl(a_) < lvl(b_); });
      const signal u = sorted[0];
      const signal v = sorted[1];
      const signal q = sorted[2];
      const std::uint32_t est =
          std::max({std::max({lvl(sp.s1), lvl(sp.s2), lvl(u)}) + 1,
                    std::max({lvl(sp.s1), lvl(sp.s2), lvl(v)}) + 1, lvl(q)}) +
          1;
      if (est < best_level) {
        const signal left = b.create_maj(sp.s1, sp.s2, u);
        const signal right = b.create_maj(sp.s1, sp.s2, v);
        const signal outer = b.create_maj(left, right, q);
        best_result = outer;
        best_level = b.level_of(outer);
        found = true;
      }
    }
  }

  if (found) {
    return best_result;
  }
  return b.create_maj(x, y, z);
}

mig_network rewrite_once(const mig_network& net, bool allow_area) {
  mig_network result;
  leveled_builder builder{result};

  std::vector<signal> map(net.num_nodes(), constant0);
  net.foreach_node([&](node_index n) {
    auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
    switch (net.kind(n)) {
      case node_kind::primary_input:
        map[n] = result.create_pi(net.pi_name(net.pi_position(n)));
        break;
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        map[n] = build_with_rules(builder, mapped(fis[0]), mapped(fis[1]), mapped(fis[2]),
                                  allow_area);
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
  return cleanup_dangling(result);
}

}  // namespace wavemig::(anonymous)

mig_network depth_rewrite(const mig_network& net, const depth_rewriting_options& options) {
  mig_network current = cleanup_dangling(net);
  std::uint32_t best_depth = compute_levels(current).depth;

  for (unsigned iteration = 0; iteration < options.max_iterations; ++iteration) {
    mig_network next = rewrite_once(current, options.allow_area_increase);
    const std::uint32_t next_depth = compute_levels(next).depth;
    if (next_depth >= best_depth) {
      break;
    }
    best_depth = next_depth;
    current = std::move(next);
  }
  return current;
}

}  // namespace wavemig
