#include "wavemig/balance_rewriting.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "wavemig/cleanup.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/scheduling.hpp"

namespace wavemig {

namespace {

/// Lexicographic candidate score: depth first, then the fan-in level spread
/// summed over every node the candidate creates (each level of spread is a
/// future balancing buffer).
struct score {
  std::uint32_t level;
  std::uint64_t spread;

  friend bool operator<(const score& a, const score& b) {
    return a.level != b.level ? a.level < b.level : a.spread < b.spread;
  }
};

class balance_builder {
public:
  explicit balance_builder(mig_network& net, bool allow_area)
      : net_{net}, allow_area_{allow_area} {
    sync();
  }

  signal build(signal x, signal y, signal z) {
    sync();  // PIs/buffers/fan-outs are created on the network directly
    const score plain = triple_score(x, y, z);
    score best = plain;
    int best_kind = 0;  // 0 plain, 1 associativity, 2 distributivity
    std::array<signal, 5> best_args{};

    const std::array<std::array<signal, 3>, 3> splits{
        {{z, x, y}, {y, x, z}, {x, y, z}}};  // {g, s1, s2}
    for (const auto& sp : splits) {
      const signal g = sp[0];
      const signal s1 = sp[1];
      const signal s2 = sp[2];
      if (!net_.is_majority(g.index())) {
        continue;
      }
      const auto fis = net_.fanins(g.index());
      std::array<signal, 3> gc{fis[0].complement_if(g.is_complemented()),
                               fis[1].complement_if(g.is_complemented()),
                               fis[2].complement_if(g.is_complemented())};

      // Associativity M(u, s, M(u, p, q)) = M(u, q, M(u, p, s)).
      for (unsigned i = 0; i < 3; ++i) {
        for (const signal shared : {s1, s2}) {
          if (gc[i] != shared) {
            continue;
          }
          const signal u = gc[i];
          const signal other = shared == s1 ? s2 : s1;
          for (unsigned j = 1; j <= 2; ++j) {
            const signal p = gc[(i + j) % 3];
            const signal q = gc[(i + 3 - j) % 3];
            const score inner = triple_score(u, p, other);
            score candidate = triple_score_with(u, q, inner.level);
            candidate.spread += inner.spread;
            if (candidate < best) {
              best = candidate;
              best_kind = 1;
              best_args = {u, p, other, q, {}};
            }
          }
        }
      }

      // Distributivity M(s1, s2, M(a, b, c)) = M(M(s1,s2,a), M(s1,s2,b), c),
      // hiding the deepest grandchild c.
      if (allow_area_) {
        std::array<signal, 3> sorted = gc;
        std::sort(sorted.begin(), sorted.end(),
                  [&](signal a_, signal b_) { return level_of(a_) < level_of(b_); });
        const score left = triple_score(s1, s2, sorted[0]);
        const score right = triple_score(s1, s2, sorted[1]);
        score candidate =
            pair_score(std::max(left.level, right.level), level_of(sorted[2]),
                       std::min({left.level, right.level, level_of(sorted[2])}));
        candidate.spread += left.spread + right.spread;
        if (candidate < best) {
          best = candidate;
          best_kind = 2;
          best_args = {s1, s2, sorted[0], sorted[1], sorted[2]};
        }
      }
    }

    signal result;
    switch (best_kind) {
      case 1: {
        const signal inner = create(best_args[0], best_args[1], best_args[2]);
        result = create(best_args[0], best_args[3], inner);
        break;
      }
      case 2: {
        const signal left = create(best_args[0], best_args[1], best_args[2]);
        const signal right = create(best_args[0], best_args[1], best_args[3]);
        result = create(left, right, best_args[4]);
        break;
      }
      default:
        result = create(x, y, z);
        break;
    }
    return result;
  }

  signal create(signal a, signal b, signal c) {
    const signal s = net_.create_maj(a, b, c);
    sync();
    return s;
  }

  [[nodiscard]] std::uint32_t level_of(signal s) const {
    return net_.is_constant(s.index()) ? 0 : levels_[s.index()];
  }

private:
  /// Score of a fresh majority over three signals (spread ignores
  /// constants: a constant fan-in is gate-internal and buffers nothing).
  score triple_score(signal a, signal b, signal c) const {
    std::uint32_t lo = UINT32_MAX;
    std::uint32_t hi = 0;
    for (const signal s : {a, b, c}) {
      if (net_.is_constant(s.index())) {
        continue;
      }
      lo = std::min(lo, level_of(s));
      hi = std::max(hi, level_of(s));
    }
    if (lo == UINT32_MAX) {
      return {1, 0};
    }
    return {hi + 1, hi - lo};
  }

  /// Score of M(a, b, <inner at level l>).
  score triple_score_with(signal a, signal b, std::uint32_t inner_level) const {
    std::uint32_t lo = inner_level;
    std::uint32_t hi = inner_level;
    for (const signal s : {a, b}) {
      if (net_.is_constant(s.index())) {
        continue;
      }
      lo = std::min(lo, level_of(s));
      hi = std::max(hi, level_of(s));
    }
    return {hi + 1, hi - lo};
  }

  static score pair_score(std::uint32_t inner_max, std::uint32_t third, std::uint32_t lowest) {
    const std::uint32_t hi = std::max(inner_max, third);
    const std::uint32_t lo = std::min({inner_max, third, lowest});
    return {hi + 1, hi - lo};
  }

  void sync() {
    while (levels_.size() < net_.num_nodes()) {
      const auto n = static_cast<node_index>(levels_.size());
      levels_.push_back(node_level(net_, n, levels_));
    }
  }

  mig_network& net_;
  bool allow_area_;
  std::vector<std::uint32_t> levels_;
};

mig_network rewrite_once(const mig_network& net, bool allow_area) {
  mig_network result;
  balance_builder builder{result, allow_area};

  std::vector<signal> map(net.num_nodes(), constant0);
  net.foreach_node([&](node_index n) {
    auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
    switch (net.kind(n)) {
      case node_kind::primary_input:
        map[n] = result.create_pi(net.pi_name(net.pi_position(n)));
        break;
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        map[n] = builder.build(mapped(fis[0]), mapped(fis[1]), mapped(fis[2]));
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

std::uint64_t imbalance(const mig_network& net) {
  return slack_sum(net, compute_levels(net));
}

}  // namespace

mig_network balance_rewrite(const mig_network& net, const balance_rewriting_options& options) {
  mig_network current = cleanup_dangling(net);
  std::uint32_t best_depth = compute_levels(current).depth;
  std::uint64_t best_imbalance = imbalance(current);

  for (unsigned iteration = 0; iteration < options.max_iterations; ++iteration) {
    mig_network next = rewrite_once(current, options.allow_area_increase);
    const std::uint32_t depth = compute_levels(next).depth;
    const std::uint64_t slack = imbalance(next);
    if (depth > best_depth || (depth == best_depth && slack >= best_imbalance)) {
      break;
    }
    best_depth = depth;
    best_imbalance = slack;
    current = std::move(next);
  }
  return current;
}

}  // namespace wavemig
