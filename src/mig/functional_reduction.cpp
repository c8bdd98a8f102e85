#include "wavemig/functional_reduction.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "wavemig/cleanup.hpp"

namespace wavemig {

namespace {

/// 16-bit truth-table projections for up to four cut leaves. Functions of
/// fewer leaves replicate across the unused variables, so plain word
/// equality compares functions correctly at any width.
constexpr std::uint16_t projections[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

struct cut {
  std::vector<node_index> leaves;  // sorted
  std::uint16_t tt{0};

  friend bool operator==(const cut& a, const cut& b) {
    return a.leaves == b.leaves && a.tt == b.tt;
  }
};

/// Re-expresses `tt` (over `from`) over the superset `to`.
std::uint16_t expand(std::uint16_t tt, const std::vector<node_index>& from,
                     const std::vector<node_index>& to) {
  unsigned position[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < from.size(); ++i) {
    position[i] = static_cast<unsigned>(
        std::find(to.begin(), to.end(), from[i]) - to.begin());
  }
  std::uint16_t out = 0;
  for (unsigned m = 0; m < 16; ++m) {
    unsigned old_m = 0;
    for (std::size_t i = 0; i < from.size(); ++i) {
      if ((m >> position[i]) & 1u) {
        old_m |= 1u << i;
      }
    }
    if ((tt >> old_m) & 1u) {
      out |= static_cast<std::uint16_t>(1u << m);
    }
  }
  return out;
}

class reducer {
public:
  reducer(const mig_network& old_net, const functional_reduction_options& options)
      : old_{old_net}, options_{options} {}

  functional_reduction_result run() {
    functional_reduction_result result;
    std::vector<signal> map(old_.num_nodes(), constant0);

    old_.foreach_node([&](node_index n) {
      auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
      switch (old_.kind(n)) {
        case node_kind::primary_input:
          map[n] = new_net_.create_pi(old_.pi_name(old_.pi_position(n)));
          ensure_trivial_cut(map[n].index());
          break;
        case node_kind::majority: {
          const auto fis = old_.fanins(n);
          map[n] = build_maj(mapped(fis[0]), mapped(fis[1]), mapped(fis[2]), result);
          break;
        }
        case node_kind::buffer:
          map[n] = new_net_.create_buffer(mapped(old_.fanins(n)[0]), old_.length(n));
          ensure_trivial_cut(map[n].index());
          break;
        case node_kind::fanout:
          map[n] = new_net_.create_fanout(mapped(old_.fanins(n)[0]));
          ensure_trivial_cut(map[n].index());
          break;
        default:
          break;
      }
    });

    for (const auto& po : old_.pos()) {
      new_net_.create_po(map[po.driver.index()].complement_if(po.driver.is_complemented()),
                         po.name);
    }
    result.net = cleanup_dangling(new_net_);
    result.merged_gates = new_net_.num_majorities() > result.net.num_majorities()
                              ? new_net_.num_majorities() - result.net.num_majorities()
                              : 0;
    return result;
  }

private:
  void ensure_trivial_cut(node_index n) {
    if (cuts_.size() <= n) {
      cuts_.resize(n + 1);
    }
    if (cuts_[n].empty() && !new_net_.is_constant(n)) {
      cuts_[n].push_back({{n}, projections[0]});
    }
  }

  /// Cut sets of a fan-in signal; constants have one empty-leaf cut whose
  /// table is the constant itself.
  std::vector<cut> cuts_of(signal s) {
    if (new_net_.is_constant(s.index())) {
      return {{{}, static_cast<std::uint16_t>(s.is_complemented() ? 0xFFFF : 0x0000)}};
    }
    ensure_trivial_cut(s.index());
    std::vector<cut> result = cuts_[s.index()];
    if (s.is_complemented()) {
      for (auto& c : result) {
        c.tt = static_cast<std::uint16_t>(~c.tt);
      }
    }
    return result;
  }

  signal build_maj(signal a, signal b, signal c, functional_reduction_result& stats) {
    (void)stats;
    const signal s = new_net_.create_maj(a, b, c);
    if (!new_net_.is_majority(s.index())) {
      return s;  // reduced to a constant/fan-in by canonicalization
    }
    const node_index n = s.index();
    if (cuts_.size() > n && !cuts_[n].empty()) {
      return s;  // structural-hash hit: cuts already registered
    }
    ensure_trivial_cut(n);

    // Merge one cut per fan-in; bound the combination count.
    const auto ca = cuts_of(new_net_.fanins(n)[0]);
    const auto cb = cuts_of(new_net_.fanins(n)[1]);
    const auto cc = cuts_of(new_net_.fanins(n)[2]);
    std::vector<cut> merged;
    const std::size_t budget = 4 * options_.cuts_per_node;
    for (const auto& x : ca) {
      for (const auto& y : cb) {
        for (const auto& z : cc) {
          if (merged.size() >= budget) {
            break;
          }
          std::vector<node_index> leaves = x.leaves;
          for (const auto& more : {y.leaves, z.leaves}) {
            for (const node_index l : more) {
              if (std::find(leaves.begin(), leaves.end(), l) == leaves.end()) {
                leaves.push_back(l);
              }
            }
          }
          if (leaves.size() > options_.cut_size) {
            continue;
          }
          std::sort(leaves.begin(), leaves.end());
          const std::uint16_t ta = expand(x.tt, x.leaves, leaves);
          const std::uint16_t tb = expand(y.tt, y.leaves, leaves);
          const std::uint16_t tc = expand(z.tt, z.leaves, leaves);
          const auto tt = static_cast<std::uint16_t>((ta & tb) | (tb & tc) | (ta & tc));
          cut candidate{std::move(leaves), tt};
          if (std::find(merged.begin(), merged.end(), candidate) == merged.end()) {
            merged.push_back(std::move(candidate));
          }
        }
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const cut& l, const cut& r) { return l.leaves.size() < r.leaves.size(); });
    if (merged.size() > options_.cuts_per_node) {
      merged.resize(options_.cuts_per_node);
    }

    // Functional lookup: another node realizing any of these cut functions
    // (up to complement) replaces this one.
    for (const auto& m : merged) {
      if (m.leaves.empty()) {
        // The node is a constant function of no leaves; re-apply the
        // canonicalization complement of the created signal.
        return constant0.complement_if(((m.tt & 1u) != 0) ^ s.is_complemented());
      }
      const bool complemented = (m.tt & 1u) != 0;
      const auto canon = static_cast<std::uint16_t>(complemented ? ~m.tt : m.tt);
      const auto key = std::make_pair(m.leaves, canon);
      if (const auto it = table_.find(key); it != table_.end()) {
        const signal found = it->second.complement_if(complemented);
        if (found.index() != n) {
          // Drop n (left dangling; removed by the final cleanup) and hand
          // the equivalent signal to the consumers, restoring the
          // canonicalization complement of the created signal.
          return found.complement_if(s.is_complemented());
        }
      }
    }
    for (const auto& m : merged) {
      if (m.leaves.empty()) {
        continue;
      }
      const bool complemented = (m.tt & 1u) != 0;
      const auto canon = static_cast<std::uint16_t>(complemented ? ~m.tt : m.tt);
      table_.emplace(std::make_pair(m.leaves, canon), signal{n, complemented});
    }
    cuts_[n].insert(cuts_[n].end(), merged.begin(), merged.end());
    if (cuts_[n].size() > options_.cuts_per_node + 1) {
      cuts_[n].resize(options_.cuts_per_node + 1);
    }
    return s;
  }

  const mig_network& old_;
  const functional_reduction_options& options_;
  mig_network new_net_;
  std::vector<std::vector<cut>> cuts_;
  std::map<std::pair<std::vector<node_index>, std::uint16_t>, signal> table_;
};

}  // namespace

functional_reduction_result reduce_functionally(const mig_network& net,
                                                const functional_reduction_options& options) {
  reducer r{net, options};
  return r.run();
}

}  // namespace wavemig
