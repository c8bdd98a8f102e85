#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wavemig/engine/compiled_netlist.hpp"

// Post-lowering optimizer over the combinational program (see
// engine/optimizer.hpp for the pass catalogue and level semantics). The
// cycle-accurate oracle's tick program is lowered from the network, never
// from this program: its job is wave semantics, including interference,
// and removing "redundant" physical components would change what it
// models. Every pass here preserves the
// combinational function of every primary output bit-for-bit, which the
// differential test suite enforces across all execution paths.

namespace wavemig::engine {

namespace {

using maj_op = compiled_netlist::maj_op;

struct triple_hash {
  std::size_t operator()(const std::array<slot_ref, 3>& key) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const slot_ref r : key) {
      h ^= r + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return static_cast<std::size_t>(h ^ (h >> 33));
  }
};

void sort3(slot_ref& a, slot_ref& b, slot_ref& c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
}

/// Tries to fold M(a, b, c) (refs sorted ascending) to a single reference:
/// the functional reductions M(x,x,y) = x and M(x,!x,y) = y, which also
/// subsume every constant instance (M(0,1,y) = y, M(0,0,y) = 0, ...) since
/// constants are the refs 0 and 1. Returns true and sets `out` on success.
bool fold_majority(slot_ref a, slot_ref b, slot_ref c, slot_ref& out) {
  if (a == b || (a ^ 1u) == b) {
    out = a == b ? a : c;
    return true;
  }
  if (b == c || (b ^ 1u) == c) {
    out = b == c ? b : a;
    return true;
  }
  return false;
}

/// Measured peak liveness of a program order: the maximum number of gate
/// values simultaneously live, counting a value from its defining op until
/// its last consuming op (PO-referenced values never die). Mirrors the slot
/// recycler's free-before-allocate accounting exactly, so at opt level >= 2
/// `slots_after - fixed` equals this number.
std::size_t measure_peak_liveness(const std::vector<maj_op>& ops,
                                  const std::vector<slot_ref>& po_refs,
                                  std::uint32_t slot_count, std::uint32_t fixed) {
  const std::size_t n = ops.size();
  constexpr std::size_t used_by_po = ~std::size_t{0};
  std::vector<std::size_t> last_use(slot_count, 0);
  for (std::size_t i = 0; i < n; ++i) {
    last_use[ops[i].a >> 1] = i;
    last_use[ops[i].b >> 1] = i;
    last_use[ops[i].c >> 1] = i;
  }
  for (const slot_ref ref : po_refs) {
    last_use[ref >> 1] = used_by_po;
  }
  std::vector<std::uint8_t> dead(slot_count, 0);
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const slot_ref ref : {ops[i].a, ops[i].b, ops[i].c}) {
      const std::uint32_t s = ref >> 1;
      if (s >= fixed && last_use[s] == i && !dead[s]) {
        dead[s] = 1;
        --live;
      }
    }
    ++live;  // the target is born (and stays live forever if never used)
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace

void compiled_netlist::optimize() {
  const unsigned opt_level = options_.opt_level;
  opt_stats_ = {};
  opt_stats_.ops_before = comb_ops_.size();
  opt_stats_.slots_before = comb_slot_count_;
  opt_stats_.ops_after = comb_ops_.size();
  opt_stats_.slots_after = comb_slot_count_;
  if (opt_level == 0) {
    return;
  }

  const std::uint32_t fixed = 1 + num_pis_;  // constant slot + PI slots
  std::vector<maj_op> kept;

  // ---- constant propagation + structural hashing (CSE), one forward
  // walk. `fwd[s]` maps the old slot of a producer to its optimized
  // reference; ops are in topological order, so operands always resolve
  // through ops already visited.
  std::vector<slot_ref> fwd(comb_slot_count_, 0);
  for (std::uint32_t s = 0; s < fixed; ++s) {
    fwd[s] = s << 1u;
  }
  std::unordered_map<std::array<slot_ref, 3>, slot_ref, triple_hash> structural;
  structural.reserve(comb_ops_.size());
  kept.reserve(comb_ops_.size());

  for (const auto& o : comb_ops_) {
    slot_ref a = fwd[o.a >> 1] ^ (o.a & 1u);
    slot_ref b = fwd[o.b >> 1] ^ (o.b & 1u);
    slot_ref c = fwd[o.c >> 1] ^ (o.c & 1u);
    sort3(a, b, c);

    if (slot_ref folded = 0; fold_majority(a, b, c, folded)) {
      fwd[o.target] = folded;
      ++opt_stats_.constants_folded;
      continue;
    }

    // Canonical polarity under self-duality: M(!a,!b,!c) = !M(a,b,c) — at
    // most one complemented operand, the flip carried on the output edge.
    slot_ref out_complement = 0;
    if ((a & 1u) + (b & 1u) + (c & 1u) >= 2) {
      a ^= 1u;
      b ^= 1u;
      c ^= 1u;
      out_complement = 1u;
      sort3(a, b, c);
    }

    const std::array<slot_ref, 3> key{a, b, c};
    if (const auto it = structural.find(key); it != structural.end()) {
      fwd[o.target] = it->second ^ out_complement;
      ++opt_stats_.cse_hits;
      continue;
    }
    kept.push_back({o.target, a, b, c});
    structural.emplace(key, o.target << 1u);
    fwd[o.target] = (o.target << 1u) ^ out_complement;
  }
  for (auto& ref : comb_po_refs_) {
    ref = fwd[ref >> 1] ^ (ref & 1u);
  }

  // ---- dead-op elimination from the PO cone. A backward sweep over the
  // topologically ordered survivors: an op is live iff its target feeds a
  // PO or a live consumer — this also collects the cones orphaned by the
  // folding and CSE above.
  std::vector<std::uint8_t> live(comb_slot_count_, 0);
  for (const slot_ref ref : comb_po_refs_) {
    live[ref >> 1] = 1;
  }
  for (std::size_t i = kept.size(); i-- > 0;) {
    const auto& o = kept[i];
    if (!live[o.target]) {
      continue;
    }
    live[o.a >> 1] = 1;
    live[o.b >> 1] = 1;
    live[o.c >> 1] = 1;
  }
  const std::size_t before_dce = kept.size();
  std::erase_if(kept, [&](const maj_op& o) { return !live[o.target]; });
  opt_stats_.dead_ops_removed = before_dce - kept.size();

  opt_stats_.peak_live_slots =
      measure_peak_liveness(kept, comb_po_refs_, comb_slot_count_, fixed);

  // ---- slot assignment. Targets still carry their raw-lowering slot ids,
  // so the folded/CSE'd/dead holes must be compacted:
  //
  // * opt level 1 — dense renumbering, one slot per surviving op.
  // * opt level 2 — liveness-based recycling: a linear scan frees each
  //   slot at its last use and reuses it for later targets, shrinking the
  //   working set to the program's peak liveness. Freeing an op's operands
  //   *before* allocating its target lets a gate overwrite its own last-use
  //   operand in place (the kernel reads every operand word of an op before
  //   it stores any target word).
  const std::size_t n = kept.size();
  std::vector<std::uint32_t> rename(comb_slot_count_, 0);
  for (std::uint32_t s = 0; s < fixed; ++s) {
    rename[s] = s;
  }
  std::uint32_t next = fixed;

  if (opt_level >= 2) {
    constexpr std::size_t used_by_po = ~std::size_t{0};
    std::vector<std::size_t> last_use(comb_slot_count_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      last_use[kept[i].a >> 1] = i;
      last_use[kept[i].b >> 1] = i;
      last_use[kept[i].c >> 1] = i;
    }
    for (const slot_ref ref : comb_po_refs_) {
      last_use[ref >> 1] = used_by_po;
    }
    std::vector<std::uint32_t> free_slots;
    std::vector<std::uint8_t> freed(comb_slot_count_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      auto& o = kept[i];
      const std::uint32_t operands[3] = {o.a >> 1, o.b >> 1, o.c >> 1};
      o.a = (rename[operands[0]] << 1u) | (o.a & 1u);
      o.b = (rename[operands[1]] << 1u) | (o.b & 1u);
      o.c = (rename[operands[2]] << 1u) | (o.c & 1u);
      for (const std::uint32_t s : operands) {
        if (s >= fixed && last_use[s] == i && !freed[s]) {
          freed[s] = 1;
          free_slots.push_back(rename[s]);
        }
      }
      std::uint32_t target = 0;
      if (free_slots.empty()) {
        target = next++;
      } else {
        target = free_slots.back();
        free_slots.pop_back();
      }
      rename[o.target] = target;
      o.target = target;
    }
  } else {
    for (auto& o : kept) {
      o.a = (rename[o.a >> 1] << 1u) | (o.a & 1u);
      o.b = (rename[o.b >> 1] << 1u) | (o.b & 1u);
      o.c = (rename[o.c >> 1] << 1u) | (o.c & 1u);
      rename[o.target] = next++;
      o.target = rename[o.target];
    }
  }
  for (auto& ref : comb_po_refs_) {
    ref = (rename[ref >> 1] << 1u) | (ref & 1u);
  }
  comb_slot_count_ = next;

  comb_ops_ = std::move(kept);
  comb_ops_.shrink_to_fit();
  opt_stats_.ops_after = comb_ops_.size();
  opt_stats_.slots_after = comb_slot_count_;
}

}  // namespace wavemig::engine
