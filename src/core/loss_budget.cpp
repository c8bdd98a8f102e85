#include "wavemig/loss_budget.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

/// Longest unregenerated run of the network: per node, the consecutive
/// majority/FOG levels since the last PI or buffer (both regenerate).
std::uint32_t max_unregenerated_run(const mig_network& net) {
  std::vector<std::uint32_t> run(net.num_nodes(), 0);
  std::uint32_t worst = 0;
  net.foreach_node([&](node_index n) {
    if (!net.is_majority(n) && !net.is_fanout_gate(n)) {
      return;  // constants, PIs and buffers regenerate: run stays 0
    }
    std::uint32_t incoming = 0;
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index())) {
        incoming = std::max(incoming, run[f.index()]);
      }
    }
    run[n] = incoming + 1;
    worst = std::max(worst, run[n]);
  });
  return worst;
}

}  // namespace

loss_budget_result enforce_loss_budget(const mig_network& old,
                                       const loss_budget_options& options) {
  loss_budget_result result;
  result.depth_before = compute_levels(old).depth;
  result.max_run_before = max_unregenerated_run(old);

  if (!options.max_unregenerated_levels) {
    result.max_run_after = result.max_run_before;
    result.depth_after = result.depth_before;
    result.net = old;
    return result;
  }
  const unsigned budget = *options.max_unregenerated_levels;
  if (budget == 0) {
    throw std::invalid_argument{
        "enforce_loss_budget: max_unregenerated_levels must be at least 1"};
  }

  mig_network net;
  net.reserve(old.num_nodes(), old.num_majorities());
  std::vector<signal> map(old.num_nodes(), constant0);
  std::vector<std::uint32_t> run;  // per *new* node index

  const auto run_of = [&](signal s) -> std::uint32_t {
    return net.is_constant(s.index()) ? 0 : run[s.index()];
  };
  // Structural hashing / folding in create_maj may return an existing node —
  // identical structure implies an identical run, so only fresh nodes (index
  // at or past the pre-call watermark) are recorded.
  const auto note = [&](signal s, std::uint32_t r, std::size_t watermark) {
    if (s.index() >= watermark) {
      run.resize(net.num_nodes(), 0);
      run[s.index()] = r;
    }
  };
  const auto mapped = [&](signal f) -> signal {
    if (old.is_constant(f.index())) {
      return f;
    }
    return map[f.index()].complement_if(f.is_complemented());
  };
  // One more level through a majority/FOG would exceed the budget: splice a
  // regenerating repeater into this edge. Per edge, never shared — the
  // driver's fan-out degree is preserved, so the pass composes with
  // restrict_fanout without re-violating the limit.
  const auto regenerated = [&](signal s) -> signal {
    if (net.is_constant(s.index()) || run_of(s) + 1 <= budget) {
      return s;
    }
    const std::size_t watermark = net.num_nodes();
    const signal repeater = net.create_buffer(s);
    note(repeater, 0, watermark);
    ++result.repeaters_added;
    return repeater;
  };

  old.foreach_node([&](node_index n) {
    switch (old.kind(n)) {
      case node_kind::constant:
        return;
      case node_kind::primary_input: {
        const std::size_t watermark = net.num_nodes();
        map[n] = net.create_pi(old.pi_name(old.pi_position(n)));
        note(map[n], 0, watermark);
        return;
      }
      case node_kind::majority: {
        const auto fis = old.fanins(n);
        const signal a = regenerated(mapped(fis[0]));
        const signal b = regenerated(mapped(fis[1]));
        const signal c = regenerated(mapped(fis[2]));
        const std::size_t watermark = net.num_nodes();
        map[n] = net.create_maj(a, b, c);
        const std::uint32_t incoming =
            std::max({run_of(a), run_of(b), run_of(c)});
        note(map[n], incoming + 1, watermark);
        return;
      }
      case node_kind::buffer: {
        const std::size_t watermark = net.num_nodes();
        map[n] = net.create_buffer(mapped(old.fanins(n)[0]), old.length(n));
        note(map[n], 0, watermark);
        return;
      }
      case node_kind::fanout: {
        const signal in = regenerated(mapped(old.fanins(n)[0]));
        const std::size_t watermark = net.num_nodes();
        map[n] = net.create_fanout(in);
        note(map[n], run_of(in) + 1, watermark);
        return;
      }
    }
  });

  for (std::uint32_t p = 0; p < old.num_pos(); ++p) {
    const signal driver = old.po_signal(p);
    net.create_po(mapped(driver), old.po_name(p));
  }

  result.max_run_after = max_unregenerated_run(net);
  result.depth_after = compute_levels(net).depth;
  result.net = std::move(net);
  return result;
}

}  // namespace wavemig
