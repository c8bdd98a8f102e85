#include "wavemig/levels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/pipeline.hpp"

namespace wavemig {
namespace {

TEST(levels, pis_are_level_zero_and_gates_stack) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  net.create_po(m2);

  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[a.index()], 0u);
  EXPECT_EQ(levels[m1.index()], 1u);
  EXPECT_EQ(levels[m2.index()], 2u);
  EXPECT_EQ(levels.depth, 2u);
}

TEST(levels, constant_fanins_do_not_count) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // AND gate: constant fan-in must not anchor the gate at level 1 via the
  // constant; it is level 1 because of a and b.
  const signal g = net.create_and(a, b);
  const signal h = net.create_and(g, a);
  net.create_po(h);
  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[g.index()], 1u);
  EXPECT_EQ(levels[h.index()], 2u);
}

TEST(levels, buffers_and_fogs_occupy_levels) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  const signal buf = net.create_buffer(m);
  const signal fog = net.create_fanout(buf);
  net.create_po(fog);
  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[buf.index()], 2u);
  EXPECT_EQ(levels[fog.index()], 3u);
  EXPECT_EQ(levels.depth, 3u);
}

TEST(levels, depth_is_max_over_outputs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal shallow = net.create_maj(a, b, c);
  const signal deep = net.create_maj(net.create_maj(shallow, a, b), c, a);
  net.create_po(shallow, "shallow");
  net.create_po(deep, "deep");
  EXPECT_EQ(compute_levels(net).depth, 3u);
}

TEST(levels, constant_only_output_keeps_depth_zero) {
  mig_network net;
  net.create_pi();
  net.create_po(constant1);
  EXPECT_EQ(compute_levels(net).depth, 0u);
}

TEST(levels, max_exclusive_base_distance_is_one_below) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  net.create_po(m2);
  const auto levels = compute_levels(net);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, m2.index()), 1u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, m1.index()), 0u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, a.index()), 0u);
}

TEST(fanouts, edges_and_po_refs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, !b);
  net.create_po(m1, "f");
  net.create_po(m2, "g");

  const auto fo = compute_fanouts(net);
  // m1 feeds m2 (one slot) and one PO.
  EXPECT_EQ(fo.degree(m1.index()), 2u);
  bool found_po = false;
  bool found_gate = false;
  for (const auto& e : fo.edges[m1.index()]) {
    if (e.consumer == fanout_map::po_consumer) {
      EXPECT_EQ(e.slot, 0u);
      found_po = true;
    } else {
      EXPECT_EQ(e.consumer, m2.index());
      found_gate = true;
    }
  }
  EXPECT_TRUE(found_po);
  EXPECT_TRUE(found_gate);
  // a feeds both gates.
  EXPECT_EQ(fo.degree(a.index()), 2u);
}

TEST(fanouts, constants_have_no_edges) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  net.create_po(net.create_and(a, b));
  net.create_po(constant0, "zero");
  const auto fo = compute_fanouts(net);
  EXPECT_TRUE(fo.edges[0].empty());
}

TEST(fanouts, max_fanout_degree) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  for (int i = 0; i < 5; ++i) {
    net.create_po(m, "o" + std::to_string(i));
  }
  EXPECT_EQ(max_fanout_degree(net), 5u);
}

/// Fan-out lists built one push_back at a time, in the documented edge
/// order: fan-in slots in node order, then the primary outputs.
std::vector<std::vector<fanout_map::edge>> reference_fanouts(const mig_network& net) {
  std::vector<std::vector<fanout_map::edge>> edges(net.num_nodes());
  net.foreach_node([&](node_index n) {
    const auto fis = net.fanins(n);
    for (std::uint32_t slot = 0; slot < fis.size(); ++slot) {
      if (!net.is_constant(fis[slot].index())) {
        edges[fis[slot].index()].push_back({n, slot});
      }
    }
  });
  for (std::uint32_t position = 0; position < net.num_pos(); ++position) {
    const node_index driver = net.po_signal(position).index();
    if (!net.is_constant(driver)) {
      edges[driver].push_back({fanout_map::po_consumer, position});
    }
  }
  return edges;
}

/// compute_fanouts equals the reference list for list, edge for edge, and
/// max_fanout_degree is the largest degree over non-constant nodes.
void expect_fanouts_match_reference(const mig_network& net, const std::string& what) {
  const auto fo = compute_fanouts(net);
  const auto reference = reference_fanouts(net);
  ASSERT_EQ(fo.edges.offset.size(), net.num_nodes() + 1) << what;
  std::size_t widest = 0;
  for (node_index n = 0; n < net.num_nodes(); ++n) {
    const auto edges = fo.edges[n];
    ASSERT_EQ(edges.size(), reference[n].size()) << what << ", driver " << n;
    EXPECT_EQ(fo.degree(n), reference[n].size()) << what << ", driver " << n;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(edges[i].consumer, reference[n][i].consumer) << what << ", driver " << n;
      EXPECT_EQ(edges[i].slot, reference[n][i].slot) << what << ", driver " << n;
    }
    if (!net.is_constant(n)) {
      widest = std::max(widest, fo.degree(n));
    }
  }
  EXPECT_EQ(max_fanout_degree(net), widest) << what;
}

TEST(fanouts, flat_map_and_degree_match_a_reference_on_random_migs) {
  const std::vector<gen::random_mig_profile> profiles{
      {8, 60, 0.2, 4, 1}, {16, 400, 0.5, 16, 2}, {32, 1500, 0.9, 40, 3}, {4, 30, 0.0, 12, 4}};
  for (const auto& profile : profiles) {
    auto net = gen::random_mig(profile);
    const std::string what = "random_mig seed " + std::to_string(profile.seed);
    expect_fanouts_match_reference(net, what);
    // Extra outputs on internal nodes give drivers both gate and PO edges,
    // so the map's gate-slots-then-outputs order is observable.
    for (node_index n = 1; n < net.num_nodes(); n += 3) {
      net.create_po(signal{n, n % 2 == 0});
    }
    expect_fanouts_match_reference(net, what + " with extra outputs");
    // The flow's output adds buffers and fan-out gates (one fan-in slot).
    expect_fanouts_match_reference(wave_pipeline(net).net, what + " after the flow");
  }
}

TEST(fanouts, hand_cases_match_the_reference) {
  {
    // Constant-driven outputs of both polarities, and a constant fan-in:
    // none of them is an edge.
    mig_network net;
    const signal a = net.create_pi();
    const signal b = net.create_pi();
    net.create_po(constant0, "zero");
    net.create_po(net.create_or(a, b));
    net.create_po(constant1, "one");
    expect_fanouts_match_reference(net, "constant outputs");
    EXPECT_TRUE(compute_fanouts(net).edges[0].empty());
  }
  {
    // One driver reaching one consumer more than once. A majority gate
    // cannot take the same driver in two slots (M(x,x,y) = x and
    // M(x,!x,y) = y reduce on construction), so the repeats are two PO
    // positions beside a gate slot.
    mig_network net;
    const signal a = net.create_pi();
    const signal b = net.create_pi();
    const signal c = net.create_pi();
    ASSERT_EQ(net.create_maj(a, a, b), a);
    ASSERT_EQ(net.create_maj(a, !a, b), b);
    const signal m = net.create_maj(a, b, c);
    net.create_po(m, "f");
    net.create_po(net.create_maj(m, !a, c), "g");
    net.create_po(!m, "nf");
    expect_fanouts_match_reference(net, "repeated consumer");
    const auto fo = compute_fanouts(net);
    const auto edges = fo.edges[m.index()];
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_NE(edges[0].consumer, fanout_map::po_consumer);  // gate slots first
    EXPECT_EQ(edges[1].consumer, fanout_map::po_consumer);
    EXPECT_EQ(edges[1].slot, 0u);
    EXPECT_EQ(edges[2].slot, 2u);
  }
  {
    // A driver whose only consumers are primary outputs.
    mig_network net;
    const signal a = net.create_pi();
    const signal b = net.create_pi();
    net.create_po(a, "a");
    net.create_po(net.create_and(a, b));
    net.create_po(!a, "na");
    expect_fanouts_match_reference(net, "PO-only driver");
    EXPECT_EQ(compute_fanouts(net).degree(a.index()), 3u);
  }
  {
    // Only PIs: no edges at all, with and without outputs.
    mig_network net;
    for (int i = 0; i < 5; ++i) {
      net.create_pi();
    }
    expect_fanouts_match_reference(net, "PIs only");
    EXPECT_EQ(max_fanout_degree(net), 0u);
    net.create_po(signal{3, false});
    expect_fanouts_match_reference(net, "PIs only, one output");
    EXPECT_EQ(max_fanout_degree(net), 1u);
  }
  {
    // Just the constant node.
    const mig_network net;
    expect_fanouts_match_reference(net, "empty network");
    EXPECT_EQ(max_fanout_degree(net), 0u);
  }
}

TEST(stats_struct, two_argument_form_reads_the_given_levels) {
  const auto net = gen::ripple_adder_circuit(8);
  const auto levels = compute_levels(net);
  const auto one = compute_stats(net);
  const auto two = compute_stats(net, levels);
  EXPECT_EQ(two.depth, levels.depth);
  EXPECT_EQ(two.depth, one.depth);
  EXPECT_EQ(two.components, one.components);
  EXPECT_EQ(two.max_fanout, one.max_fanout);
}

TEST(stats_struct, aggregates_counts_and_depth) {
  const auto net = gen::ripple_adder_circuit(8);
  const auto s = compute_stats(net);
  EXPECT_EQ(s.pis, 16u);
  EXPECT_EQ(s.pos, 9u);
  EXPECT_EQ(s.majorities, net.num_majorities());
  EXPECT_EQ(s.components, net.num_components());
  EXPECT_GE(s.depth, 8u);  // ripple chain
  EXPECT_GT(s.max_fanout, 1u);
}

}  // namespace
}  // namespace wavemig
