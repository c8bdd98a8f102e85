#include "wavemig/mig.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "wavemig/simulation.hpp"

namespace wavemig {
namespace {

TEST(mig_network, starts_with_constant_node_only) {
  mig_network net;
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_TRUE(net.is_constant(0));
  EXPECT_EQ(net.get_constant(false), constant0);
  EXPECT_EQ(net.get_constant(true), constant1);
}

TEST(mig_network, primary_inputs_have_names_and_positions) {
  mig_network net;
  const signal a = net.create_pi("alpha");
  const signal b = net.create_pi();
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.pi_name(0), "alpha");
  EXPECT_EQ(net.pi_name(1), "pi1");
  EXPECT_EQ(net.pi_position(a.index()), 0u);
  EXPECT_EQ(net.pi_position(b.index()), 1u);
}

TEST(mig_network, majority_reduces_equal_fanins) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  EXPECT_EQ(net.create_maj(a, a, b), a);   // M(x,x,y) = x
  EXPECT_EQ(net.create_maj(b, a, b), b);
  EXPECT_EQ(net.create_maj(!a, b, !a), !a);
  EXPECT_EQ(net.num_majorities(), 0u);
}

TEST(mig_network, majority_reduces_complementary_fanins) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  EXPECT_EQ(net.create_maj(a, !a, b), b);  // M(x,!x,y) = y
  EXPECT_EQ(net.create_maj(b, a, !b), a);
  EXPECT_EQ(net.create_maj(constant0, constant1, b), b);
  EXPECT_EQ(net.num_majorities(), 0u);
}

TEST(mig_network, structural_hashing_reuses_nodes) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(c, a, b);  // any permutation
  const signal m3 = net.create_maj(b, c, a);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m3);
  EXPECT_EQ(net.num_majorities(), 1u);
}

TEST(mig_network, self_duality_canonicalization) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  // M(!a,!b,c) must map onto the complement of M(a,b,!c): one shared node.
  const signal m1 = net.create_maj(!a, !b, c);
  const signal m2 = net.create_maj(a, b, !c);
  EXPECT_EQ(m1.index(), m2.index());
  EXPECT_NE(m1.is_complemented(), m2.is_complemented());
  EXPECT_EQ(net.num_majorities(), 1u);
  // Triple complement: M(!a,!b,!c) = !M(a,b,c).
  const signal m3 = net.create_maj(!a, !b, !c);
  const signal m4 = net.create_maj(a, b, c);
  EXPECT_EQ(m3, !m4);
}

TEST(mig_network, stored_majorities_have_at_most_one_complemented_fanin) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_maj(!a, !b, c);
  net.create_maj(!a, !b, !c);
  net.create_maj(a, !b, c);
  net.foreach_gate([&](node_index n) {
    int complemented = 0;
    for (const signal f : net.fanins(n)) {
      complemented += f.is_complemented() ? 1 : 0;
    }
    EXPECT_LE(complemented, 1);
  });
}

TEST(mig_network, and_or_are_majorities_with_constants) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  net.create_po(net.create_and(a, b), "and");
  net.create_po(net.create_or(a, b), "or");
  const auto tts = simulate_truth_tables(net);
  EXPECT_EQ(tts[0], truth_table::nth_var(2, 0) & truth_table::nth_var(2, 1));
  EXPECT_EQ(tts[1], truth_table::nth_var(2, 0) | truth_table::nth_var(2, 1));
}

TEST(mig_network, xor_and_mux_construction) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal s = net.create_pi();
  net.create_po(net.create_xor(a, b), "xor");
  net.create_po(net.create_mux(s, a, b), "mux");
  const auto tts = simulate_truth_tables(net);
  const auto ta = truth_table::nth_var(3, 0);
  const auto tb = truth_table::nth_var(3, 1);
  const auto ts = truth_table::nth_var(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb);
  EXPECT_EQ(tts[1], truth_table::ite(ts, ta, tb));
}

TEST(mig_network, full_adder_is_three_gates) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const auto [sum, carry] = net.create_full_adder(a, b, c);
  net.create_po(sum, "s");
  net.create_po(carry, "c");
  EXPECT_EQ(net.num_majorities(), 3u);
  const auto tts = simulate_truth_tables(net);
  const auto ta = truth_table::nth_var(3, 0);
  const auto tb = truth_table::nth_var(3, 1);
  const auto tc = truth_table::nth_var(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb ^ tc);
  EXPECT_EQ(tts[1], truth_table::maj(ta, tb, tc));
}

TEST(mig_network, buffers_and_fanouts_are_not_hashed) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b1 = net.create_buffer(a);
  const signal b2 = net.create_buffer(a);
  EXPECT_NE(b1, b2);
  const signal f1 = net.create_fanout(a);
  const signal f2 = net.create_fanout(a);
  EXPECT_NE(f1, f2);
  EXPECT_EQ(net.num_buffers(), 2u);
  EXPECT_EQ(net.num_fanout_gates(), 2u);
  EXPECT_EQ(net.num_components(), 4u);
}

TEST(mig_network, fanin_spans_by_kind) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  const signal buf = net.create_buffer(m);
  EXPECT_EQ(net.fanins(a.index()).size(), 0u);
  EXPECT_EQ(net.fanins(m.index()).size(), 3u);
  EXPECT_EQ(net.fanins(buf.index()).size(), 1u);
  EXPECT_EQ(net.fanins(buf.index())[0], m);
}

TEST(mig_network, po_registration_preserves_order_and_names) {
  mig_network net;
  const signal a = net.create_pi();
  EXPECT_EQ(net.create_po(a, "first"), 0u);
  EXPECT_EQ(net.create_po(!a, "second"), 1u);
  EXPECT_EQ(net.create_po(constant1), 2u);
  EXPECT_EQ(net.po_name(0), "first");
  EXPECT_EQ(net.po_name(2), "po2");
  EXPECT_EQ(net.po_signal(1), !a);
  EXPECT_EQ(net.po_signal(2), constant1);
}

TEST(mig_network, rejects_dangling_signal_references) {
  mig_network net;
  const signal bogus{99, false};
  const signal a = net.create_pi();
  EXPECT_THROW(net.create_maj(a, a, bogus), std::invalid_argument);
  EXPECT_THROW(net.create_buffer(bogus), std::invalid_argument);
  EXPECT_THROW(net.create_po(bogus), std::invalid_argument);
}

TEST(mig_network, index_order_is_topological) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  const signal m3 = net.create_maj(m2, m1, c);
  net.create_po(m3);
  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      EXPECT_LT(f.index(), n);
    }
  });
}

TEST(mig_network, structural_hashing_survives_growth_and_copies) {
  // Enough gates to grow the hash table several times; every gate is found
  // again, in the network and in a copy, and a copy hashes on its own.
  mig_network net;
  std::vector<signal> pis;
  for (int i = 0; i < 40; ++i) {
    pis.push_back(net.create_pi());
  }
  struct triple {
    int i, j, l;
  };
  std::vector<triple> triples;
  std::vector<signal> gates;
  for (int i = 0; i < 20; ++i) {
    for (int j = i + 1; j <= i + 8; ++j) {
      for (int l = j + 1; l <= j + 3; ++l) {
        triples.push_back({i, j, l});
        gates.push_back(net.create_maj(pis[i], !pis[j], pis[l]));
      }
    }
  }
  const std::size_t majorities = net.num_majorities();
  ASSERT_EQ(majorities, triples.size());
  const mig_network copy = net;
  mig_network grown = net;
  for (std::size_t k = 0; k < triples.size(); ++k) {
    const auto [i, j, l] = triples[k];
    EXPECT_EQ(net.create_maj(pis[l], pis[i], !pis[j]), gates[k]);
    EXPECT_EQ(grown.create_maj(!pis[j], pis[l], pis[i]), gates[k]);
  }
  EXPECT_EQ(net.num_majorities(), majorities);
  EXPECT_EQ(grown.num_majorities(), majorities);
  // A gate new to the copy is not in the original.
  const signal fresh = grown.create_maj(gates[0], gates[1], gates[2]);
  EXPECT_EQ(grown.num_majorities(), majorities + 1);
  EXPECT_EQ(copy.num_majorities(), majorities);
  EXPECT_EQ(net.create_maj(gates[0], gates[1], gates[2]), fresh);  // same next index
  EXPECT_EQ(net.num_majorities(), majorities + 1);
}

TEST(mig_network, buffer_runs_count_their_stages) {
  mig_network net;
  const signal a = net.create_pi();
  const signal run = net.create_buffer(a, 7);
  const signal unit = net.create_buffer(run);
  EXPECT_EQ(net.length(run.index()), 7u);
  EXPECT_EQ(net.length(unit.index()), 1u);
  EXPECT_EQ(net.length(net.create_fanout(unit).index()), 1u);
  EXPECT_EQ(net.num_buffers(), 8u);
  EXPECT_EQ(net.num_buffer_nodes(), 2u);
  EXPECT_EQ(net.num_components(), 9u);
  EXPECT_THROW((void)net.create_buffer(a, 0), std::invalid_argument);
  EXPECT_EQ(net.num_nodes(), 5u);
}

}  // namespace
}  // namespace wavemig
