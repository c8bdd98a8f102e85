#include "wavemig/io/mig_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"

namespace wavemig {
namespace {

mig_network round_trip(const mig_network& net) {
  std::stringstream ss;
  io::write_mig(net, ss);
  return io::read_mig(ss);
}

TEST(mig_format, round_trips_logic_networks) {
  const auto net = gen::multiplier_circuit(5);
  const auto back = round_trip(net);
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
  EXPECT_EQ(back.num_majorities(), net.num_majorities());
  EXPECT_TRUE(functionally_equivalent(net, back));
}

TEST(mig_format, round_trips_physical_netlists) {
  // Buffers and FOGs (never hashed) must survive exactly.
  auto piped = restrict_fanout(gen::multiplier_circuit(4), {3, true});
  auto balanced = insert_buffers(piped.net);
  const auto back = round_trip(balanced.net);
  EXPECT_EQ(back.num_buffers(), balanced.net.num_buffers());
  EXPECT_EQ(back.num_fanout_gates(), balanced.net.num_fanout_gates());
  EXPECT_EQ(compute_levels(back).depth, compute_levels(balanced.net).depth);
  EXPECT_TRUE(functionally_equivalent(balanced.net, back));
}

TEST(mig_format, preserves_names) {
  mig_network net;
  const signal x = net.create_pi("clock_en");
  const signal y = net.create_pi("data_in");
  const signal z = net.create_pi("sel");
  net.create_po(net.create_maj(x, y, z), "vote_out");
  const auto back = round_trip(net);
  EXPECT_EQ(back.pi_name(0), "clock_en");
  EXPECT_EQ(back.pi_name(2), "sel");
  EXPECT_EQ(back.po_name(0), "vote_out");
}

TEST(mig_format, handles_constants_and_complements) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  net.create_po(net.create_and(!a, b), "f");
  net.create_po(constant1, "one");
  net.create_po(!net.create_or(a, !b), "g");
  const auto back = round_trip(net);
  EXPECT_TRUE(functionally_equivalent(net, back));
  EXPECT_EQ(back.po_signal(1), constant1);
}

TEST(mig_format, written_text_is_structured) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  const signal m = net.create_maj(a, b, c);
  net.create_buffer(m);
  net.create_po(m, "f");
  std::stringstream ss;
  io::write_mig(net, ss, "example");
  const std::string text = ss.str();
  EXPECT_NE(text.find(".model example"), std::string::npos);
  EXPECT_NE(text.find(".inputs a b c"), std::string::npos);
  EXPECT_NE(text.find("= MAJ(a, b, c)"), std::string::npos);
  EXPECT_NE(text.find("= BUF("), std::string::npos);
  EXPECT_NE(text.find(".output f ="), std::string::npos);
}

TEST(mig_format, parses_comments_and_whitespace) {
  std::stringstream ss{R"(# header comment
.model t
.inputs a b c

# gate section
n1 = MAJ(a, !b, c)
n2 = BUF(n1)
n3 = FOG(n2)
.output f = !n3
)"};
  const auto net = io::read_mig(ss);
  EXPECT_EQ(net.num_pis(), 3u);
  EXPECT_EQ(net.num_majorities(), 1u);
  EXPECT_EQ(net.num_buffers(), 1u);
  EXPECT_EQ(net.num_fanout_gates(), 1u);
  EXPECT_TRUE(net.po_signal(0).is_complemented());
}

TEST(mig_format, error_use_before_definition) {
  std::stringstream ss{".inputs a b\nn1 = MAJ(a, b, n2)\nn2 = BUF(n1)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
}

TEST(mig_format, error_redefinition) {
  std::stringstream ss{".inputs a b c\nn1 = MAJ(a, b, c)\nn1 = BUF(a)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
}

TEST(mig_format, error_wrong_arity) {
  std::stringstream ss{".inputs a b\nn1 = MAJ(a, b)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
  std::stringstream ss2{".inputs a\nn1 = BUF(a, a)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss2), io::parse_error);
}

TEST(mig_format, error_unknown_kind_and_garbage) {
  std::stringstream ss{".inputs a b c\nn1 = NAND(a, b, c)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
  std::stringstream ss2{"this is not a netlist\n"};
  EXPECT_THROW(io::read_mig(ss2), io::parse_error);
}

TEST(mig_format, parse_error_reports_line_number) {
  std::stringstream ss{".inputs a b\n\nn1 = MAJ(a, b, zz)\n"};
  try {
    io::read_mig(ss);
    FAIL() << "expected parse_error";
  } catch (const io::parse_error& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
  }
}

TEST(mig_format, file_round_trip) {
  const auto net = gen::ripple_adder_circuit(6);
  const std::string path = ::testing::TempDir() + "wavemig_io_test.mig";
  io::write_mig_file(net, path);
  const auto back = io::read_mig_file(path);
  EXPECT_TRUE(functionally_equivalent(net, back));
  EXPECT_THROW(io::read_mig_file("/nonexistent/path.mig"), std::runtime_error);
}

TEST(mig_format, round_trips_buffer_runs) {
  const auto net = wave_pipeline(gen::multiplier_circuit(5)).net;
  ASSERT_TRUE(has_buffer_runs(net));
  std::stringstream ss;
  io::write_mig(net, ss);
  EXPECT_NE(ss.str().find("= BUF(n"), std::string::npos);
  const auto back = io::read_mig(ss);
  EXPECT_EQ(back.num_buffers(), net.num_buffers());
  EXPECT_EQ(back.num_buffer_nodes(), net.num_buffer_nodes());
  EXPECT_EQ(compute_levels(back).depth, compute_levels(net).depth);
  EXPECT_TRUE(check_wave_readiness(back).ready);
  EXPECT_TRUE(functionally_equivalent(net, back));
  EXPECT_EQ(engine::network_fingerprint(back), engine::network_fingerprint(net));

  std::stringstream hand{".inputs a\nn1 = BUF(a, 4)\nn2 = BUF(n1)\n.output f = !n2\n"};
  const auto runs = io::read_mig(hand);
  EXPECT_EQ(runs.num_buffers(), 5u);
  EXPECT_EQ(runs.num_buffer_nodes(), 2u);
  EXPECT_EQ(compute_levels(runs).depth, 5u);
  std::stringstream out;
  io::write_mig(runs, out);
  EXPECT_NE(out.str().find("n2 = BUF(a, 4)\n"), std::string::npos);
  EXPECT_NE(out.str().find("n3 = BUF(n2)\n"), std::string::npos);
}

TEST(mig_format, writes_pis_at_their_node_positions) {
  // PIs interleaved with other nodes, as insert_buffers leaves them: each
  // run of consecutive PIs gets its own `.inputs` line at its position.
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal run = net.create_buffer(a, 3);
  const signal c = net.create_pi("c");
  net.create_po(net.create_maj(run, b, !c), "f");
  net.create_pi("d");

  std::stringstream ss;
  io::write_mig(net, ss);
  EXPECT_EQ(ss.str(),
            "# wavemig netlist\n.model mig\n.inputs a b\nn3 = BUF(a, 3)\n.inputs c\n"
            "n5 = MAJ(b, n3, !c)\n.inputs d\n.output f = n5\n");
  const auto back = io::read_mig(ss);
  EXPECT_EQ(engine::network_fingerprint(back), engine::network_fingerprint(net));
  EXPECT_EQ(back.pi_name(3), "d");
}

TEST(mig_format, rejects_hostile_run_lengths) {
  const auto rejects = [](const std::string& text, std::size_t line) {
    std::stringstream ss{text};
    try {
      (void)io::read_mig(ss);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const io::parse_error& e) {
      EXPECT_EQ(e.line(), line) << text << ": " << e.what();
    }
  };
  rejects(".inputs a\nn1 = BUF(a, 0)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, -3)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 3x)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, )\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 2, 3)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 4294967296)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 99999999999999999999999)\n", 2);
  // The unit-buffer form would outgrow the 31-bit node index space, which
  // also bounds every level: one run, or runs that fit one at a time.
  rejects(".inputs a\nn1 = BUF(a, 4294967295)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 2147483647)\n", 2);
  rejects(".inputs a\nn1 = BUF(a, 2000000000)\nn2 = BUF(n1, 2000000000)\n", 3);
  rejects(".inputs a b\nn1 = BUF(a, 2000000000)\nn2 = BUF(b, 200000000)\n", 3);

  std::stringstream deep{".inputs a\nn1 = BUF(a, 2000000000)\n.output f = n1\n"};
  EXPECT_EQ(compute_levels(io::read_mig(deep)).depth, 2000000000u);
}

}  // namespace
}  // namespace wavemig
