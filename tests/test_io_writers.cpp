#include <gtest/gtest.h>

#include <sstream>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/io/blif.hpp"
#include "wavemig/io/dot.hpp"
#include "wavemig/io/verilog.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"

namespace wavemig {
namespace {

TEST(verilog_writer, emits_module_with_ports) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  net.create_po(net.create_maj(a, b, c), "f");
  std::stringstream ss;
  io::write_verilog(net, ss, "majority3");
  const std::string text = ss.str();
  EXPECT_NE(text.find("module majority3("), std::string::npos);
  EXPECT_NE(text.find("input \\a ;"), std::string::npos);
  EXPECT_NE(text.find("output \\f ;"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(verilog_writer, majority_expands_to_and_or) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  net.create_po(net.create_maj(a, !b, c), "f");
  std::stringstream ss;
  io::write_verilog(net, ss);
  const std::string text = ss.str();
  // (a & ~b) | (a & c) | (~b & c) with escaped names.
  EXPECT_NE(text.find("&"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
  EXPECT_NE(text.find("~"), std::string::npos);
}

TEST(verilog_writer, constants_and_identity_components) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal g = net.create_and(a, b);
  const signal buf = net.create_buffer(g);
  const signal fog = net.create_fanout(buf);
  net.create_po(fog, "f");
  std::stringstream ss;
  io::write_verilog(net, ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("1'b0"), std::string::npos);  // AND encoded as M(a,b,0)
  EXPECT_NE(text.find("// BUF"), std::string::npos);
  EXPECT_NE(text.find("// FOG"), std::string::npos);
}

TEST(verilog_writer, every_wire_is_declared_before_use) {
  const auto net = insert_buffers(gen::multiplier_circuit(3)).net;
  std::stringstream ss;
  io::write_verilog(net, ss);
  const std::string text = ss.str();
  std::size_t wires = 0;
  for (std::size_t pos = text.find("  wire "); pos != std::string::npos;
       pos = text.find("  wire ", pos + 1)) {
    ++wires;
  }
  EXPECT_EQ(wires, net.num_components());
}

TEST(dot_writer, renders_all_component_kinds) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  const signal m = net.create_maj(a, !b, c);
  const signal buf = net.create_buffer(m);
  net.create_po(net.create_fanout(buf), "f");
  std::stringstream ss;
  io::write_dot(net, ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("digraph mig"), std::string::npos);
  EXPECT_NE(text.find("MAJ"), std::string::npos);
  EXPECT_NE(text.find("BUF"), std::string::npos);
  EXPECT_NE(text.find("FOG"), std::string::npos);
  EXPECT_NE(text.find("style=dashed"), std::string::npos);  // complement edge
  EXPECT_NE(text.find("rank=same"), std::string::npos);     // level ranking
}

TEST(dot_writer, level_ranks_align_wave_fronts) {
  const auto net = insert_buffers(gen::ripple_adder_circuit(3)).net;
  std::stringstream ss;
  io::write_dot(net, ss);
  const std::string text = ss.str();
  // One rank group per level 0..depth.
  std::size_t ranks = 0;
  for (std::size_t pos = text.find("rank=same"); pos != std::string::npos;
       pos = text.find("rank=same", pos + 1)) {
    ++ranks;
  }
  EXPECT_GE(ranks, 4u);
}

TEST(run_writers, blif_verilog_and_dot_write_runs_as_unit_chains) {
  // The text formats have no run syntax: each writes the unit-buffer chain
  // the runs stand for, and reading it back gives the same circuit.
  const auto net = wave_pipeline(gen::multiplier_circuit(4)).net;
  ASSERT_TRUE(has_buffer_runs(net));
  const auto unit = expand_buffer_runs(net);
  const auto text = [](auto write, const mig_network& n) {
    std::stringstream ss;
    write(n, ss);
    return ss.str();
  };
  const auto blif = [](const mig_network& n, std::ostream& os) { io::write_blif(n, os); };
  const auto verilog = [](const mig_network& n, std::ostream& os) { io::write_verilog(n, os); };
  const auto dot = [](const mig_network& n, std::ostream& os) { io::write_dot(n, os); };
  EXPECT_EQ(text(blif, net), text(blif, unit));
  EXPECT_EQ(text(verilog, net), text(verilog, unit));
  EXPECT_EQ(text(dot, net), text(dot, unit));

  std::stringstream blif_text{text(blif, net)};
  const auto from_blif = io::read_blif(blif_text);
  EXPECT_TRUE(functionally_equivalent(net, from_blif));

  // Verilog keeps every component: the stats of the run netlist come back.
  std::stringstream verilog_text{text(verilog, net)};
  const auto from_verilog = io::read_verilog(verilog_text);
  EXPECT_TRUE(functionally_equivalent(net, from_verilog));
  const auto want = compute_stats(net);
  const auto got = compute_stats(from_verilog);
  EXPECT_EQ(got.majorities, want.majorities);
  EXPECT_EQ(got.buffers, want.buffers);
  EXPECT_EQ(got.fanout_gates, want.fanout_gates);
  EXPECT_EQ(got.components, want.components);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.max_fanout, want.max_fanout);
  EXPECT_TRUE(check_wave_readiness(from_verilog).ready);
}

}  // namespace
}  // namespace wavemig
