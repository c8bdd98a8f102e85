#include "wavemig/simulation.hpp"

#include <random>
#include <stdexcept>

#include "wavemig/engine/compiled_netlist.hpp"

// Thin front-ends over the compiled execution engine: every entry point
// lowers the network once (engine::compiled_netlist) and evaluates the
// folded majority-only program — buffers and fan-out gates cost nothing
// here, and repeated evaluations (equivalence checking) reuse the compile.

namespace wavemig {

std::vector<std::uint64_t> simulate_words(const mig_network& net,
                                          const std::vector<std::uint64_t>& pi_words) {
  if (pi_words.size() != net.num_pis()) {
    throw std::invalid_argument{"simulate_words: one word per primary input required"};
  }
  return engine::compiled_netlist::comb_only(net).eval_words(pi_words);
}

std::vector<truth_table> simulate_truth_tables(const mig_network& net) {
  const auto num_vars = static_cast<unsigned>(net.num_pis());
  if (num_vars > 20) {
    throw std::invalid_argument{"simulate_truth_tables: at most 20 inputs supported"};
  }

  const auto compiled = engine::compiled_netlist::comb_only(net);
  std::vector<truth_table> slots;
  compiled.eval([&](std::uint32_t i) { return truth_table::nth_var(num_vars, i); },
                truth_table{num_vars}, slots);

  std::vector<truth_table> result;
  result.reserve(net.num_pos());
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    result.push_back(compiled.po_value(slots, p));
  }
  return result;
}

std::vector<bool> simulate_pattern(const mig_network& net, const std::vector<bool>& inputs) {
  if (inputs.size() != net.num_pis()) {
    throw std::invalid_argument{"simulate_pattern: one value per primary input required"};
  }
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? ~std::uint64_t{0} : 0;
  }
  const auto out = simulate_words(net, words);
  std::vector<bool> result(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    result[i] = (out[i] & 1u) != 0;
  }
  return result;
}

bool functionally_equivalent(const mig_network& a, const mig_network& b, unsigned rounds,
                             std::uint64_t seed, unsigned exact_limit) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  if (a.num_pis() <= exact_limit) {
    return simulate_truth_tables(a) == simulate_truth_tables(b);
  }

  // Compile both networks once and reuse scratch across the random rounds.
  const auto ca = engine::compiled_netlist::comb_only(a);
  const auto cb = engine::compiled_netlist::comb_only(b);
  std::vector<std::uint64_t> words(a.num_pis());
  std::vector<std::uint64_t> out_a(a.num_pos());
  std::vector<std::uint64_t> out_b(b.num_pos());
  std::vector<std::uint64_t> scratch_a;
  std::vector<std::uint64_t> scratch_b;

  std::mt19937_64 rng{seed};
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& w : words) {
      w = rng();
    }
    ca.eval_planes_block(words.data(), 1, out_a.data(), 1, 1, scratch_a);
    cb.eval_planes_block(words.data(), 1, out_b.data(), 1, 1, scratch_b);
    if (out_a != out_b) {
      return false;
    }
  }
  return true;
}

}  // namespace wavemig
