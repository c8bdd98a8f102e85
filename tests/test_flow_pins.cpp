// Pins the exact netlists the wave-pipelining passes emit. Each case's
// output is expanded to unit buffers (expand_buffer_runs, with
// expand_schedule for the schedule) and reduced to
// engine::network_fingerprint (node kinds, fan-in signals in node order,
// PI positions, PO drivers) and, for insert_buffers, a hash of the returned
// schedule. The constants are the outputs the passes have always produced,
// recorded before buffers were stored as runs: a change to their
// containers, iteration order or run collapsing must reproduce the same
// unit-buffer circuit bit for bit. Any reordering of fan-out edges, taps,
// buffer-tree vertices or created nodes changes a fingerprint and fails
// here, not only in a paper figure.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/pipeline.hpp"

namespace wavemig {
namespace {

struct flow_pin {
  const char* circuit;
  const char* scenario;
  std::uint64_t fingerprint;
  std::size_t components;
};

// wave_pipeline with default options under each scenario.
const std::vector<flow_pin> flow_pins{
    {"sasc", "SWD", 0x0b1c76685e736090ull, 1114},
    {"i2c", "SWD", 0x72b776ed81c44575ull, 1833},
    {"systemcdes", "SWD", 0x2caec08124fe8f8bull, 14520},
    {"crc32_8", "SWD", 0xd3459a5a926f0f6eull, 1495},
    {"revx", "SWD", 0x2647923db216050aull, 14579},
    {"fsm_small", "SWD", 0x723f185039332320ull, 2972},
    {"adder64", "SWD", 0xad1ddc768e865da6ull, 5699},
    {"mul16", "SWD", 0x94e9ebb12bed8b61ull, 32581},
    {"hamming", "SWD", 0x3130d73ef4019669ull, 3212},
    {"voter101", "SWD", 0xcb0ef35e64f784e7ull, 1608},
    {"barrel64", "SWD", 0xc85eee2a55107dd9ull, 5638},
    {"dec8", "SWD", 0xfcb9410bd6b19496ull, 937},
    {"sasc", "FDM-SWD", 0x298338e74f455c79ull, 1603},
    {"i2c", "FDM-SWD", 0xfd6fa87e0c172874ull, 2724},
    {"systemcdes", "FDM-SWD", 0x904a50fb8a93ead6ull, 23661},
    {"crc32_8", "FDM-SWD", 0xa2d03b37dd01a64bull, 1712},
    {"revx", "FDM-SWD", 0xffde372d7c9a3b1eull, 23956},
    {"fsm_small", "FDM-SWD", 0x37b22b1ccef0f291ull, 5805},
    {"adder64", "FDM-SWD", 0xe65a414e9b7230feull, 7950},
    {"mul16", "FDM-SWD", 0x0cf9df90d5cb88b2ull, 39788},
    {"hamming", "FDM-SWD", 0x6489a44350d4f29aull, 4768},
    {"voter101", "FDM-SWD", 0xc591bd7274e9d528ull, 2357},
    {"barrel64", "FDM-SWD", 0xef93f2ae60bda561ull, 7162},
    {"dec8", "FDM-SWD", 0xe13da4d1892fdf3eull, 1368},
};

struct buffer_pin {
  const char* circuit;
  bool restricted;  ///< input is restrict_fanout(circuit, limit 3), else the circuit itself
  buffer_strategy strategy;
  schedule_policy schedule;
  unsigned tolerance;
  std::uint64_t fingerprint;
  std::uint64_t schedule_hash;
  std::size_t buffers_added;
};

constexpr auto naive = buffer_strategy::naive;
constexpr auto chain = buffer_strategy::chain;
constexpr auto tree = buffer_strategy::tree;
constexpr auto asap = schedule_policy::asap;
constexpr auto alap = schedule_policy::alap;
constexpr auto mid_slack = schedule_policy::mid_slack;

// insert_buffers over strategy x schedule x tolerance; `tree` runs with
// fanout_limit 3 on the restricted input only (the raw circuits exceed it).
const std::vector<buffer_pin> buffer_pins{
    {"mul8", false, naive, asap, 0, 0x19bd619f083867aeull, 0x8410c7397f8d3620ull, 2014},
    {"mul8", false, naive, asap, 1, 0xd97630746503117full, 0xdb55c0cc50dd4300ull, 1747},
    {"mul8", false, naive, alap, 0, 0xced49103c913fae2ull, 0x2fef7fce57c070a0ull, 1903},
    {"mul8", false, naive, alap, 1, 0x5479e5ec4a06e9f4ull, 0x0b3851720b0787f8ull, 1585},
    {"mul8", false, naive, mid_slack, 0, 0x9da679183c194db5ull, 0x4700adf1a9c68f39ull, 1931},
    {"mul8", false, naive, mid_slack, 1, 0xee77547040bb79beull, 0x4ae55ddd5ce21600ull, 1531},
    {"mul8", false, chain, asap, 0, 0xf2399ed7c524864bull, 0x9ba887a287586ccbull, 885},
    {"mul8", false, chain, asap, 1, 0xaa96da5c86a3d7e6ull, 0xee8f5a0f2427d6a6ull, 741},
    {"mul8", false, chain, alap, 0, 0x4c2bd812a7ed8b56ull, 0x24c2540fdedf7cfbull, 740},
    {"mul8", false, chain, alap, 1, 0x7ecc9f4094a30e13ull, 0xb68086475581cef7ull, 611},
    {"mul8", false, chain, mid_slack, 0, 0x788f9fc6ad141d72ull, 0x0297f1bed1154081ull, 809},
    {"mul8", false, chain, mid_slack, 1, 0xcff43e296a151419ull, 0x4ef6c832316d898full, 637},
    {"mul8", true, naive, asap, 0, 0x04b6c951c12c2594ull, 0xd12c36394dda2da8ull, 4943},
    {"mul8", true, naive, asap, 1, 0x35f311e96048bac7ull, 0x913ba107fe9b003aull, 4559},
    {"mul8", true, naive, alap, 0, 0xb698a2830c70ed99ull, 0x01c9b412739d0bf8ull, 2964},
    {"mul8", true, naive, alap, 1, 0x6e0f20bebdb8ec00ull, 0x6cc7dc19f8f474f9ull, 2519},
    {"mul8", true, naive, mid_slack, 0, 0x1aa39e80573c98f8ull, 0xe92222243a5b24c7ull, 3934},
    {"mul8", true, naive, mid_slack, 1, 0x6fceeac81ffa1b90ull, 0x3ac6f593294517b0ull, 3340},
    {"mul8", true, chain, asap, 0, 0x20ae3f65762f927bull, 0x24860489ea2ff877ull, 3341},
    {"mul8", true, chain, asap, 1, 0x38f3039ea4841669ull, 0xbab8c57ea970dbdbull, 3049},
    {"mul8", true, chain, alap, 0, 0x5b60a64a8a8710d5ull, 0x1759475f201abf36ull, 2469},
    {"mul8", true, chain, alap, 1, 0x82c9030bab076cc0ull, 0x976eaad093b0b3d4ull, 2145},
    {"mul8", true, chain, mid_slack, 0, 0x69c08a59e6bdc1c2ull, 0x3b0a7434ff0099b7ull, 2869},
    {"mul8", true, chain, mid_slack, 1, 0x28d7ae7371de34a3ull, 0x98f734a443e3e200ull, 2451},
    {"mul8", true, tree, asap, 0, 0x20ae3f65762f927bull, 0x24860489ea2ff877ull, 3341},
    {"mul8", true, tree, asap, 1, 0x38f3039ea4841669ull, 0xbab8c57ea970dbdbull, 3049},
    {"mul8", true, tree, alap, 0, 0x5b60a64a8a8710d5ull, 0x1759475f201abf36ull, 2469},
    {"mul8", true, tree, alap, 1, 0x82c9030bab076cc0ull, 0x976eaad093b0b3d4ull, 2145},
    {"mul8", true, tree, mid_slack, 0, 0x69c08a59e6bdc1c2ull, 0x3b0a7434ff0099b7ull, 2869},
    {"mul8", true, tree, mid_slack, 1, 0x28d7ae7371de34a3ull, 0x98f734a443e3e200ull, 2451},
    {"i2c", false, naive, asap, 0, 0xc805e10c36c4c966ull, 0xa801d4f132153093ull, 180},
    {"i2c", false, naive, asap, 1, 0x4673edaa6b6a6cfcull, 0xbbbe464d2bc52dd9ull, 12},
    {"i2c", false, naive, alap, 0, 0x4f3001e0eb5b9348ull, 0x9f46bb5d34bc1687ull, 405},
    {"i2c", false, naive, alap, 1, 0xd8e9574f811b1916ull, 0xc138820cc663f54bull, 82},
    {"i2c", false, naive, mid_slack, 0, 0x70cc634028da6e7cull, 0x3fa617a38eb15ee6ull, 226},
    {"i2c", false, naive, mid_slack, 1, 0xc6cb89c5b2374f9eull, 0x517b59ffaecd429full, 4},
    {"i2c", false, chain, asap, 0, 0x43f9b3d67fc5cab4ull, 0xd332f547dadc62f7ull, 127},
    {"i2c", false, chain, asap, 1, 0x4673edaa6b6a6cfcull, 0xbbbe464d2bc52dd9ull, 12},
    {"i2c", false, chain, alap, 0, 0x7f1bc012d2de842aull, 0x066a118da16f1547ull, 86},
    {"i2c", false, chain, alap, 1, 0xff217ab6647a3492ull, 0xb363bc079b4d6c12ull, 37},
    {"i2c", false, chain, mid_slack, 0, 0xb777fa16eb43d5a2ull, 0xea9e91dfca6bacb6ull, 117},
    {"i2c", false, chain, mid_slack, 1, 0xc6cb89c5b2374f9eull, 0x517b59ffaecd429full, 4},
    {"i2c", true, naive, asap, 0, 0xe7e4414553f1fc3aull, 0x2e254057c07dc841ull, 800},
    {"i2c", true, naive, asap, 1, 0x55db3f929fc0161bull, 0x0adedf415a3a2f06ull, 338},
    {"i2c", true, naive, alap, 0, 0xd75580ad9d45bf50ull, 0x7c2d11bb704d6899ull, 604},
    {"i2c", true, naive, alap, 1, 0x13d7aa08daaf6c9dull, 0x7977a81fd537a4d7ull, 178},
    {"i2c", true, naive, mid_slack, 0, 0x48d40b2578f27a2aull, 0x5363086af5a94fa4ull, 675},
    {"i2c", true, naive, mid_slack, 1, 0xb3d00a2e0479c1eeull, 0x0b598932c5f014feull, 90},
    {"i2c", true, chain, asap, 0, 0x72b776ed81c44575ull, 0xd37f2566151c2f2eull, 725},
    {"i2c", true, chain, asap, 1, 0x56d1104f6ede7bafull, 0x4b9506e22736b1cdull, 332},
    {"i2c", true, chain, alap, 0, 0xe9430c28e5cf2f06ull, 0x4ec543314545d710ull, 466},
    {"i2c", true, chain, alap, 1, 0xebeeca39b828f599ull, 0xbeeb4bb56a382f9bull, 168},
    {"i2c", true, chain, mid_slack, 0, 0x0ebc8c83ea83bbcfull, 0x34249fc54bc08340ull, 547},
    {"i2c", true, chain, mid_slack, 1, 0xdf4fed0099a21779ull, 0x7c9b6d0bf67eed72ull, 87},
    {"i2c", true, tree, asap, 0, 0x72b776ed81c44575ull, 0xd37f2566151c2f2eull, 725},
    {"i2c", true, tree, asap, 1, 0x56d1104f6ede7bafull, 0x4b9506e22736b1cdull, 332},
    {"i2c", true, tree, alap, 0, 0xe9430c28e5cf2f06ull, 0x4ec543314545d710ull, 466},
    {"i2c", true, tree, alap, 1, 0xebeeca39b828f599ull, 0xbeeb4bb56a382f9bull, 168},
    {"i2c", true, tree, mid_slack, 0, 0x0ebc8c83ea83bbcfull, 0x34249fc54bc08340ull, 547},
    {"i2c", true, tree, mid_slack, 1, 0xdf4fed0099a21779ull, 0x7c9b6d0bf67eed72ull, 87},
    {"revx", false, naive, asap, 0, 0x9ad2b73b97297e09ull, 0xad7f8303963a7df9ull, 10600},
    {"revx", false, naive, asap, 1, 0xc75bef9c3df66f06ull, 0x1434d8bd15b950cbull, 9135},
    {"revx", false, naive, alap, 0, 0xec51845f3800ce7full, 0x8c01d38b5422a670ull, 13317},
    {"revx", false, naive, alap, 1, 0xab6c772e62918746ull, 0x77b5569d18a1a1bfull, 11811},
    {"revx", false, naive, mid_slack, 0, 0xa8adf7e6a2fc10a5ull, 0xe40db7a834039d28ull, 11912},
    {"revx", false, naive, mid_slack, 1, 0x01eb1c7bebd4a720ull, 0x236ee377e4d1cd65ull, 9919},
    {"revx", false, chain, asap, 0, 0x75061a960ed4991aull, 0x8ff411db07b751cdull, 4940},
    {"revx", false, chain, asap, 1, 0xc27a1f31252cd080ull, 0xb29e5d888c8264c6ull, 4215},
    {"revx", false, chain, alap, 0, 0x93d8b6c3d104b4acull, 0x0c52fc47019b8b63ull, 3324},
    {"revx", false, chain, alap, 1, 0x588ee7c8735d14beull, 0xfe7e4a07dac5994aull, 2976},
    {"revx", false, chain, mid_slack, 0, 0x7123c9d30729d6e7ull, 0xf77d8d87871fbf94ull, 4026},
    {"revx", false, chain, mid_slack, 1, 0xf9a3ccdfff45728cull, 0x414eac0eeb41da9full, 3296},
    {"revx", true, naive, asap, 0, 0xdf2612b303e7007cull, 0xd9dbca7991d559b8ull, 18002},
    {"revx", true, naive, asap, 1, 0x8e763d19d2c7c82cull, 0x071de5eb87e400d1ull, 16422},
    {"revx", true, naive, alap, 0, 0x5aab461c4e70e8abull, 0xae43fd0ceba1ac51ull, 13109},
    {"revx", true, naive, alap, 1, 0x729afe7f9217e361ull, 0x473332d6ed427863ull, 11782},
    {"revx", true, naive, mid_slack, 0, 0x1a4c25a92d9f4d50ull, 0x6da2e91b269efb14ull, 15574},
    {"revx", true, naive, mid_slack, 1, 0x23c953ee94a69eb0ull, 0x09327ab296b0fd68ull, 13304},
    {"revx", true, chain, asap, 0, 0x2647923db216050aull, 0x3d3d57ba0206703dull, 11426},
    {"revx", true, chain, asap, 1, 0x648eb9bbe9c9ff22ull, 0x3f2b27b2fca35e8full, 10397},
    {"revx", true, chain, alap, 0, 0x76f2f6a2b8d7f5cfull, 0xb89068bc3998659cull, 9458},
    {"revx", true, chain, alap, 1, 0x5b6324ce24432585ull, 0x102b78cadf33ecdeull, 8571},
    {"revx", true, chain, mid_slack, 0, 0xb2ff780f287ccd1bull, 0x2c44201a620fa0e3ull, 10254},
    {"revx", true, chain, mid_slack, 1, 0xc93e9f5a93690f2bull, 0x273ba5980a8b121dull, 8831},
    {"revx", true, tree, asap, 0, 0x2647923db216050aull, 0x3d3d57ba0206703dull, 11426},
    {"revx", true, tree, asap, 1, 0x648eb9bbe9c9ff22ull, 0x3f2b27b2fca35e8full, 10397},
    {"revx", true, tree, alap, 0, 0x76f2f6a2b8d7f5cfull, 0xb89068bc3998659cull, 9458},
    {"revx", true, tree, alap, 1, 0x5b6324ce24432585ull, 0x102b78cadf33ecdeull, 8571},
    {"revx", true, tree, mid_slack, 0, 0xb2ff780f287ccd1bull, 0x2c44201a620fa0e3ull, 10254},
    {"revx", true, tree, mid_slack, 1, 0xc93e9f5a93690f2bull, 0x273ba5980a8b121dull, 8831},
};

/// One PI feeding two gates at each of six depths beside a chain: with
/// fan-out capacity 3 its buffer tree needs several vertices per depth, so
/// the order in which carriers and taps fill them shows in the netlist
/// (after restrict_fanout every tree is a chain, and the order never shows).
mig_network wide_driver_circuit() {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal c = net.create_pi("c");
  signal chain = net.create_maj(a, c, net.create_pi("d"));
  for (int depth = 1; depth <= 6; ++depth) {
    const signal e = net.create_pi();
    net.create_po(net.create_maj(a, chain, e));
    net.create_po(net.create_maj(!a, chain, !e));
    chain = net.create_maj(chain, c, e);
  }
  net.create_po(chain);
  return net;
}

struct wide_tree_pin {
  schedule_policy schedule;
  unsigned tolerance;
  std::uint64_t fingerprint;
  std::uint64_t schedule_hash;
  std::size_t buffers_added;
};

// insert_buffers, tree strategy, fanout_limit 3, on wide_driver_circuit.
// asap with tolerance 1 puts more taps at depth 0 than the driver can take
// and throws.
const std::vector<wide_tree_pin> wide_tree_pins{
    {asap, 0, 0x671ec4459780d6ccull, 0xca3000eab021077eull, 63},
    {alap, 0, 0xe58a6a13d9342e14ull, 0x176e6e427077d1d1ull, 67},
    {alap, 1, 0x83ed2b74c1c19a33ull, 0x1ed7af2e4d7ed80dull, 54},
    {mid_slack, 0, 0xc2ac585486be6d67ull, 0x2837f19304470af8ull, 66},
    {mid_slack, 1, 0x56f0ddf7844244c1ull, 0x5476543925b33706ull, 44},
};

/// FNV-1a over the scheduled levels and the schedule depth.
std::uint64_t schedule_hash(const level_map& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t level : schedule.level) {
    h = (h ^ level) * 1099511628211ull;
  }
  return (h ^ schedule.depth) * 1099511628211ull;
}

TEST(flow_pins, wave_pipeline_emits_the_pinned_netlists) {
  for (const auto& pin : flow_pins) {
    pipeline_options opts;
    opts.scenario = tech_scenario::by_name(pin.scenario);
    const auto result = wave_pipeline(gen::build_benchmark(pin.circuit), opts);
    EXPECT_EQ(engine::network_fingerprint(expand_buffer_runs(result.net)), pin.fingerprint)
        << pin.circuit << " under " << pin.scenario;
    EXPECT_EQ(result.final_stats.components, pin.components)
        << pin.circuit << " under " << pin.scenario;
    EXPECT_TRUE(result.wave_ready) << pin.circuit << " under " << pin.scenario;
  }
}

TEST(flow_pins, insert_buffers_emits_the_pinned_netlists_and_schedules) {
  std::string loaded;
  mig_network raw;
  mig_network restricted;
  for (const auto& pin : buffer_pins) {
    if (loaded != pin.circuit) {
      loaded = pin.circuit;
      raw = gen::build_benchmark(pin.circuit);
      restricted = restrict_fanout(raw, {3, true}).net;
    }
    buffer_insertion_options opts;
    opts.strategy = pin.strategy;
    opts.schedule = pin.schedule;
    opts.tolerance = pin.tolerance;
    if (pin.strategy == buffer_strategy::tree) {
      opts.fanout_limit = 3;
    }
    const auto result = insert_buffers(pin.restricted ? restricted : raw, opts);
    const std::string what = std::string{pin.circuit} + (pin.restricted ? " restricted" : " raw") +
                             ", strategy " + std::to_string(static_cast<int>(pin.strategy)) +
                             ", schedule " + std::to_string(static_cast<int>(pin.schedule)) +
                             ", tolerance " + std::to_string(pin.tolerance);
    EXPECT_EQ(engine::network_fingerprint(expand_buffer_runs(result.net)), pin.fingerprint)
        << what;
    EXPECT_EQ(schedule_hash(expand_schedule(result.net, result.schedule)), pin.schedule_hash)
        << what;
    EXPECT_EQ(result.buffers_added, pin.buffers_added) << what;
  }
}

TEST(flow_pins, multi_vertex_buffer_trees_are_pinned) {
  const auto net = wide_driver_circuit();
  buffer_insertion_options opts;
  opts.strategy = buffer_strategy::tree;
  opts.fanout_limit = 3;
  for (const auto& pin : wide_tree_pins) {
    opts.schedule = pin.schedule;
    opts.tolerance = pin.tolerance;
    const auto result = insert_buffers(net, opts);
    const std::string what = "schedule " + std::to_string(static_cast<int>(pin.schedule)) +
                             ", tolerance " + std::to_string(pin.tolerance);
    EXPECT_EQ(engine::network_fingerprint(expand_buffer_runs(result.net)), pin.fingerprint)
        << what;
    EXPECT_EQ(schedule_hash(expand_schedule(result.net, result.schedule)), pin.schedule_hash)
        << what;
    EXPECT_EQ(result.buffers_added, pin.buffers_added) << what;
  }
  opts.schedule = asap;
  opts.tolerance = 1;
  EXPECT_THROW((void)insert_buffers(net, opts), std::invalid_argument);
}

}  // namespace
}  // namespace wavemig
