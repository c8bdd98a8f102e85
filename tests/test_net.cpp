// Coverage for the network serving front-end (net/): the wire protocol's
// encode/decode pair, the loopback differential pin (wire responses
// bit-identical to in-process submit_packed), hostile-bytes framing
// behavior, the production policies mapped onto the serving layer
// (admission, deadlines, draining), and graceful-shutdown flushing. The
// server/client threading runs under the TSan CI job alongside
// test_parallel_engine and test_serving.

#include "wavemig/net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/net/client.hpp"
#include "wavemig/net/protocol.hpp"
#include "wavemig/net/socket.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavemig {
namespace {

/// Random plane-major words for `num_pis` planes of `num_waves` waves, tail
/// bits cleared so they pass strict validation unchanged.
std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::uint64_t seed) {
  const std::size_t chunks = (num_waves + 63) / 64;
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> words(num_pis * chunks);
  for (auto& word : words) {
    word = rng();
  }
  if (const std::size_t tail = num_waves % 64; tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    for (std::size_t p = 0; p < num_pis; ++p) {
      words[(p + 1) * chunks - 1] &= mask;
    }
  }
  return words;
}

std::string mig_text(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return os.str();
}

/// One executor + session + server stack on an ephemeral loopback port.
struct loopback_stack {
  explicit loopback_stack(unsigned workers = 2, unsigned dispatchers = 1,
                          net::server_options options = {})
      : executor{workers},
        serving{executor, {}, {}, dispatchers},
        server{serving, options} {}

  engine::parallel_executor executor;
  engine::serving_session serving;
  net::wire_server server;
};

net::run_request make_run(std::uint64_t fingerprint, const mig_network& net,
                          std::size_t num_waves, unsigned phases,
                          std::vector<std::uint64_t> payload) {
  net::run_request req;
  req.fingerprint = fingerprint;
  req.num_pis = static_cast<std::uint32_t>(net.num_pis());
  req.num_waves = num_waves;
  req.phases = phases;
  req.payload = std::move(payload);
  return req;
}

// ------------------------------------------------- protocol round trips ---

TEST(wire_protocol, run_frame_round_trips_through_encode_and_decode) {
  net::run_request req;
  req.id = 7;
  req.priority = 3;
  req.flags = net::run_flag_mask_tail_bits;
  req.deadline_ms = 250;
  req.phases = 4;
  req.num_pis = 9;
  req.fingerprint = 0x1122334455667788ull;
  req.num_waves = 130;
  req.scenario = "SWD";
  req.netlist = "# inline\n";
  req.payload = {1, 2, 3};

  auto frame = net::encode_run_frame_prefix(req);
  const std::size_t payload_at = frame.size();
  frame.resize(frame.size() + req.payload.size() * sizeof(std::uint64_t));
  std::memcpy(frame.data() + payload_at, req.payload.data(),
              req.payload.size() * sizeof(std::uint64_t));

  // Decode skips the u32 length word the encoder prepended.
  net::run_request out;
  const std::size_t body_size = frame.size() - 4;
  const std::size_t payload_offset = net::decode_run_body(frame.data() + 4, body_size, out);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.priority, req.priority);
  EXPECT_EQ(out.flags, req.flags);
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_EQ(out.phases, req.phases);
  EXPECT_EQ(out.num_pis, req.num_pis);
  EXPECT_EQ(out.fingerprint, req.fingerprint);
  EXPECT_EQ(out.num_waves, req.num_waves);
  EXPECT_EQ(out.scenario, req.scenario);
  EXPECT_EQ(out.netlist, req.netlist);
  EXPECT_EQ(body_size - payload_offset, req.payload.size() * sizeof(std::uint64_t));

  // Truncations and length disagreements are protocol errors, not UB.
  EXPECT_THROW((void)net::decode_run_body(frame.data() + 4, net::run_fixed_bytes - 2, out),
               net::protocol_error);
  EXPECT_THROW((void)net::decode_run_body(frame.data() + 4, net::run_fixed_bytes + 1, out),
               net::protocol_error);
}

TEST(wire_protocol, response_frames_round_trip_for_ok_and_error) {
  net::wire_response ok;
  ok.id = 11;
  ok.status = net::wire_status::ok;
  ok.fingerprint = 42;
  ok.result.num_pos = 2;
  ok.result.num_waves = 65;
  ok.result.words = {5, 6, 7, 8};
  ok.result.ticks = 99;
  ok.result.latency_ticks = 12;
  ok.result.initiation_interval = 1;
  ok.result.waves_in_flight = 12;

  auto frame = net::encode_response_frame_prefix(ok);
  const std::size_t words_at = frame.size();
  frame.resize(frame.size() + ok.result.words.size() * sizeof(std::uint64_t));
  std::memcpy(frame.data() + words_at, ok.result.words.data(),
              ok.result.words.size() * sizeof(std::uint64_t));
  const auto round = net::decode_response_body(frame.data() + 4, frame.size() - 4);
  EXPECT_EQ(round.id, ok.id);
  EXPECT_EQ(round.status, net::wire_status::ok);
  EXPECT_EQ(round.fingerprint, ok.fingerprint);
  EXPECT_EQ(round.result.words, ok.result.words);
  EXPECT_EQ(round.result.num_waves, ok.result.num_waves);
  EXPECT_EQ(round.result.ticks, ok.result.ticks);

  net::wire_response err;
  err.id = 12;
  err.status = net::wire_status::admission_rejected;
  err.message = "backlog full";
  const auto err_frame = net::encode_response_frame_prefix(err);
  const auto err_round = net::decode_response_body(err_frame.data() + 4, err_frame.size() - 4);
  EXPECT_EQ(err_round.id, err.id);
  EXPECT_EQ(err_round.status, net::wire_status::admission_rejected);
  EXPECT_EQ(err_round.message, err.message);
}

// ------------------------------------------------- the differential pin ---

/// The acceptance pin: responses served over loopback are bit-identical to
/// in-process submit_packed — same words, same clock metrics — at the chunk
/// boundary wave counts, per program, per scenario (untagged + two named).
TEST(wire_differential, loopback_matches_in_process_submit_packed) {
  loopback_stack stack{2, 2};
  auto client = net::wire_client::connect(stack.server.port());

  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(5));
  const auto random = std::make_shared<const mig_network>(
      gen::random_mig({12, 120, 0.5, 6, 2026}));
  const std::vector<std::pair<std::shared_ptr<const mig_network>, std::uint64_t>> programs = {
      {adder, client.register_program(*adder)},
      {random, client.register_program(*random)},
  };
  const std::vector<std::string> scenarios = {"", "SWD", "QCA"};
  const std::size_t wave_counts[] = {1, 63, 64, 65, 511};

  std::uint64_t seed = 1;
  for (const auto& [net, fingerprint] : programs) {
    for (const auto& scenario : scenarios) {
      for (const std::size_t waves : wave_counts) {
        const auto words = random_planes(net->num_pis(), waves, seed++);

        auto req = make_run(fingerprint, *net, waves, 3, words);
        req.scenario = scenario;
        const auto resp = client.run(std::move(req));
        ASSERT_EQ(resp.status, net::wire_status::ok)
            << net::to_string(resp.status) << ": " << resp.message;

        engine::submit_options opts;
        if (!scenario.empty()) {
          opts.scenario =
              std::make_shared<const tech_scenario>(tech_scenario::by_name(scenario));
        }
        const auto want =
            stack.serving.submit_packed(net, words, waves, 3, std::move(opts)).get();
        EXPECT_EQ(resp.result.words, want.words)
            << "waves=" << waves << " scenario=" << scenario;
        EXPECT_EQ(resp.result.num_waves, want.num_waves);
        EXPECT_EQ(resp.result.num_pos, want.num_pos);
        EXPECT_EQ(resp.result.ticks, want.ticks);
        EXPECT_EQ(resp.result.latency_ticks, want.latency_ticks);
        EXPECT_EQ(resp.result.initiation_interval, want.initiation_interval);
        EXPECT_EQ(resp.result.waves_in_flight, want.waves_in_flight);
        EXPECT_EQ(resp.fingerprint, fingerprint);
      }
    }
  }
  EXPECT_EQ(stack.server.stats().requests_refused, 0u);
}

/// Pipelined multi-client traffic: several clients each stream interleaved
/// requests over two programs; responses are matched by id and must still be
/// bit-identical to the in-process reference. TSan food for the
/// reader/writer/worker handoff.
TEST(wire_differential, concurrent_clients_pipeline_without_cross_talk) {
  loopback_stack stack{4, 2};

  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const auto parity = std::make_shared<const mig_network>(
      gen::random_mig({9, 60, 0.5, 4, 7}));

  constexpr int clients = 4;
  constexpr int per_client = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto client = net::wire_client::connect(stack.server.port());
        const std::uint64_t adder_fp = client.register_program(*adder);
        const std::uint64_t parity_fp = client.register_program(*parity);
        std::vector<std::uint64_t> ids;
        std::vector<std::vector<std::uint64_t>> payloads;
        std::vector<std::shared_ptr<const mig_network>> nets;
        std::vector<std::size_t> counts;
        for (int i = 0; i < per_client; ++i) {
          const auto& net = (i % 2 == 0) ? adder : parity;
          const std::size_t waves = 30 + 17 * static_cast<std::size_t>(i);
          const auto words =
              random_planes(net->num_pis(), waves,
                            static_cast<std::uint64_t>(c) * 100 + static_cast<std::uint64_t>(i));
          auto req = make_run((i % 2 == 0) ? adder_fp : parity_fp, *net, waves, 3, words);
          ids.push_back(client.send(std::move(req)));
          payloads.push_back(words);
          nets.push_back(net);
          counts.push_back(waves);
        }
        // Drain the pipelined responses (completion order, matched by id)
        // and hold each against the in-process reference.
        for (int drained = 0; drained < per_client; ++drained) {
          const auto resp = client.receive();
          if (resp.status != net::wire_status::ok) {
            failures[c] = resp.message;
            return;
          }
          int i = -1;
          for (int k = 0; k < per_client; ++k) {
            if (ids[k] == resp.id) {
              i = k;
              break;
            }
          }
          if (i < 0) {
            failures[c] = "response id matches no request";
            return;
          }
          const auto want =
              stack.serving.submit_packed(nets[i], payloads[i], counts[i], 3).get();
          if (resp.result.words != want.words) {
            failures[c] = "result words diverge from the in-process reference";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
}

// ----------------------------------------------------- program registry ---

TEST(wire_registry, register_echoes_the_structural_fingerprint) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  const auto net = gen::ripple_adder_circuit(6);
  const std::uint64_t fp = client.register_program(net);
  EXPECT_EQ(fp, engine::network_fingerprint(net));
  EXPECT_EQ(stack.server.num_programs(), 1u);

  // Re-registration is idempotent: same fingerprint, no second entry.
  EXPECT_EQ(client.register_program(net), fp);
  EXPECT_EQ(stack.server.num_programs(), 1u);
  EXPECT_EQ(stack.server.stats().programs_registered, 1u);

  EXPECT_THROW((void)client.register_netlist("x = WAT(a, b, c)\n"), net::wire_error);
}

TEST(wire_registry, inline_netlists_register_and_echo_their_fingerprint) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  const std::size_t waves = 70;
  const auto words = random_planes(net->num_pis(), waves, 31);

  auto req = make_run(0, *net, waves, 3, words);
  req.netlist = mig_text(*net);
  const auto resp = client.run(std::move(req));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  EXPECT_EQ(resp.fingerprint, engine::network_fingerprint(*net));
  EXPECT_EQ(stack.server.num_programs(), 1u);

  // The echoed fingerprint works for 8-byte-header runs from then on.
  const auto by_fp = client.run(make_run(resp.fingerprint, *net, waves, 3, words));
  ASSERT_EQ(by_fp.status, net::wire_status::ok) << by_fp.message;
  EXPECT_EQ(by_fp.result.words, resp.result.words);

  const auto unknown = client.run(make_run(0xDEAD'BEEFu, *net, waves, 3, words));
  EXPECT_EQ(unknown.status, net::wire_status::unknown_program);
  EXPECT_FALSE(unknown.message.empty());
}

TEST(wire_registry, register_frames_carry_buffer_runs) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());

  // A balanced netlist travels with its runs as BUF(<op>, <length>) and is
  // served exactly like the in-process program.
  const auto net = wave_pipeline(gen::ripple_adder_circuit(8)).net;
  ASSERT_TRUE(has_buffer_runs(net));
  const std::uint64_t fp = client.register_program(net);
  EXPECT_EQ(fp, engine::network_fingerprint(net));

  const std::size_t waves = 130;
  const auto words = random_planes(net.num_pis(), waves, 77);
  const auto resp = client.run(make_run(fp, net, waves, 3, words));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  const auto local = engine::run_waves_packed(
      engine::compiled_netlist{net},
      engine::wave_batch::from_plane_words(words, net.num_pis(), waves), 3);
  EXPECT_EQ(resp.result.words, local.words);
  EXPECT_EQ(resp.result.latency_ticks, local.latency_ticks);

  // A hostile run length is refused like any malformed netlist.
  EXPECT_THROW((void)client.register_netlist(".inputs a\nn1 = BUF(a, 0)\n.output f = n1\n"),
               net::wire_error);
  EXPECT_THROW(
      (void)client.register_netlist(".inputs a\nn1 = BUF(a, 4294967295)\n.output f = n1\n"),
      net::wire_error);
  EXPECT_EQ(stack.server.num_programs(), 1u);
}

// ----------------------------------------------- request-level refusals ---

TEST(wire_refusals, bad_requests_map_to_exact_statuses) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  // Unknown scenario name.
  auto bad_scenario = make_run(fp, *net, 64, 3, random_planes(net->num_pis(), 64, 1));
  bad_scenario.scenario = "warp-drive";
  EXPECT_EQ(client.run(std::move(bad_scenario)).status, net::wire_status::unknown_scenario);

  // Zero waves: decodes fine, rejected on the dispatcher.
  EXPECT_EQ(client.run(make_run(fp, *net, 0, 3, {})).status,
            net::wire_status::invalid_request);

  // Word count inconsistent with the declared wave count.
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, std::vector<std::uint64_t>(3, 0))).status,
            net::wire_status::invalid_request);

  // PI-plane count inconsistent with the program.
  EXPECT_EQ(client
                .run(make_run(fp, *net, 64, 3,
                              std::vector<std::uint64_t>(net->num_pis() + 1, 0)))
                .status,
            net::wire_status::invalid_request);

  // The connection survives every refusal: a healthy request still runs.
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, random_planes(net->num_pis(), 64, 2))).status,
            net::wire_status::ok);
  EXPECT_GE(stack.server.stats().requests_refused, 4u);
}

TEST(wire_refusals, stray_tail_bits_reject_unless_masking_is_requested) {
  loopback_stack stack;
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  const std::size_t waves = 70;  // 6 stray bit positions in the last chunk
  auto words = random_planes(net->num_pis(), waves, 5);
  const auto clean = words;
  words[1] |= ~((std::uint64_t{1} << (waves % 64)) - 1);  // garbage above wave 69

  // Strict default: untrusted payloads with stray bits are rejected.
  const auto rejected = client.run(make_run(fp, *net, waves, 3, words));
  EXPECT_EQ(rejected.status, net::wire_status::invalid_request);
  EXPECT_NE(rejected.message.find("stray bits"), std::string::npos) << rejected.message;

  // Opting into masking reproduces the trusted in-process default.
  auto masked = make_run(fp, *net, waves, 3, words);
  masked.flags = net::run_flag_mask_tail_bits;
  const auto resp = client.run(std::move(masked));
  ASSERT_EQ(resp.status, net::wire_status::ok) << resp.message;
  const auto want = stack.serving.submit_packed(net, clean, waves, 3).get();
  EXPECT_EQ(resp.result.words, want.words);
}

// ------------------------------------------------------- hostile framing ---

/// Raw-socket helpers for speaking deliberately broken bytes at the server.
net::tcp_socket raw_handshake(std::uint16_t port) {
  auto sock = net::tcp_socket::connect("127.0.0.1", port);
  std::vector<std::uint8_t> preamble;
  net::byte_writer w{preamble};
  w.u32(net::wire_magic);
  w.u32(net::wire_version);
  sock.write_all(preamble.data(), preamble.size());
  std::uint8_t echo[8];
  EXPECT_TRUE(sock.read_exact(echo, sizeof echo));
  return sock;
}

net::wire_response read_raw_response(net::tcp_socket& sock) {
  std::uint8_t len_bytes[4];
  EXPECT_TRUE(sock.read_exact(len_bytes, sizeof len_bytes));
  net::byte_reader r{len_bytes, sizeof len_bytes};
  const std::uint32_t body_len = r.u32();
  std::vector<std::uint8_t> body(body_len);
  EXPECT_TRUE(sock.read_exact(body.data(), body.size()));
  return net::decode_response_body(body.data(), body.size());
}

void write_frame(net::tcp_socket& sock, const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> len;
  net::byte_writer w{len};
  w.u32(static_cast<std::uint32_t>(body.size()));
  sock.write_all(len.data(), len.size());
  sock.write_all(body.data(), body.size());
}

TEST(wire_framing, handshake_mismatch_closes_the_connection) {
  loopback_stack stack;
  auto sock = net::tcp_socket::connect("127.0.0.1", stack.server.port());
  std::vector<std::uint8_t> preamble;
  net::byte_writer w{preamble};
  w.u32(0xBADC0DEu);
  w.u32(net::wire_version);
  sock.write_all(preamble.data(), preamble.size());
  std::uint8_t byte = 0;
  EXPECT_FALSE(sock.read_exact(&byte, 1));  // no echo, just EOF
}

TEST(wire_framing, unknown_kinds_and_short_frames_are_answered_and_survivable) {
  loopback_stack stack;
  auto sock = raw_handshake(stack.server.port());

  // Unknown frame kind: refused, stream stays synchronized.
  write_frame(sock, {0x77, 1, 2, 3});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Run frame shorter than its fixed header.
  write_frame(sock, {static_cast<std::uint8_t>(net::frame_kind::run), 1, 2, 3});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Register frame shorter than its fixed header.
  write_frame(sock, {static_cast<std::uint8_t>(net::frame_kind::register_program), 9});
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);

  // Run frame whose variable lengths disagree with the body length.
  {
    net::run_request req;
    req.id = 5;
    req.num_waves = 64;
    req.num_pis = 4;
    req.netlist = "ignored";
    auto prefix = net::encode_run_frame_prefix(req);
    // Rewrite the length word to drop the netlist bytes the header promises.
    std::vector<std::uint8_t> patched;
    net::byte_writer w{patched};
    w.u32(static_cast<std::uint32_t>(net::run_fixed_bytes));
    std::copy(prefix.begin() + 4, prefix.begin() + 4 + static_cast<long>(net::run_fixed_bytes),
              std::back_inserter(patched));
    sock.write_all(patched.data(), patched.size());
    EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  }

  // A payload that is not a whole number of 64-bit words.
  {
    std::vector<std::uint8_t> body(net::run_fixed_bytes + 3, 0);
    body[0] = static_cast<std::uint8_t>(net::frame_kind::run);
    write_frame(sock, body);
    EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  }

  // After all that abuse, a well-formed register frame still succeeds.
  net::register_request reg;
  reg.id = 1234;
  reg.netlist = mig_text(gen::ripple_adder_circuit(2));
  const auto frame = net::encode_register_frame(reg);
  sock.write_all(frame.data(), frame.size());
  const auto resp = read_raw_response(sock);
  EXPECT_EQ(resp.status, net::wire_status::ok);
  EXPECT_EQ(resp.id, reg.id);
  EXPECT_EQ(stack.server.stats().requests_refused, 5u);
}

TEST(wire_framing, oversized_length_prefix_is_refused_and_closes) {
  net::server_options options;
  options.max_frame_bytes = 4096;
  loopback_stack stack{2, 1, options};
  auto sock = raw_handshake(stack.server.port());

  std::vector<std::uint8_t> len;
  net::byte_writer w{len};
  w.u32(std::uint32_t{1} << 30);  // a length we refuse to read past
  sock.write_all(len.data(), len.size());
  EXPECT_EQ(read_raw_response(sock).status, net::wire_status::malformed_frame);
  std::uint8_t byte = 0;
  EXPECT_FALSE(sock.read_exact(&byte, 1));  // connection closed behind it

  // A zero length prefix is equally unrecoverable.
  auto sock2 = raw_handshake(stack.server.port());
  std::vector<std::uint8_t> zero;
  net::byte_writer w2{zero};
  w2.u32(0);
  sock2.write_all(zero.data(), zero.size());
  EXPECT_EQ(read_raw_response(sock2).status, net::wire_status::malformed_frame);
  EXPECT_FALSE(sock2.read_exact(&byte, 1));
}

TEST(wire_framing, truncated_frames_drop_the_connection_but_not_the_server) {
  loopback_stack stack;
  {
    auto sock = raw_handshake(stack.server.port());
    // Promise 100 body bytes, deliver 10, and hang up mid-frame.
    std::vector<std::uint8_t> partial;
    net::byte_writer w{partial};
    w.u32(100);
    partial.resize(partial.size() + 10,
                   static_cast<std::uint8_t>(net::frame_kind::run));
    sock.write_all(partial.data(), partial.size());
    sock.shutdown_both();
    std::uint8_t byte = 0;
    EXPECT_FALSE(sock.read_exact(&byte, 1));  // nothing to answer, clean EOF
  }

  // The server sheds the broken connection and keeps serving new ones.
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 77);
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, words)).status, net::wire_status::ok);
  EXPECT_EQ(stack.server.stats().connections_accepted, 2u);
}

// -------------------------------------------------- production policies ---

TEST(wire_policies, admission_bound_rejects_with_the_exact_status) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);

  // Warm the compiled program, then park the lone worker so a submitted
  // request stays pending for as long as we need.
  const auto warm = random_planes(net->num_pis(), 64, 1);
  ASSERT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });

  auto held = stack.serving.submit_packed(net, warm, 64, 3);
  stack.serving.set_admission_limit(1);  // backlog is already 1

  const auto resp = client.run(make_run(fp, *net, 64, 3, warm));
  EXPECT_EQ(resp.status, net::wire_status::admission_rejected);
  EXPECT_NE(resp.message.find("admission rejected"), std::string::npos) << resp.message;
  EXPECT_EQ(stack.serving.metrics().requests_rejected, 1u);

  // Lifting the bound restores service; the held request still completes.
  stack.serving.set_admission_limit(0);
  release.set_value();
  EXPECT_EQ(held.get().num_waves, 64u);
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);
}

TEST(wire_policies, deadlines_expire_in_the_queue_with_the_exact_status) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto warm = random_planes(net->num_pis(), 64, 1);
  ASSERT_EQ(client.run(make_run(fp, *net, 64, 3, warm)).status, net::wire_status::ok);

  // Park the worker, then wedge the lone dispatcher: big singleton requests
  // (too wide to coalesce) fill the in-flight cap (4 with one worker) and
  // the fifth blocks the dispatcher in launch_unit. Submitting one at a
  // time and waiting for its gulp keeps the accounting deterministic.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t gulps_before = stack.serving.metrics().gulps;
  std::vector<std::future<engine::packed_wave_result>> blockers;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    blockers.push_back(
        stack.serving.submit_packed(net, random_planes(net->num_pis(), 520, i), 520, 3));
    while (stack.serving.metrics().gulps < gulps_before + i) {
      std::this_thread::yield();
    }
  }

  // This request sits in the queue past its deadline; the dispatcher must
  // fail it at pickup instead of executing it.
  auto doomed = make_run(fp, *net, 64, 3, warm);
  doomed.deadline_ms = 5;
  const std::uint64_t id = client.send(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  release.set_value();

  const auto resp = client.receive();
  EXPECT_EQ(resp.id, id);
  EXPECT_EQ(resp.status, net::wire_status::deadline_expired);
  for (auto& blocker : blockers) {
    EXPECT_EQ(blocker.get().num_waves, 520u);
  }
  EXPECT_EQ(stack.serving.metrics().requests_expired, 1u);
}

TEST(wire_policies, draining_refuses_new_work_while_accepted_work_flushes) {
  loopback_stack stack{1, 1};
  auto client = net::wire_client::connect(stack.server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 9);
  const auto want = client.run(make_run(fp, *net, 64, 3, words));
  ASSERT_EQ(want.status, net::wire_status::ok);
  // The warm response can arrive before the session retires its request, so
  // quiesce first — the pending() wait below must observe the next request,
  // not this one's tail.
  stack.serving.drain();

  // Park the worker and submit a request that will still be in flight when
  // the drain begins: its response must flow, the next request must not.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack.executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t accepted_id = client.send(make_run(fp, *net, 64, 3, words));
  while (stack.serving.pending() == 0) {
    std::this_thread::yield();  // accepted before the drain begins, not raced
  }

  stack.server.begin_drain();
  const auto refused = client.run(make_run(fp, *net, 64, 3, words));
  EXPECT_EQ(refused.status, net::wire_status::draining);
  EXPECT_EQ(refused.message, "server is draining");
  EXPECT_THROW((void)client.register_program(*net), net::wire_error);

  release.set_value();
  const auto accepted = client.receive();
  EXPECT_EQ(accepted.id, accepted_id);
  ASSERT_EQ(accepted.status, net::wire_status::ok);
  EXPECT_EQ(accepted.result.words, want.result.words);
}

TEST(wire_policies, shutdown_flushes_inflight_responses_before_closing) {
  auto stack = std::make_unique<loopback_stack>(1u, 1u);
  auto client = net::wire_client::connect(stack->server.port());
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 13);
  const auto want = client.run(make_run(fp, *net, 64, 3, words));
  ASSERT_EQ(want.status, net::wire_status::ok);
  stack->serving.drain();  // see the draining test: quiesce the warm tail

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stack->executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t id = client.send(make_run(fp, *net, 64, 3, words));
  while (stack->serving.pending() == 0) {
    std::this_thread::yield();  // the request must be accepted pre-shutdown
  }

  std::thread closer{[&] { stack->server.shutdown(); }};
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  release.set_value();
  closer.join();

  // The accepted request's response was flushed before the teardown...
  const auto resp = client.receive();
  EXPECT_EQ(resp.id, id);
  ASSERT_EQ(resp.status, net::wire_status::ok);
  EXPECT_EQ(resp.result.words, want.result.words);
  // ...and the connection ends cleanly right after it.
  EXPECT_THROW((void)client.receive(), net::socket_error);
  EXPECT_THROW((void)net::wire_client::connect(stack->server.port()), net::socket_error);
}

}  // namespace
}  // namespace wavemig
