// Chaos suite for the fault-injection layer (wavemig/fault) and the
// resilience features it exists to exercise: client retry/backoff with
// reconnect + re-send, the server watchdog, and priority load shedding.
// Every test pins an exact outcome under an injected fault — a retried
// response bit-identical to in-process submit_packed, an exact wire
// status, shed-before-execute ordering — never "it eventually worked".
//
// Shared-process caveat: socket sites fire in whichever thread (client or
// server) hits them first, so the pinned outcomes below are written to
// hold for either side. The suite runs in the chaos ctest label, under
// ASan/UBSan with a randomized-but-logged WAVEMIG_FAULT_SEED, and in the
// TSan shard.

#include "wavemig/fault/fault_injection.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
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
#include "wavemig/net/server.hpp"

namespace wavemig {
namespace {

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

/// Every test disarms on the way out so a failing assertion can never leak
/// an armed site into the next test. The seed is logged once so a
/// randomized chaos run that fails reproduces from its log.
class fault_suite : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    std::printf("[chaos] WAVEMIG_FAULT_SEED in effect: %llu\n",
                static_cast<unsigned long long>(fault::seed()));
  }
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// --------------------------------------------------------- the registry ---

// The registry itself is testable without the compiled-in macro: hit() is a
// plain function. Triggers: every_nth gates eligibility, probability draws,
// one_shot disarms after the first firing, counters survive disarming.
TEST_F(fault_suite, registry_triggers_count_and_disarm_exactly) {
  fault::fault_config nth;
  nth.every_nth = 3;
  fault::arm("reg.test.nth", nth);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    fired += fault::hit("reg.test.nth").fired ? 1 : 0;
  }
  EXPECT_EQ(fired, 3);  // hits 3, 6, 9
  EXPECT_EQ(fault::hit_count("reg.test.nth"), 9u);
  EXPECT_EQ(fault::fire_count("reg.test.nth"), 3u);

  fault::fault_config once;
  once.one_shot = true;
  once.action = fault::fault_action::partial_io;
  once.max_bytes = 7;
  fault::arm("reg.test.once", once);
  const auto first = fault::hit("reg.test.once");
  EXPECT_TRUE(first.fired);
  EXPECT_EQ(first.action, fault::fault_action::partial_io);
  EXPECT_EQ(first.max_bytes, 7u);
  EXPECT_FALSE(fault::hit("reg.test.once").fired);  // disarmed itself
  EXPECT_EQ(fault::fire_count("reg.test.once"), 1u);

  fault::fault_config never;
  never.probability = 0.0;
  fault::arm("reg.test.never", never);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(fault::hit("reg.test.never").fired);
  }
  EXPECT_EQ(fault::fire_count("reg.test.never"), 0u);

  EXPECT_EQ(fault::armed_sites().size(), 2u);  // nth + never; once disarmed
  fault::disarm_all();
  EXPECT_TRUE(fault::armed_sites().empty());
  // A disarmed site neither counts hits nor fires.
  EXPECT_FALSE(fault::hit("reg.test.nth").fired);
  EXPECT_EQ(fault::hit_count("reg.test.nth"), 9u);
}

#if !defined(WAVEMIG_FAULT_INJECTION)

TEST_F(fault_suite, chaos_suite_requires_compiled_in_sites) {
  GTEST_SKIP() << "built with -DWAVEMIG_ENABLE_FAULT_INJECTION=OFF; "
                  "the site-driven chaos tests need the sites compiled in";
}

#else  // the rest of the suite drives the compiled-in sites

// ------------------------------------------------- client retry/backoff ---

// A one-shot reader-thread death mid-connection: the first request answers
// normally (the reader was already parked in read_exact when the site
// armed), the second finds the connection torn down, and the retry policy
// reconnects + re-sends it — the retried response is bit-identical to
// in-process submit_packed.
TEST_F(fault_suite, client_retry_survives_server_reader_death) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::size_t waves = 130;
  const auto words = random_planes(net->num_pis(), waves, 11);
  const auto want = stack.serving.submit_packed(net, words, waves, 3).get();

  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);
  net::retry_policy policy;
  policy.max_attempts = 4;
  policy.base_backoff = std::chrono::milliseconds{1};
  policy.max_backoff = std::chrono::milliseconds{20};
  client.set_retry_policy(policy);

  fault::fault_config die;
  die.one_shot = true;
  fault::arm("server.reader.die", die);

  const auto first = client.run(make_run(fp, *net, waves, 3, words));
  ASSERT_EQ(first.status, net::wire_status::ok);
  EXPECT_EQ(first.result.words, want.words);

  // Whichever request the reader died under (it usually answers the first —
  // the site check sits before the blocking read it was already parked in —
  // but either side of that race is fine), exactly one reconnect repaired
  // the connection and both responses stayed bit-identical.
  const auto second = client.run(make_run(fp, *net, waves, 3, words));
  ASSERT_EQ(second.status, net::wire_status::ok);
  EXPECT_EQ(second.result.words, want.words);
  EXPECT_EQ(second.result.ticks, want.ticks);
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().resends, 1u);
  EXPECT_EQ(fault::fire_count("server.reader.die"), 1u);
}

// Exhausted retries surface the last socket error: with connects failing
// persistently, run() makes exactly max_attempts tries, then throws.
TEST_F(fault_suite, retry_exhaustion_throws_after_exact_attempts) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));
  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);

  net::retry_policy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds{1};
  client.set_retry_policy(policy);

  fault::arm("socket.connect.fail", {});  // every reconnect fails
  client.close();                         // attempt 1 dies on the dead socket

  const auto words = random_planes(net->num_pis(), 64, 3);
  EXPECT_THROW((void)client.run(make_run(fp, *net, 64, 3, words)), net::socket_error);
  // Attempt 1 used the dead socket; attempts 2 and 3 each dialed once.
  EXPECT_EQ(fault::fire_count("socket.connect.fail"), 2u);
  EXPECT_EQ(client.stats().reconnects, 0u);  // no dial ever succeeded
}

// ----------------------------------------------------------- watchdog ---

// A lost completion callback (the exact failure the watchdog exists for):
// the request's response never reaches the connection outbox, the watchdog
// answers watchdog_expired inside its bound, and — the leak check — the
// connection slot is released, so the next request serves normally.
TEST_F(fault_suite, watchdog_answers_lost_completions_without_leaking_the_slot) {
  net::server_options options;
  options.watchdog_bound = std::chrono::milliseconds{150};
  loopback_stack stack{2, 1, options};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::size_t waves = 64;
  const auto words = random_planes(net->num_pis(), waves, 21);
  const auto want = stack.serving.submit_packed(net, words, waves, 3).get();

  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);

  fault::fault_config drop;
  drop.one_shot = true;
  fault::arm("serving.callback.drop", drop);

  const auto expired = client.run(make_run(fp, *net, waves, 3, words));
  EXPECT_EQ(expired.status, net::wire_status::watchdog_expired);
  EXPECT_EQ(fault::fire_count("serving.callback.drop"), 1u);

  const auto after = client.run(make_run(fp, *net, waves, 3, words));
  ASSERT_EQ(after.status, net::wire_status::ok);
  EXPECT_EQ(after.result.words, want.words);
  EXPECT_EQ(stack.server.stats().requests_watchdog_expired, 1u);
}

// A healthy server under a generous bound: the watchdog never fires.
TEST_F(fault_suite, watchdog_stays_quiet_on_a_healthy_server) {
  net::server_options options;
  options.watchdog_bound = std::chrono::seconds{30};
  loopback_stack stack{2, 1, options};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);
  for (int i = 0; i < 8; ++i) {
    const auto words = random_planes(net->num_pis(), 96, 100 + i);
    EXPECT_EQ(client.run(make_run(fp, *net, 96, 3, words)).status, net::wire_status::ok);
  }
  EXPECT_EQ(stack.server.stats().requests_watchdog_expired, 0u);
  EXPECT_EQ(stack.server.stats().requests_ok, 9u);  // the register + 8 runs
}

// ------------------------------------------------------- load shedding ---

// Shed-before-execute ordering, pinned at the serving layer: with the one
// dispatcher stalled and the queue at the policy's depth, a low-priority
// submission throws admission_rejected from submit itself — it never
// consumes a queue slot (requests_accepted unchanged) and nothing about it
// ever executes. High-priority traffic is untouched, and once the overload
// clears the same low priority is accepted again.
TEST_F(fault_suite, shedding_rejects_low_priority_before_it_consumes_anything) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));

  engine::shed_policy policy;
  policy.queue_depth = 1;
  policy.min_priority = 192;
  serving.set_shed_policy(policy);

  // Park the dispatcher: a generous stall before each gulp keeps whatever
  // we enqueue next sitting in the queue for the probe window. Waiting for
  // the wake request first guarantees the dispatcher has gulped it and is
  // asleep in the stall (not waiting to gulp the held request too).
  fault::fault_config stall;
  stall.action = fault::fault_action::stall;
  stall.delay = std::chrono::milliseconds{400};
  fault::arm("serving.dispatcher.stall", stall);
  auto wake = serving.submit_packed(net, random_planes(net->num_pis(), 64, 1), 64, 3);
  EXPECT_EQ(wake.get().num_waves, 64u);

  // The dispatcher is asleep in its stall; this request holds the queue at
  // the shed depth.
  auto held = serving.submit_packed(net, random_planes(net->num_pis(), 64, 2), 64, 3);

  const auto accepted_before = serving.metrics().requests_accepted;
  engine::submit_options low;
  low.priority = 200;
  EXPECT_THROW((void)serving.submit_packed(net, random_planes(net->num_pis(), 64, 3), 64,
                                           3, low),
               engine::admission_rejected_error);
  const auto metrics = serving.metrics();
  EXPECT_EQ(metrics.requests_shed, 1u);
  EXPECT_EQ(metrics.requests_rejected, 1u);
  EXPECT_EQ(metrics.requests_accepted, accepted_before);  // never consumed a slot

  // Default priority (128) rides through the same overload untouched.
  auto high = serving.submit_packed(net, random_planes(net->num_pis(), 64, 4), 64, 3);

  fault::disarm_all();
  EXPECT_EQ(held.get().num_waves, 64u);
  EXPECT_EQ(high.get().num_waves, 64u);

  // Overload cleared: the shed priority class is accepted again.
  engine::submit_options low_again;
  low_again.priority = 200;
  auto ok_now = serving.submit_packed(net, random_planes(net->num_pis(), 64, 5), 64, 3,
                                      low_again);
  EXPECT_EQ(ok_now.get().num_waves, 64u);
  serving.close();
}

// The queue-wait p99 criterion recovers on an idle session. The p99 is
// refreshed from dispatched requests only, so a shed request never lowers
// it: after one slow burst, a session fed only sheddable traffic would stay
// "overloaded" forever. The criterion therefore counts only while a backlog
// exists, and only the waits of the current backlog: once the dispatcher
// leaves the queue empty, earlier waits stop counting. A request held
// after a drain sheds nothing; a fresh slow backlog sheds again.
TEST_F(fault_suite, wait_p99_shedding_ends_once_the_queue_is_empty) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));

  engine::shed_policy policy;
  policy.queue_wait_p99_ms = 20.0;
  policy.min_priority = 192;
  serving.set_shed_policy(policy);

  // A slow burst: with the dispatcher asleep in a 200 ms stall, 40
  // requests queue up behind it, so every one of them waits far beyond the
  // 20 ms threshold and the refreshed p99 crosses it.
  fault::fault_config stall;
  stall.action = fault::fault_action::stall;
  stall.delay = std::chrono::milliseconds{200};
  fault::arm("serving.dispatcher.stall", stall);
  auto wake = serving.submit_packed(net, random_planes(net->num_pis(), 64, 1), 64, 3);
  EXPECT_EQ(wake.get().num_waves, 64u);
  std::vector<std::future<engine::packed_wave_result>> burst;
  for (std::uint64_t i = 0; i < 40; ++i) {
    burst.push_back(
        serving.submit_packed(net, random_planes(net->num_pis(), 64, 10 + i), 64, 3));
  }
  fault::disarm_all();
  for (auto& f : burst) {
    EXPECT_EQ(f.get().num_waves, 64u);
  }
  serving.drain();
  ASSERT_EQ(serving.pending(), 0u);

  // Idle: the same low priority is accepted, however slow the burst was.
  engine::submit_options low;
  low.priority = 200;
  std::future<engine::packed_wave_result> after;
  ASSERT_NO_THROW(after = serving.submit_packed(net, random_planes(net->num_pis(), 64, 2),
                                                64, 3, low));
  EXPECT_EQ(after.get().num_waves, 64u);
  EXPECT_EQ(serving.metrics().requests_shed, 0u);

  // The drain ended that overload: park the dispatcher and hold one
  // request in the queue. The burst's waits no longer count, so the same
  // low priority is still accepted behind it.
  fault::arm("serving.dispatcher.stall", stall);
  auto wake_again = serving.submit_packed(net, random_planes(net->num_pis(), 64, 3), 64, 3);
  EXPECT_EQ(wake_again.get().num_waves, 64u);
  auto held = serving.submit_packed(net, random_planes(net->num_pis(), 64, 4), 64, 3);
  std::future<engine::packed_wave_result> behind_held;
  ASSERT_NO_THROW(behind_held = serving.submit_packed(
                      net, random_planes(net->num_pis(), 64, 5), 64, 3, low));
  EXPECT_EQ(serving.metrics().requests_shed, 0u);
  EXPECT_EQ(held.get().num_waves, 64u);
  EXPECT_EQ(behind_held.get().num_waves, 64u);

  // A fresh slow backlog sheds again. The dispatcher, still stalling
  // between gulps, wakes to one full gulp of 64 stalled requests (its most
  // per queue drain) and leaves the request queued after them waiting, so
  // the burst's waits are recorded while a backlog remains.
  std::vector<std::future<engine::packed_wave_result>> fresh_burst;
  for (std::uint64_t i = 0; i < 64; ++i) {
    fresh_burst.push_back(
        serving.submit_packed(net, random_planes(net->num_pis(), 64, 100 + i), 64, 3));
  }
  auto held_again = serving.submit_packed(net, random_planes(net->num_pis(), 64, 6), 64, 3);
  for (auto& f : fresh_burst) {
    EXPECT_EQ(f.get().num_waves, 64u);
  }
  EXPECT_THROW((void)serving.submit_packed(net, random_planes(net->num_pis(), 64, 7), 64,
                                           3, low),
               engine::admission_rejected_error);
  EXPECT_EQ(serving.metrics().requests_shed, 1u);
  fault::disarm_all();
  EXPECT_EQ(held_again.get().num_waves, 64u);
  serving.close();
}

// ------------------------------------------------- individual fault pins ---

// Simulated EINTR on reads is invisible: the retry loop absorbs it, every
// request answers ok, and the site provably fired.
TEST_F(fault_suite, read_eintr_is_absorbed_by_the_retry_loop) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);

  fault::fault_config eintr;
  eintr.every_nth = 3;
  fault::arm("socket.read.eintr", eintr);
  for (int i = 0; i < 6; ++i) {
    const auto words = random_planes(net->num_pis(), 70, 40 + i);
    EXPECT_EQ(client.run(make_run(fp, *net, 70, 3, words)).status, net::wire_status::ok);
  }
  EXPECT_GE(fault::fire_count("socket.read.eintr"), 1u);
}

// An aborted accept drops exactly one connection attempt: the kernel had
// already completed that client's TCP handshake, so the client surfaces a
// socket error during the preamble — and the accept loop keeps serving,
// so the next connect succeeds.
TEST_F(fault_suite, aborted_accept_drops_one_connection_and_keeps_serving) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(3));

  fault::fault_config abort_once;
  abort_once.one_shot = true;
  fault::arm("socket.accept.abort", abort_once);

  EXPECT_THROW((void)net::wire_client::connect(stack.server.port()), net::socket_error);
  EXPECT_EQ(fault::fire_count("socket.accept.abort"), 1u);

  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);
  const auto words = random_planes(net->num_pis(), 64, 51);
  EXPECT_EQ(client.run(make_run(fp, *net, 64, 3, words)).status, net::wire_status::ok);
}

// A persistently slow writer (slow-consumer backlog) delays but never
// corrupts: pipelined requests all answer ok, in whatever order.
TEST_F(fault_suite, writer_stall_delays_but_completes_pipelined_requests) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);

  fault::fault_config slow;
  slow.action = fault::fault_action::delay;
  slow.delay = std::chrono::milliseconds{10};
  fault::arm("server.writer.stall", slow);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(client.send(make_run(fp, *net, 64, 3,
                                       random_planes(net->num_pis(), 64, 60 + i))));
  }
  std::size_t ok = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ok += client.receive().status == net::wire_status::ok ? 1 : 0;
  }
  EXPECT_EQ(ok, ids.size());
  EXPECT_GE(fault::fire_count("server.writer.stall"), ids.size());
}

// A silently dead writer: the response is dropped on the floor, the
// client's per-try timeout detects the stuck read, and the retried request
// on a fresh connection answers bit-identically.
TEST_F(fault_suite, writer_death_is_recovered_by_the_per_try_timeout) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::size_t waves = 96;
  const auto words = random_planes(net->num_pis(), waves, 71);
  const auto want = stack.serving.submit_packed(net, words, waves, 3).get();

  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);
  net::retry_policy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds{1};
  policy.try_timeout = std::chrono::milliseconds{250};
  client.set_retry_policy(policy);

  fault::fault_config die;
  die.one_shot = true;
  fault::arm("server.writer.die", die);

  const auto resp = client.run(make_run(fp, *net, waves, 3, words));
  ASSERT_EQ(resp.status, net::wire_status::ok);
  EXPECT_EQ(resp.result.words, want.words);
  EXPECT_GE(client.stats().reconnects, 1u);
}

// A dispatcher-side exception fails exactly the one request it hit — as a
// typed internal_error carrying the thrown message — and the next request
// is untouched.
TEST_F(fault_suite, dispatcher_throw_fails_one_request_with_internal_error) {
  loopback_stack stack{2, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  auto client = net::wire_client::connect(stack.server.port());
  const std::uint64_t fp = client.register_program(*net);

  fault::fault_config once;
  once.one_shot = true;
  fault::arm("serving.dispatcher.throw", once);

  const auto words = random_planes(net->num_pis(), 64, 81);
  const auto failed = client.run(make_run(fp, *net, 64, 3, words));
  EXPECT_EQ(failed.status, net::wire_status::internal_error);
  EXPECT_NE(failed.message.find("injected"), std::string::npos);

  const auto after = client.run(make_run(fp, *net, 64, 3, words));
  EXPECT_EQ(after.status, net::wire_status::ok);
}

// Executor-level chaos (a stalled worker, delayed steals) may reorder who
// evaluates which plane-block, but chunk purity keeps the packed result
// words bit-identical to the quiet run.
TEST_F(fault_suite, executor_stalls_never_change_result_words) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor, {}, {}, 2};
  const auto net = std::make_shared<const mig_network>(
      gen::random_mig({10, 90, 0.5, 5, 404}));
  const std::size_t waves = 520;
  const auto words = random_planes(net->num_pis(), waves, 91);
  const auto want = serving.submit_packed(net, words, waves, 3).get();

  fault::fault_config worker_stall;
  worker_stall.action = fault::fault_action::delay;
  worker_stall.delay = std::chrono::milliseconds{2};
  worker_stall.every_nth = 3;
  fault::arm("executor.worker.stall", worker_stall);
  fault::fault_config steal_delay;
  steal_delay.action = fault::fault_action::delay;
  steal_delay.delay = std::chrono::milliseconds{1};
  steal_delay.probability = 0.5;
  fault::arm("executor.steal.delay", steal_delay);

  for (int i = 0; i < 4; ++i) {
    const auto got = serving.submit_packed(net, words, waves, 3).get();
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.ticks, want.ticks);
  }
  fault::disarm_all();
  serving.close();
}

// ------------------------------------------------ differential under chaos ---

// The acceptance pin: under a cocktail of probabilistic faults (partial
// reads killing connections on either side, slow writers, stalled
// workers), a retrying client never hangs, never crashes, and every
// response is either a typed wire/socket error or bit-identical to the
// in-process submit_packed result for the same payload.
TEST_F(fault_suite, chaotic_wire_responses_stay_bit_identical_to_in_process) {
  loopback_stack stack{4, 2};
  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const auto random_net = std::make_shared<const mig_network>(
      gen::random_mig({9, 60, 0.5, 4, 7}));
  const std::vector<std::shared_ptr<const mig_network>> nets = {adder, random_net};
  const std::vector<std::size_t> wave_counts = {64, 130, 520};

  // Expected results first, on a quiet stack — the serving/executor sites
  // below would fire for in-process runs too.
  struct case_data {
    std::shared_ptr<const mig_network> net;
    std::size_t waves;
    std::vector<std::uint64_t> words;
    engine::packed_wave_result want;
  };
  std::vector<case_data> cases;
  for (const auto& net : nets) {
    for (const std::size_t waves : wave_counts) {
      case_data c{net, waves, random_planes(net->num_pis(), waves, waves * 31 + 1), {}};
      c.want = stack.serving.submit_packed(net, c.words, waves, 3).get();
      cases.push_back(std::move(c));
    }
  }

  auto client = net::wire_client::connect(stack.server.port());
  std::vector<std::uint64_t> fps;
  for (const auto& net : nets) {
    fps.push_back(client.register_program(*net));
  }
  net::retry_policy policy;
  policy.max_attempts = 10;
  policy.base_backoff = std::chrono::milliseconds{1};
  policy.max_backoff = std::chrono::milliseconds{20};
  policy.try_timeout = std::chrono::milliseconds{2000};
  client.set_retry_policy(policy);

  // Rare partial reads (either side of the wire) tear connections down
  // mid-frame; slow writers and stalled workers stretch every window.
  fault::fault_config short_read;
  short_read.action = fault::fault_action::partial_io;
  short_read.probability = 0.02;
  short_read.max_bytes = 3;
  fault::arm("socket.read.short", short_read);
  fault::fault_config slow_writer;
  slow_writer.action = fault::fault_action::delay;
  slow_writer.delay = std::chrono::milliseconds{1};
  slow_writer.probability = 0.1;
  fault::arm("server.writer.stall", slow_writer);
  fault::fault_config slow_worker;
  slow_worker.action = fault::fault_action::delay;
  slow_worker.delay = std::chrono::milliseconds{1};
  slow_worker.probability = 0.1;
  fault::arm("executor.worker.stall", slow_worker);

  for (int round = 0; round < 3; ++round) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const auto& cd = cases[c];
      const std::uint64_t fp = fps[cd.net == adder ? 0 : 1];
      const auto resp = client.run(make_run(fp, *cd.net, cd.waves, 3, cd.words));
      ASSERT_EQ(resp.status, net::wire_status::ok)
          << "round " << round << " case " << c << ": " << resp.message;
      EXPECT_EQ(resp.result.words, cd.want.words) << "round " << round << " case " << c;
      EXPECT_EQ(resp.result.ticks, cd.want.ticks);
      EXPECT_EQ(resp.result.num_waves, cd.want.num_waves);
    }
  }
  fault::disarm_all();
  EXPECT_GE(fault::fire_count("socket.read.short") +
                fault::fire_count("server.writer.stall") +
                fault::fire_count("executor.worker.stall"),
            1u)
      << "the chaos run never injected anything — the pin proved nothing";
}

#endif  // WAVEMIG_FAULT_INJECTION

}  // namespace
}  // namespace wavemig
