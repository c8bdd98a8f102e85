// wire_serve: a loopback net::wire_server over a serving_session, driven by
// two wire_client connections, the whole process on one CPU at a time. Hot
// programs (adder64, mig4k) are addressed by fingerprint with coalescable
// 128-wave requests and 2,048-wave requests; one request in `cold_every`
// inlines a fresh netlist, which forces a cache miss, a parse and a compile
// (see the constants below for where the mix comes from). The measured phase is a
// closed loop: each connection sends its next request when the answer to
// the previous one arrives, which gives the request rate and the latency a
// caller sees. A traced run drives an open loop instead, at a fixed nominal
// rate with each request timed from when it was due, and replays it
// in-process. Only here do net, the serving queue and dispatcher, and the
// program cache do the work.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stats.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/net/client.hpp"
#include "wavemig/net/server.hpp"
#include "workloads.hpp"

namespace wavebench {

using namespace wavemig;

namespace {

constexpr unsigned phases = 3;
// From bench/perf_net.cpp: two connections, every 12th request inlines a
// fresh 240-gate random netlist of 2,048 waves, and the hot requests
// alternate between adder64 and mig4k.
constexpr unsigned connections = 2;
constexpr std::size_t cold_every = 12;
constexpr std::size_t cold_waves = 2048;
constexpr std::size_t pool_size = 16;
constexpr std::size_t checked_waves = 4;
// Peak memory is read once this many requests have been answered: every
// distinct inline netlist stays registered with the server, so memory at
// the end of the run would follow the run's throughput.
constexpr std::uint64_t rss_after_requests = 10000;
// Nominal open-loop rate of a traced run (requests/s over both
// connections): about a third of the one-CPU rate with 16 requests
// outstanding per connection (5,500-7,800/s on a 4-vCPU Xeon, AVX-512).
constexpr double nominal_rate_per_s = 2000.0;

/// One request's inputs and the expected outputs of its checked waves.
struct payload {
  std::vector<std::uint64_t> planes;
  std::size_t num_pis{0};
  std::size_t num_waves{0};
  std::uint64_t fingerprint{0};            ///< hot: the registered program
  std::string netlist;                     ///< cold: inline .mig text
  std::shared_ptr<const mig_network> net;  ///< for in-process replay
  std::vector<std::size_t> waves;
  std::vector<std::vector<bool>> expected;
};
using payload_ptr = std::shared_ptr<const payload>;
using payload_mut = std::shared_ptr<payload>;

payload_mut make_payload(const std::string& circuit, const std::shared_ptr<const mig_network>& net,
                         std::size_t num_waves, std::mt19937_64& rng) {
  auto p = std::make_shared<payload>();
  p->net = net;
  p->num_pis = net->num_pis();
  p->num_waves = num_waves;
  p->planes = random_planes(p->num_pis, num_waves, rng);
  p->waves = sample_waves(num_waves, checked_waves, rng);
  const std::size_t chunks = (num_waves + 63) / 64;
  for (const std::size_t w : p->waves) {
    const auto in = wave_inputs(p->planes.data(), chunks, p->num_pis, w);
    p->expected.push_back(expected_outputs(circuit, *net, in));
  }
  return p;
}

/// A fresh random netlist per cold request index: a fingerprint the cache
/// has never seen.
payload_ptr make_cold(std::uint64_t seed, std::uint64_t index) {
  std::mt19937_64 rng{seed * 1000003 + index};
  auto net = std::make_shared<const mig_network>(
      gen::random_mig({24, 240, 0.5, 12, seed * 1000003 + index}));
  auto p = make_payload("cold", net, cold_waves, rng);
  std::ostringstream text;
  io::write_mig(*net, text);
  p->netlist = text.str();
  return p;
}

bool outputs_match(const payload& p, const engine::packed_wave_result& r) {
  const std::size_t chunks = (p.num_waves + 63) / 64;
  if (r.num_waves != p.num_waves || r.words.size() != chunks * r.num_pos) {
    return false;
  }
  for (std::size_t k = 0; k < p.waves.size(); ++k) {
    for (std::size_t o = 0; o < p.expected[k].size(); ++o) {
      if (plane_bit(r.words.data(), chunks, o, p.waves[k]) != p.expected[k][o]) {
        return false;
      }
    }
  }
  return true;
}

/// Hot request classes in a fixed order. The circuits alternate as in
/// perf_net. Half the requests are perf_net's 2,048 waves (32 chunks, run
/// as singleton passes); the other half are the 128-wave requests of
/// bench/perf_wave_engine.cpp's many_small dispatcher scenario, small
/// enough for the dispatcher to coalesce.
struct hot_class {
  bool adder;
  std::size_t waves;
};
constexpr hot_class hot_mix[] = {{true, 128}, {false, 128}, {true, 2048}, {false, 2048}};

struct serving_stack {
  std::shared_ptr<const mig_network> adder;
  std::shared_ptr<const mig_network> mig4k;
  std::optional<engine::parallel_executor> executor;
  std::optional<engine::serving_session> session;
  std::optional<net::wire_server> server;
  std::vector<net::wire_client> clients;
  std::vector<std::vector<payload_ptr>> pools;  ///< per hot_mix entry
  std::uint64_t seed{0};
  std::atomic<std::uint64_t> next_cold{0};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> answered{0};  ///< closed-loop answers so far
  double rss_mb{0.0};  ///< peak RSS when answer rss_after_requests arrived

  ~serving_stack() {
    clients.clear();
    if (server) {
      server->shutdown();
    }
    server.reset();
    if (session) {
      session->close();
    }
    session.reset();
    executor.reset();
  }

  /// The request with sequence number `index` on connection `conn`.
  payload_ptr pick(unsigned conn, std::size_t index) {
    if (index % cold_every == cold_every - 1) {
      return make_cold(seed, next_cold.fetch_add(1));
    }
    const std::size_t hot = index - index / cold_every + conn;
    const auto& pool = pools[hot % std::size(hot_mix)];
    return pool[(hot / std::size(hot_mix)) % pool.size()];
  }
};

net::run_request to_request(const payload& p, std::uint64_t id) {
  net::run_request req;
  req.id = id;
  req.phases = phases;
  req.num_pis = static_cast<std::uint32_t>(p.num_pis);
  req.num_waves = p.num_waves;
  if (p.netlist.empty()) {
    req.fingerprint = p.fingerprint;
  } else {
    req.netlist = p.netlist;
  }
  req.payload = p.planes;
  return req;
}

void build_stack(serving_stack& s, const config& cfg) {
  s.seed = cfg.seed;
  {
    trace::scope span{"gen/build"};
    s.adder = std::make_shared<const mig_network>(gen::build_benchmark("adder64"));
  }
  {
    trace::scope span{"gen/build"};
    s.mig4k = std::make_shared<const mig_network>(gen::random_mig({64, 4000, 0.5, 32, 777}));
  }
  s.executor.emplace(1);  // the process runs on one CPU
  s.session.emplace(*s.executor);
  s.server.emplace(*s.session);
  std::uint64_t adder_fp = 0;
  std::uint64_t mig_fp = 0;
  for (unsigned c = 0; c < connections; ++c) {
    s.clients.push_back(net::wire_client::connect(s.server->port()));
    adder_fp = s.clients.back().register_program(*s.adder);
    mig_fp = s.clients.back().register_program(*s.mig4k);
  }
  std::mt19937_64 rng{cfg.seed};
  for (const auto& cls : hot_mix) {
    std::vector<payload_ptr> pool;
    for (std::size_t i = 0; i < pool_size; ++i) {
      auto p = make_payload(cls.adder ? "adder64" : "mig4k", cls.adder ? s.adder : s.mig4k,
                            cls.waves, rng);
      p->fingerprint = cls.adder ? adder_fp : mig_fp;
      pool.push_back(p);
    }
    s.pools.push_back(std::move(pool));
  }
  // Warm-up: every hot class once per connection compiles both programs
  // and faults in the buffers; one cold request warms the parse path.
  for (auto& client : s.clients) {
    for (const auto& pool : s.pools) {
      const auto resp = client.run(to_request(*pool.front(), s.next_id++));
      if (resp.status != net::wire_status::ok || !outputs_match(*pool.front(), resp.result)) {
        throw std::runtime_error{"wire_serve warm-up request failed"};
      }
    }
  }
  const auto cold = make_cold(cfg.seed + 7777, 0);
  if (const auto resp = s.clients.front().run(to_request(*cold, s.next_id++));
      resp.status != net::wire_status::ok || !outputs_match(*cold, resp.result)) {
    throw std::runtime_error{"wire_serve cold warm-up request failed"};
  }
  s.session->drain();
  (void)s.session->take_queue_wait_samples();
}

/// What one phase observed.
struct phase_result {
  std::vector<double> latency_ms;  ///< from due (open loop); +inf when refused
  std::vector<double> due_s;       ///< each latency's due time, from phase start
  std::vector<double> late_ms;     ///< generator lateness per send
  std::vector<double> send_us;
  std::vector<double> wait_us;  ///< send completed -> response received
  std::uint64_t attempted{0};
  std::uint64_t refused{0};
  std::uint64_t mismatched{0};
  std::vector<double> completed_at_s;  ///< closed loop: completions, from phase start
  bool backlog_growing{false};
  std::string error;

  void merge(const phase_result& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    due_s.insert(due_s.end(), o.due_s.begin(), o.due_s.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    send_us.insert(send_us.end(), o.send_us.begin(), o.send_us.end());
    wait_us.insert(wait_us.end(), o.wait_us.begin(), o.wait_us.end());
    attempted += o.attempted;
    refused += o.refused;
    mismatched += o.mismatched;
    completed_at_s.insert(completed_at_s.end(), o.completed_at_s.begin(),
                          o.completed_at_s.end());
    backlog_growing = backlog_growing || o.backlog_growing;
    if (error.empty()) {
      error = o.error;
    }
  }
};

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Open loop on one connection: a sender thread that sends each request at
/// its due time whatever the replies, and a receiver thread. The sender
/// only calls send() and the receiver only receive(), with ids assigned
/// here, so the two threads share no client state but the socket.
phase_result open_loop_connection(serving_stack& s, unsigned conn, clock_type::time_point start,
                                  double seconds) {
  struct inflight {
    payload_ptr p;
    clock_type::time_point due;
    clock_type::time_point sent;
  };
  net::wire_client& client = s.clients[conn];
  const open_loop_schedule schedule{nominal_rate_per_s, connections};
  const std::size_t count = schedule.requests_in(conn, seconds);
  std::mutex mutex;  // table
  std::unordered_map<std::uint64_t, inflight> table;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> total{0};  // known once the sender is done; 0 = not yet
  std::vector<double> outstanding(count);
  phase_result sender_side;
  phase_result receiver_side;

  std::thread receiver{[&] {
    try {
      for (;;) {
        const std::uint64_t t = total.load();
        if (t != 0 && received.load() == t) {
          break;
        }
        net::wire_response resp = client.receive();
        const auto now = clock_type::now();
        inflight rec;
        {
          std::lock_guard<std::mutex> lock{mutex};
          const auto it = table.find(resp.id);
          if (it == table.end()) {
            throw std::runtime_error{"response to an unknown request id"};
          }
          rec = std::move(it->second);
          table.erase(it);
        }
        received.fetch_add(1);
        if (!rec.p) {
          continue;  // the end-of-phase marker request
        }
        receiver_side.due_s.push_back(ms_between(start, rec.due) / 1e3);
        if (resp.status != net::wire_status::ok) {
          ++receiver_side.refused;
          receiver_side.latency_ms.push_back(INFINITY);
          continue;
        }
        receiver_side.latency_ms.push_back(ms_between(rec.due, now));
        receiver_side.wait_us.push_back(ms_between(rec.sent, now) * 1e3);
        trace::scope verify{"bench/verify"};
        if (!outputs_match(*rec.p, resp.result)) {
          ++receiver_side.mismatched;
        }
      }
    } catch (const std::exception& e) {
      receiver_side.error = e.what();
    }
  }};

  try {
    for (std::size_t i = 0; i < count; ++i) {
      const payload_ptr p = s.pick(conn, i);
      const std::uint64_t id = s.next_id.fetch_add(1);
      auto req = to_request(*p, id);
      const auto due = schedule.due(start, conn, i);
      std::this_thread::sleep_until(due);
      const auto now = clock_type::now();
      sender_side.late_ms.push_back(ms_between(due, now));
      {
        std::lock_guard<std::mutex> lock{mutex};
        table.emplace(id, inflight{p, due, now});
      }
      outstanding[i] = static_cast<double>(sent.load() - received.load());
      {
        trace::scope span{"net/send"};
        (void)client.send(std::move(req));
      }
      const auto after = clock_type::now();
      sender_side.send_us.push_back(ms_between(now, after) * 1e3);
      {
        // The reply may already have been taken; its wait then counts from
        // the start of the send.
        std::lock_guard<std::mutex> lock{mutex};
        if (const auto it = table.find(id); it != table.end()) {
          it->second.sent = after;
        }
      }
      sent.fetch_add(1);
      ++sender_side.attempted;
    }
    // A last small request marks the end of the phase, so the receiver
    // always has a reply to wait for after it learns the total.
    const std::uint64_t id = s.next_id.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock{mutex};
      table.emplace(id, inflight{nullptr, clock_type::now(), clock_type::now()});
    }
    total.store(sent.load() + 1);
    (void)client.send(to_request(*s.pools.front().front(), id));
  } catch (const std::exception& e) {
    sender_side.error = e.what();
    client.close();  // unblocks the receiver
  }
  receiver.join();

  // A backlog that grows across the phase: the last quarter's mean
  // outstanding count well above the first quarter's.
  if (count >= 8) {
    double first = 0.0;
    double last = 0.0;
    const std::size_t q = count / 4;
    for (std::size_t i = 0; i < q; ++i) {
      first += outstanding[i];
      last += outstanding[count - 1 - i];
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    sender_side.backlog_growing = last > std::max(2.0 * first, first + 8.0);
  }
  sender_side.merge(receiver_side);
  return sender_side;
}

phase_result open_loop(serving_stack& s, double seconds) {
  // Start a little ahead so both senders begin on schedule.
  const auto start = clock_type::now() + std::chrono::milliseconds{20};
  std::vector<phase_result> per_conn(connections);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] { per_conn[c] = open_loop_connection(s, c, start, seconds); });
  }
  for (auto& t : threads) {
    t.join();
  }
  phase_result all;
  for (const auto& r : per_conn) {
    all.merge(r);
  }
  return all;
}

/// Closed loop on one connection: one request at a time, each sent when
/// the answer to the previous one has arrived, until the phase ends.
/// Latencies are timed from the send; a request counts in the phase's
/// figures when it is answered inside it.
phase_result closed_loop_connection(serving_stack& s, unsigned conn,
                                    clock_type::time_point start, double seconds) {
  phase_result r;
  net::wire_client& client = s.clients[conn];
  const auto end = start + std::chrono::duration_cast<clock_type::duration>(
                               std::chrono::duration<double>(seconds));
  try {
    for (std::size_t index = 0; clock_type::now() < end; ++index) {
      const payload_ptr p = s.pick(conn, index);
      auto req = to_request(*p, s.next_id.fetch_add(1));
      const auto sent = clock_type::now();
      const net::wire_response resp = client.run(std::move(req));
      const auto now = clock_type::now();
      ++r.attempted;
      if (s.answered.fetch_add(1) + 1 == rss_after_requests) {
        s.rss_mb = peak_rss_mb();
      }
      if (resp.status != net::wire_status::ok) {
        ++r.refused;
        r.latency_ms.push_back(INFINITY);
        r.due_s.push_back(std::chrono::duration<double>(sent - start).count());
        continue;
      }
      if (!outputs_match(*p, resp.result)) {
        ++r.mismatched;
      } else if (now <= end) {
        r.completed_at_s.push_back(std::chrono::duration<double>(now - start).count());
        r.latency_ms.push_back(ms_between(sent, now));
        r.due_s.push_back(std::chrono::duration<double>(sent - start).count());
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// Measurement windows of a phase: one per whole second.
std::size_t window_count(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
}

/// The closed loop on every connection. While it runs, the process moves
/// to the next CPU of `cpus` at each window boundary.
phase_result closed_loop(serving_stack& s, double seconds, const cpu_rotation& cpus) {
  (void)cpus.pin_process(0);
  const auto start = clock_type::now();
  std::vector<phase_result> per_conn(connections);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back(
        [&, c] { per_conn[c] = closed_loop_connection(s, c, start, seconds); });
  }
  const std::size_t windows = window_count(seconds);
  for (std::size_t k = 1; k < windows; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(
                    seconds * static_cast<double>(k) / static_cast<double>(windows))));
    (void)cpus.pin_process(k);
  }
  for (auto& t : threads) {
    t.join();
  }
  phase_result all;
  for (const auto& r : per_conn) {
    all.merge(r);
  }
  return all;
}

/// The open-loop mix replayed in-process: the same schedule and payloads
/// through serving_session::submit_packed, no sockets. Cold requests parse
/// their .mig text first, as the server does.
phase_result in_process_replay(serving_stack& s, double seconds) {
  const open_loop_schedule schedule{nominal_rate_per_s, connections};
  const auto start = clock_type::now() + std::chrono::milliseconds{20};
  struct slot {
    std::atomic<bool> ok{false};
    std::atomic<bool> done{false};
    double latency_ms{0.0};
  };
  std::vector<std::vector<slot>> slots;
  slots.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) {
    slots.emplace_back(schedule.requests_in(c, seconds));
  }
  std::vector<std::string> errors(connections);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = 0; i < slots[c].size(); ++i) {
          const payload_ptr p = s.pick(c, i);
          std::vector<std::uint64_t> planes = p->planes;
          const auto due = schedule.due(start, c, i);
          std::this_thread::sleep_until(due);
          std::shared_ptr<const mig_network> net = p->net;
          if (!p->netlist.empty()) {
            std::istringstream in{p->netlist};
            net = std::make_shared<const mig_network>(io::read_mig(in));
          }
          slot& sl = slots[c][i];
          s.session->submit_packed(
              net, std::move(planes), p->num_waves, phases,
              [&sl, p, due](engine::packed_wave_result r, std::exception_ptr error) {
                sl.latency_ms = ms_between(due, clock_type::now());
                sl.ok.store(!error && outputs_match(*p, r));
                sl.done.store(true);
              });
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  s.session->drain();
  phase_result r;
  for (const auto& e : errors) {
    if (r.error.empty()) {
      r.error = e;
    }
  }
  for (auto& conn : slots) {
    for (auto& sl : conn) {
      ++r.attempted;
      if (!sl.done.load() || !sl.ok.load()) {
        ++r.mismatched;
        continue;
      }
      r.latency_ms.push_back(sl.latency_ms);
    }
  }
  return r;
}

/// Latency percentile where a refused request counts as missing every
/// limit: it sorts above all answered ones, and a percentile that lands on
/// one reports the phase length.
double latency_pct(const std::vector<double>& ms, unsigned pct, double phase_s) {
  const double v = percentile(ms, pct);
  return std::isfinite(v) ? v : phase_s * 1e3;
}

/// Latency percentile per one-second window of due times (a refused request
/// counts as missing every limit: it sorts above all answered ones, and a
/// percentile that lands on one reports the phase length).
std::vector<double> window_latency_pcts(const phase_result& p, unsigned pct, double phase_s) {
  const std::size_t windows = window_count(phase_s);
  std::vector<std::vector<double>> per_window(windows);
  for (std::size_t i = 0; i < p.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(p.due_s[i] / phase_s * static_cast<double>(windows));
    per_window[std::min(w, windows - 1)].push_back(p.latency_ms[i]);
  }
  std::vector<double> values;
  for (const auto& samples : per_window) {
    if (!samples.empty()) {
      values.push_back(latency_pct(samples, pct, phase_s));
    }
  }
  return values;
}

/// Completions per second in each one-second window of the phase, then the
/// fast decile of the windows.
double window_rate(const std::vector<double>& completed_at_s, double seconds) {
  const std::size_t windows = window_count(seconds);
  std::vector<double> counts(windows, 0.0);
  const double width = seconds / static_cast<double>(windows);
  for (const double t : completed_at_s) {
    counts[std::min(windows - 1, static_cast<std::size_t>(t / width))] += 1.0;
  }
  return fast_decile(counts, true) / width;
}

/// Folds a phase's counts into the run: refusals fail operations, wrong
/// outputs also make the run incorrect.
void account(result& out, const phase_result& p, const char* phase) {
  out.attempted += p.attempted;
  out.failed += p.refused;
  if (p.mismatched != 0) {
    out.mismatch(std::string{phase} + ": " + std::to_string(p.mismatched) +
                 " responses disagree with the reference");
  }
  if (!p.error.empty()) {
    out.mismatch(std::string{phase} + ": " + p.error);
  }
}

}  // namespace

result run_wire_serve(const config& cfg) {
  // The threads of the process (server, serving session, clients) share
  // one CPU at a time. Spread over the vCPUs of a shared host, every
  // hand-off between threads crosses CPUs, and how long that takes follows
  // the host's load, not the program: in five pairs of interleaved runs of
  // the closed loop on a 4-vCPU host, the p50 ranged 0.13-0.26 ms and the
  // p99 1.4-10 ms unpinned, 0.15-0.18 ms and 1.9-2.2 ms on one CPU.
  const cpu_rotation cpus;
  (void)cpus.pin_process(0);
  result out;
  auto& recorder = trace::recorder::global();
  std::unique_ptr<serving_stack> stack;
  recorder.enable(cfg.trace);
  const auto setup = [&] {
    stack.reset();
    stack = std::make_unique<serving_stack>();
    build_stack(*stack, cfg);
  };
  const double setup_s =
      cfg.trace ? median_setup_seconds(1, setup) : setup_seconds_on_fastest_cpu(3, cpus, setup);
  recorder.enable(false);
  auto setup_spans = recorder.take();
  auto& s = *stack;

  if (!cfg.trace) {
    const auto closed = closed_loop(s, cfg.seconds, cpus);
    account(out, closed, "closed loop");
    const double rps = window_rate(closed.completed_at_s, cfg.seconds);
    const double p50 = fast_decile(window_latency_pcts(closed, 50, cfg.seconds), false);
    const double p99 = latency_pct(closed.latency_ms, 99, cfg.seconds);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", s.rss_mb > 0.0 ? s.rss_mb : peak_rss_mb());
    out.set("throughput_per_s", rps);
    out.set("latency_p50_ms", p50);
    out.note("wire_rps = %.1f 1/s, wire_p50_ms = %.4f ms, wire_p99_ms = %.4f ms over the whole "
             "run%s (closed loop, one request at a time per connection, %zu answered, one CPU "
             "at a time, %zu in turn)",
             rps, p50, p99,
             percentile_supported(closed.latency_ms.size(), 99) ? "" : " (p99 NOT supported)",
             closed.latency_ms.size(), cpus.size());
    out.note("peak_rss_mb read %s %llu answers", s.rss_mb > 0.0 ? "after" : "at the end, short of",
             static_cast<unsigned long long>(rss_after_requests));
    return out;
  }

  // Traced: the open loop untraced, then traced, then replayed in-process.
  const double phase_s = cfg.seconds / 3;
  const auto plain = open_loop(s, phase_s);
  account(out, plain, "open loop");
  (void)s.session->take_queue_wait_samples();
  const auto m1 = s.session->metrics();
  const auto c1 = s.session->stats();
  const auto srv1 = s.server->stats();
  recorder.enable(true);
  const auto traced = open_loop(s, phase_s);
  recorder.enable(false);
  account(out, traced, "traced open loop");
  s.session->drain();
  const auto waits = s.session->take_queue_wait_samples();
  const auto m2 = s.session->metrics();
  const auto c2 = s.session->stats();
  const auto srv2 = s.server->stats();
  const auto replay = in_process_replay(s, phase_s);
  account(out, replay, "in-process replay");

  auto spans = recorder.take();
  set_stage_means(out, setup_spans, spans);
  if (!waits.empty()) {
    out.set("engine.serving.queue_wait_p50_ms", percentile(waits, 50));
    out.set("engine.serving.queue_wait_p99_ms", percentile(waits, 99));
  }
  out.set("engine.serving.fused_passes", static_cast<double>(m2.fused_passes - m1.fused_passes));
  out.set("engine.serving.coalesced_requests",
          static_cast<double>(m2.coalesced_requests - m1.coalesced_requests));
  out.set("engine.serving.singleton_passes",
          static_cast<double>(m2.singleton_passes - m1.singleton_passes));
  out.set("engine.serving.max_gulp", static_cast<double>(m2.max_gulp));
  out.set("engine.cache.hits", static_cast<double>(c2.hits - c1.hits));
  out.set("engine.cache.misses", static_cast<double>(c2.misses - c1.misses));
  out.set("engine.cache.evictions", static_cast<double>(c2.evictions - c1.evictions));
  out.set("net.client.send_us", median(traced.send_us));
  out.set("net.client.recv_wait_us", median(traced.wait_us));
  const double wire_p50 = latency_pct(plain.latency_ms, 50, phase_s);
  out.set("net.overhead_p50_ms", wire_p50 - median(replay.latency_ms));
  out.set("net.server.requests_refused",
          static_cast<double>(srv2.requests_refused - srv1.requests_refused));
  out.set("net.server.watchdog_expired",
          static_cast<double>(srv2.requests_watchdog_expired - srv1.requests_watchdog_expired));
  std::uint64_t resends = 0;
  std::uint64_t reconnects = 0;
  for (const auto& client : s.clients) {
    resends += client.stats().resends;
    reconnects += client.stats().reconnects;
  }
  out.set("net.client.resends", static_cast<double>(resends));
  out.set("net.client.reconnects", static_cast<double>(reconnects));
  out.set("wire.generator_late_p99_ms", percentile(plain.late_ms, 99));
  out.set("wire.backlog_growing", plain.backlog_growing ? 1.0 : 0.0);
  report_ledger(out, spans);
  report_overhead(out, latency_pct(traced.latency_ms, 50, phase_s) / 1e3, wire_p50 / 1e3, false);
  out.note("in-process replay p50 %.4f ms vs wire p50 %.4f ms", median(replay.latency_ms),
           wire_p50);
  setup_spans.insert(setup_spans.end(), spans.begin(), spans.end());
  out.spans = std::move(setup_spans);
  return out;
}

}  // namespace wavebench
