#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/mig.hpp"

namespace wavemig::engine {

/// @name Serving error taxonomy
///
/// Typed errors of the serving layer (like `unknown_technology_error` in the
/// technology registry), so front-ends — the network wire layer above all —
/// can map failure classes to status codes without string-matching. Every
/// class keeps the base its untyped predecessor threw (`std::runtime_error`
/// for control-flow errors, `std::invalid_argument` for validation errors),
/// so pre-existing catch sites keep working unchanged.
/// @{

/// Thrown by `submit`/`submit_packed` once the session is closed (a
/// `close()` ran or is running). Previously a bare `std::runtime_error`.
class session_closed_error : public std::runtime_error {
public:
  session_closed_error() : std::runtime_error{"serving_session: submit after close"} {}
};

/// Thrown by `submit`/`submit_packed` when admission control is enabled and
/// the backlog (queued + executing requests) already sits at the bound: the
/// request was rejected outright, never queued. Rejecting beats queueing for
/// a loaded server — the caller learns immediately instead of discovering a
/// deadline miss later.
class admission_rejected_error : public std::runtime_error {
public:
  admission_rejected_error(std::size_t pending, std::size_t bound)
      : std::runtime_error{"serving_session: admission rejected (" +
                           std::to_string(pending) + " pending >= bound " +
                           std::to_string(bound) + ")"} {}
  /// Load-shedding variant: the session is overloaded (see shed_policy) and
  /// this request's priority class is the one being shed.
  explicit admission_rejected_error(const std::string& what)
      : std::runtime_error{what} {}
};

/// Surfaced through the future/callback of a request whose deadline passed
/// before a dispatcher picked it up: the request fails instead of executing
/// (its result could no longer be used by anyone).
class deadline_expired_error : public std::runtime_error {
public:
  deadline_expired_error() : std::runtime_error{"serving_session: deadline expired"} {}
};

/// Surfaced through the future/callback of a request whose shape fails
/// validation on the dispatcher — a zero-wave packed submission, plane words
/// inconsistent with the declared wave count, or stray tail bits under
/// strict validation. Derives from `std::invalid_argument` like every other
/// engine validation error.
class invalid_request_error : public std::invalid_argument {
public:
  explicit invalid_request_error(const std::string& what) : std::invalid_argument{what} {}
};

/// @}

/// Per-request serving policies, honored by the dispatcher's gulp order.
/// Default-constructed options reproduce the pre-policy behavior exactly
/// (FIFO order, no deadline, tail bits masked).
struct submit_options {
  /// Dispatch priority: lower values are gulped (hence dispatched) first.
  /// 128 is the neutral default; the wire protocol carries the raw byte.
  std::uint8_t priority{128};
  /// Absolute deadline. A request still queued when its deadline passes
  /// fails with deadline_expired_error instead of executing. The zero
  /// time_point (default) means no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Fairness key: within one priority class, a gulp round-robins across
  /// distinct client ids (one request per client per turn, FIFO within a
  /// client), so one flooding connection cannot starve the others. 0 means
  /// unkeyed — unkeyed requests form their own round-robin class.
  std::uint64_t client_id{0};
  /// Strict packed validation: stray bits above `num_waves` in a plane's
  /// last chunk fail the request (invalid_request_error) instead of being
  /// silently masked — what the wire front-end uses for untrusted payloads.
  bool reject_stray_tail_bits{false};
  /// Scenario of the request; null = untagged. Shared so fused members and
  /// the coalescing machinery never copy the scenario.
  std::shared_ptr<const tech_scenario> scenario;
};

/// Overload load-shedding policy (set_shed_policy). When the session looks
/// overloaded — the queue is at least `queue_depth` requests deep, or it is
/// non-empty and the recent queue-wait p99 exceeds `queue_wait_p99_ms` —
/// submissions whose priority byte is `min_priority` or worse (higher) are
/// rejected with admission_rejected_error *before* they consume a queue
/// slot, so the high-priority traffic that can still meet its deadlines
/// keeps flowing. Unlike the admission limit (a hard backlog cap for
/// everyone), shedding is selective: best-effort traffic pays for the
/// overload first. A default-constructed policy (both thresholds zero)
/// disables shedding.
struct shed_policy {
  /// Queue depth at which the session counts as overloaded; 0 = ignore.
  std::size_t queue_depth{0};
  /// Recent queue-wait p99 (milliseconds, over the last ~128 requests
  /// dispatched since the dispatcher last left the queue empty) above which
  /// the session counts as overloaded while a backlog exists (an empty
  /// queue picks the next request up at once, and a drained queue ends the
  /// overload those waits measured); 0 = ignore.
  double queue_wait_p99_ms{0.0};
  /// Priority bytes >= this are shed while overloaded. The default 192
  /// sheds the bottom quarter of the priority space and never touches the
  /// neutral default (128).
  std::uint8_t min_priority{192};
};

/// Completion callback of the async serving API. Exactly one of the two
/// arguments is meaningful: on success `error` is null and `result` carries
/// the packed outputs; on failure (e.g. an incoherent netlist or a
/// PI-count mismatch) `error` holds the exception and `result` is empty.
/// Callbacks run on an executor worker (the one that finished the request's
/// last plane-block) or, for requests that fail validation, on a dispatcher
/// thread — they may `submit` further requests, but must not block on the
/// session (`drain`/`close`) or on the executor, and should hand heavy
/// post-processing to the caller's own threads. An exception thrown by a
/// callback (e.g. a follow-up `submit` racing `close()`) is caught and
/// discarded; it never kills a dispatcher or a worker.
using serving_callback =
    std::function<void(packed_wave_result result, std::exception_ptr error)>;

/// Point-in-time counters of a serving session's dispatcher. All counts are
/// monotonic over the session's lifetime.
struct serving_metrics {
  std::uint64_t requests_accepted{0};
  std::uint64_t requests_completed{0};  ///< callbacks fired with a result
  std::uint64_t requests_failed{0};     ///< callbacks fired with an error
  /// Submissions refused by admission control (admission_rejected_error
  /// thrown from submit; never accepted, so disjoint from the above).
  std::uint64_t requests_rejected{0};
  /// Submissions shed by the overload policy (a subset of
  /// requests_rejected: every shed is also counted there).
  std::uint64_t requests_shed{0};
  /// Requests failed because their deadline passed before dispatch (a
  /// subset of requests_failed).
  std::uint64_t requests_expired{0};
  /// Requests that executed as members of a fused multi-request pool pass
  /// (always counts the whole pass: a fused pass of 5 adds 5 here).
  std::uint64_t coalesced_requests{0};
  std::uint64_t fused_passes{0};      ///< multi-request pool passes launched
  std::uint64_t singleton_passes{0};  ///< single-request pool passes launched
  std::uint64_t gulps{0};             ///< queue drains performed by dispatchers
  std::uint64_t max_gulp{0};          ///< largest single drain (requests)
};

/// Async serving front-end over `batch_session`: a multi-producer
/// submission queue feeding a small pool of dispatcher threads, which
/// compile through the session's bounded compiled-netlist cache and shard
/// the actual wave evaluation across the shared `parallel_executor`.
///
/// * `submit` never blocks on evaluation — it enqueues and returns a
///   `std::future` (or fires a completion callback) whose result words are
///   bit-identical to `run_waves_packed` on the session-balanced network.
/// * Dispatchers drain the queue in **gulps** and **coalesce** small
///   same-program requests (same compiled-netlist fingerprint, buffer
///   strategy, and phase count) into one fused multi-chunk pool pass: each
///   request's waves become a chunk range of a fused plane-major block, the
///   pass shards across the executor like one big batch, and the finished
///   planes are sliced back per request. Wave coherence makes every 64-wave
///   chunk a pure function of its own input chunk, so a request's sliced
///   words are bit-identical to running it alone.
/// * Execution is non-blocking end to end: a dispatcher launches each pass
///   via `parallel_executor::submit_group` with a completion callback and
///   immediately returns to the queue, so a couple of dispatchers keep
///   dozens of requests in flight. Per-request completion callbacks fire on
///   the worker that finished the pass (in no guaranteed order across
///   requests — concurrent passes complete as they complete).
/// * Error isolation: requests that fail preparation (malformed packed
///   words, incoherent netlist, phase/PI mismatch) fail individually and
///   never poison their gulp-mates. Members of one fused pass share a
///   fate only if the pass itself throws mid-evaluation (which no engine
///   path does for validated inputs) — then every member receives that
///   error.
/// * Per-request compiled-netlist reuse: requests against structurally
///   identical networks share one cached program; the request holds its own
///   reference, so cache eviction (LRU under `cache_limits`) while the
///   request is in flight is safe. The session memoizes each submitted
///   network's fingerprint by `shared_ptr`, so a hot resubmission costs one
///   hash-map lookup instead of an O(network) re-hash.
/// * Dispatcher threads are deliberately separate from the executor's
///   workers: dispatchers prepare and launch, workers evaluate and
///   complete; neither ever blocks on the pool from inside it.
///
/// Shutdown is graceful by default: `close()` (and the destructor) stops
/// accepting new requests, drains everything already accepted, then joins
/// the dispatchers. No accepted request is ever dropped.
class serving_session {
public:
  /// The executor must outlive the session. `dispatchers == 0` resolves to
  /// 2 — enough to overlap one request's compile (cache miss) with another
  /// gulp's preparation; execution itself is asynchronous, so dispatcher
  /// count bounds preparation concurrency, not requests in flight.
  explicit serving_session(parallel_executor& executor,
                           buffer_insertion_options options = {}, cache_limits limits = {},
                           unsigned dispatchers = 0);
  ~serving_session();

  serving_session(const serving_session&) = delete;
  serving_session& operator=(const serving_session&) = delete;

  /// Enqueues one request; `on_complete` fires exactly once per accepted
  /// request (see serving_callback for the threading contract) with result
  /// words bit-identical to `run_waves_packed` on the session-balanced
  /// network. Validation happens on the dispatcher, so a malformed request
  /// surfaces through its callback (or future), not from `submit`. Throws
  /// session_closed_error when the session is closed and
  /// admission_rejected_error when admission control or load shedding
  /// refuses the request.
  ///
  /// The session keeps only a reference to `net` (no deep copy) and
  /// memoizes its fingerprint, so resubmitting the same network object
  /// costs one cache lookup: make the `shared_ptr` once and reuse it.
  ///
  /// `opts` adds priority, an absolute deadline, a per-client fairness key,
  /// strict tail-bit validation and a technology scenario (see
  /// submit_options); defaults reproduce plain FIFO serving. A
  /// scenario-tagged request compiles through the scenario-tagged cache
  /// path (batch_session::compile with a scenario), so one session serves
  /// several scenarios of the same netlist concurrently — each scenario's
  /// requests coalesce among themselves (the coalescing key is the compiled
  /// program) and never across scenarios.
  void submit(std::shared_ptr<const mig_network> net, wave_batch waves, unsigned phases,
              serving_callback on_complete, submit_options opts = {});
  /// Future form of the callback `submit` above: the result (or the
  /// request's error) arrives through `future.get()`.
  [[nodiscard]] std::future<packed_wave_result> submit(
      std::shared_ptr<const mig_network> net, wave_batch waves, unsigned phases,
      submit_options opts = {});

  /// Zero-copy packed submission: `plane_words` holds the waves already in
  /// the engine's plane-major layout — ceil(num_waves / 64) contiguous
  /// chunk words per PI, PI i's words at `plane_words[i * chunks ..
  /// (i+1) * chunks)`, wave w at bit w % 64 (exactly
  /// `wave_batch::view()` with plane stride == chunk count). The vector is
  /// adopted wholesale (`wave_batch::from_plane_words`); no per-wave
  /// packing, no transpose, no copy happens anywhere between the producer
  /// and the kernel. Bits above `num_waves` in each plane's last chunk are
  /// masked off (or rejected — see submit_options::reject_stray_tail_bits).
  /// Otherwise exactly like `submit`: validation (including the vector-size
  /// check) happens on the dispatcher, and the same errors are thrown.
  void submit_packed(std::shared_ptr<const mig_network> net,
                     std::vector<std::uint64_t> plane_words, std::size_t num_waves,
                     unsigned phases, serving_callback on_complete,
                     submit_options opts = {});
  /// Future form of the callback `submit_packed` above.
  [[nodiscard]] std::future<packed_wave_result> submit_packed(
      std::shared_ptr<const mig_network> net, std::vector<std::uint64_t> plane_words,
      std::size_t num_waves, unsigned phases, submit_options opts = {});

  /// Admission bound: while `pending() >= max_pending`, submissions throw
  /// admission_rejected_error instead of queueing (and are counted in
  /// metrics().requests_rejected). 0 — the default — disables admission
  /// control. Safe to adjust while the session is serving.
  void set_admission_limit(std::size_t max_pending);
  [[nodiscard]] std::size_t admission_limit() const;

  /// Overload shedding (see shed_policy): while the queue depth or (with a
  /// backlog) the recent queue-wait p99 crosses its threshold, submissions
  /// at or below the policy's priority floor throw admission_rejected_error
  /// (counted in metrics().requests_shed). Safe to adjust while the
  /// session is serving; the default (zero) policy disables shedding.
  void set_shed_policy(shed_policy policy);
  [[nodiscard]] shed_policy get_shed_policy() const;

  /// Blocks until every request accepted so far completed. New submissions
  /// remain allowed (and may keep `drain` from returning if they keep
  /// arriving).
  void drain();

  /// Stops accepting (`submit` throws), drains all accepted requests, joins
  /// the dispatchers. Idempotent and safe to call concurrently.
  void close();

  /// Requests accepted but not yet completed (queued + executing).
  [[nodiscard]] std::size_t pending() const;
  /// Dispatcher threads still attached (0 once closed). Blocks while a
  /// concurrent `close()` is joining them.
  [[nodiscard]] unsigned num_dispatchers() const {
    std::lock_guard<std::mutex> lock{close_mutex_};
    return static_cast<unsigned>(dispatchers_.size());
  }

  /// Counters of the underlying compiled-netlist cache.
  [[nodiscard]] session_stats stats() const { return session_.stats(); }
  /// Dispatcher-level counters (gulps, coalescing, completions).
  [[nodiscard]] serving_metrics metrics() const;
  /// Drains the queue-wait sample reservoir: per-request milliseconds spent
  /// between `submit` and the dispatcher picking the request up, for the
  /// first 8192 requests dispatched since the previous take (later ones are
  /// not recorded until the next take). Benchmarks take right after a
  /// warm-up and turn these into queue-wait percentiles.
  [[nodiscard]] std::vector<double> take_queue_wait_samples();
  /// The synchronous session underneath — shares the cache with the async
  /// path, so mixed sync/async workloads reuse one set of programs.
  [[nodiscard]] batch_session& session() { return session_; }

private:
  struct request {
    std::shared_ptr<const mig_network> net;
    wave_batch waves{0};  // wave_batch has no default constructor
    /// submit_packed requests carry the adopted plane-major words instead
    /// of a batch; the dispatcher wraps them (zero-copy, but its size
    /// validation must surface through the future, not from submit).
    std::vector<std::uint64_t> plane_words;
    std::size_t packed_waves{0};
    bool packed{false};
    unsigned phases{0};
    /// Per-request policies: priority/deadline/fairness key, strict tail
    /// validation, and the scenario (null = untagged). The scenario is
    /// shared so fused members and the memo never copy it.
    submit_options opts;
    serving_callback done;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// One launched pool pass: a singleton request (zero-copy view of its own
  /// batch) or a fused group of small same-program requests packed into one
  /// plane-major block. Shared between the group tasks, the completion
  /// callback, and nothing else — destroyed when the last of them lets go.
  struct exec_unit {
    std::shared_ptr<const compiled_netlist> program;
    unsigned phases{0};
    bool fused{false};
    std::size_t total_chunks{0};
    std::vector<request> members;
    std::vector<std::size_t> member_offsets;  ///< chunk offset per member (fused)
    std::vector<std::size_t> member_waves;    ///< wave count per member
    wave_batch batch{0};                   ///< singleton input (moved from the request)
    std::vector<std::uint64_t> in_words;   ///< fused input planes, stride total_chunks
    std::vector<std::uint64_t> out_words;  ///< result planes, stride total_chunks
  };

  void enqueue(request req);
  void dispatcher_loop();
  /// Selects the next gulp under `mutex_`. The queue's common shape — one
  /// priority class, at most one client id — takes a straight FIFO slice;
  /// otherwise requests are ordered by ascending priority byte and, inside
  /// a priority class, round-robined across client ids (one request per
  /// client per turn, FIFO within a client) so one flooding connection
  /// cannot starve the rest of a gulp.
  std::vector<request> take_gulp_locked();
  void process_gulp(std::vector<request> gulp);
  /// Fingerprint of `net`, memoized by pointer for shared networks. The
  /// memo entry carries a weak_ptr so a reused allocation address (old
  /// network freed, new one at the same address) can never serve a stale
  /// fingerprint.
  std::uint64_t fingerprint_of(const std::shared_ptr<const mig_network>& net);
  /// Fails one request before launch: fires its callback with `error` on
  /// the calling (dispatcher) thread and retires it from `active_`.
  void fail_request(request& req, std::exception_ptr error);
  /// Launches one pass on the executor (waits for an in-flight slot first).
  void launch_unit(std::shared_ptr<exec_unit> unit);
  /// Completion of one pass, on the worker that finished its last task (or
  /// inline on the dispatcher for an empty pass): slices results back per
  /// member, fires callbacks, retires the members and the in-flight slot.
  void finish_unit(const std::shared_ptr<exec_unit>& unit, std::exception_ptr error);

  /// Requests per queue drain: bounds a gulp's preparation latency and the
  /// transient memory of its fused blocks.
  static constexpr std::size_t max_gulp_requests = 64;
  /// Requests at most this many chunks wide coalesce; wider ones amortize
  /// their pass overhead on their own. One full multi-word kernel pass.
  static constexpr std::size_t small_request_chunks = compiled_netlist::max_block_chunks;
  /// Chunk budget of one fused block (128 chunks = 8192 waves): big enough
  /// to amortize a pass over dozens of small requests, small enough that a
  /// gulp's fused blocks stay cache- and memory-friendly.
  static constexpr std::size_t max_fused_chunks = 16 * compiled_netlist::max_block_chunks;
  static constexpr std::size_t max_queue_wait_samples = 8192;

  parallel_executor& executor_;
  batch_session session_;
  /// In-flight pass cap: dispatchers stall launching (not accepting) once
  /// this many passes are queued or running, bounding result-buffer memory
  /// under a flood. Workers retire passes, so the stall always clears.
  std::size_t max_inflight_units_;
  mutable std::mutex mutex_;
  std::condition_variable queue_ready_;  // dispatchers: work or close
  std::condition_variable idle_;         // drain: queue empty and nothing active
  std::condition_variable unit_retired_;  // launch_unit: in-flight slot free
  std::deque<request> queue_;
  std::size_t active_{0};
  std::size_t inflight_units_{0};
  /// 0 = unbounded; otherwise submissions are rejected once
  /// `queue_.size() + active_` reaches the bound.
  std::size_t admission_limit_{0};
  bool closed_{false};
  serving_metrics metrics_;
  shed_policy shed_policy_{};
  /// Ring of the most recent queue waits (ms), feeding the cached p99 the
  /// shed check reads — O(1) per submission, recomputed every few samples;
  /// emptied, with the cached p99, whenever a gulp leaves the queue empty.
  std::vector<double> recent_waits_;
  std::size_t recent_at_{0};
  std::size_t samples_since_p99_{0};
  double cached_wait_p99_ms_{0.0};
  std::vector<double> queue_wait_samples_;
  struct fp_memo_entry {
    std::weak_ptr<const mig_network> net;
    std::uint64_t fingerprint{0};
  };
  std::mutex fp_mutex_;
  std::unordered_map<const mig_network*, fp_memo_entry> fp_memo_;
  /// Serializes joining: every close() caller blocks until the dispatchers
  /// are actually joined, not just until someone else started joining.
  /// Guards dispatchers_ once the session is visible to other threads.
  mutable std::mutex close_mutex_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace wavemig::engine
