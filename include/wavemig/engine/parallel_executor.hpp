#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavemig::engine {

namespace detail {
struct group_state;
}  // namespace detail

/// Completion token of `parallel_executor::submit_group`: a handle on a
/// sharded run that was enqueued without blocking the caller. The caller can
/// poll (`done`), park on it (`wait`), or — the non-blocking path the
/// serving dispatcher uses — attach a completion callback at submit time and
/// never wait at all. Default-constructed tokens are empty (`valid() ==
/// false`); copies share the same underlying run.
class task_group {
public:
  task_group() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// True once every task of the group finished (or was cancelled by an
  /// earlier task's exception).
  [[nodiscard]] bool done() const;
  /// Blocks until the group completed. Must not be called from a task
  /// running on the same executor (the parked worker may be the one the
  /// group is waiting for). Does not rethrow — check `error()`.
  void wait() const;
  /// The first exception thrown by a task, or null. Stable once `done()`.
  [[nodiscard]] std::exception_ptr error() const;

private:
  friend class parallel_executor;
  explicit task_group(std::shared_ptr<detail::group_state> state)
      : state_{std::move(state)} {}
  std::shared_ptr<detail::group_state> state_;
};

/// Fired exactly once when a submitted group completes, on the worker that
/// finished its last task; `error` is the group's first exception (null on
/// success). Keep it light — it occupies a worker lane — and never block on
/// the executor from inside it.
using group_callback = std::function<void(std::exception_ptr)>;

/// Persistent worker pool for sharded packed execution. Workers are spawned
/// once and reused across runs, and each worker owns a scratch buffer that
/// the chunk kernel reuses, so the steady-state hot path performs no
/// allocation and no thread creation.
///
/// Scheduling is work-stealing over per-worker deques: every worker owns a
/// deque of tasks and pushes/pops it under its own (uncontended) lock; a
/// sharded run pre-partitions its plane-block tasks contiguously across the
/// worker deques, so each worker walks its own ascending chunk range
/// (prefetch-friendly) and only when its deque runs dry does it steal whole
/// plane-blocks from the *back* of a victim's deque — the blocks farthest
/// from where the victim is currently working. There is no single global
/// queue mutex on the hot path: concurrent sessions and sharded runs
/// contend only when they actually steal from each other.
///
/// Two entry points:
/// * `for_each` shards an index space and blocks until done (what
///   `run_waves_parallel` uses).
/// * `submit_group` is its non-blocking sibling: same sharding, returns a
///   `task_group` completion token immediately — callers await (or attach a
///   completion callback to) a sharded run without parking a thread inside
///   the pool. This is what the serving dispatcher runs requests on.
///
/// Both are safe to call from multiple threads concurrently.
///
/// Precondition: never *block on* the pool (`for_each`, `task_group::wait`,
/// `run_waves_parallel`, `batch_session::run`) from inside a task running
/// on the same executor — the blocked worker is the one that would have to
/// run the awaited tasks, which deadlocks. Fire-and-forget calls
/// (`submit_group` without waiting) are fine from inside tasks.
class parallel_executor {
public:
  /// `num_threads == 0` resolves to the hardware concurrency (at least 1).
  explicit parallel_executor(unsigned num_threads = 0);
  ~parallel_executor();

  parallel_executor(const parallel_executor&) = delete;
  parallel_executor& operator=(const parallel_executor&) = delete;

  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs `fn(task, worker)` for every task in [0, num_tasks). Tasks are
  /// pre-partitioned contiguously across the workers and rebalanced by
  /// stealing; `worker` is the stable index of the executing worker in
  /// [0, num_threads()). Blocks until every task finished; the first
  /// exception thrown by `fn` is rethrown here after the remaining tasks
  /// have been cancelled.
  void for_each(std::size_t num_tasks, const std::function<void(std::size_t, unsigned)>& fn);

  /// Non-blocking sibling of `for_each`: enqueues the sharded run and
  /// returns its completion token immediately. The executor owns a copy of
  /// `fn` until the group completes. `on_complete` (optional) fires exactly
  /// once, on the worker that finishes the group's last task, with the
  /// group's first error (null on success); a group of zero tasks completes
  /// — and fires `on_complete` — before `submit_group` returns, on the
  /// calling thread. An exception from a task cancels the group's remaining
  /// tasks, exactly like `for_each`.
  task_group submit_group(std::size_t num_tasks, std::function<void(std::size_t, unsigned)> fn,
                          group_callback on_complete = {});

  /// Reusable per-worker scratch for the packed chunk kernel. Only the
  /// worker with index `worker` may touch it while tasks are running.
  [[nodiscard]] std::vector<std::uint64_t>& scratch(unsigned worker) {
    return scratch_[worker];
  }

private:
  /// One queued unit of work: task `index` of a sharded group. Items carry
  /// a shared reference to the group, so an item survives in a deque (or in
  /// a thief's hands) past any other item's completion.
  struct task_item {
    std::shared_ptr<detail::group_state> group;
    std::size_t index{0};
  };

  /// Per-worker deque. The owner pushes/pops the front, thieves take from
  /// the back; the mutex is uncontended unless someone is actually
  /// stealing. Padding out to a cache line would be a further refinement;
  /// the mutex already keeps false sharing off the hot path.
  struct work_deque {
    std::mutex mutex;
    std::deque<task_item> items;
  };

  void worker_loop(unsigned worker);
  /// Pops the next item for `worker` (own deque first, then steals). False
  /// when the executor is stopping and every deque is drained.
  bool next_item(unsigned worker, task_item& item);
  void run_item(task_item& item, unsigned worker);
  /// Wakes sleepers after `count` new items were made visible.
  void notify_new_work(std::size_t count);

  std::vector<std::vector<std::uint64_t>> scratch_;
  std::vector<std::unique_ptr<work_deque>> deques_;
  std::atomic<std::size_t> pending_{0};   ///< queued items across all deques
  std::atomic<unsigned> sleepers_{0};     ///< workers parked on sleep_cv_
  std::atomic<unsigned> rr_next_{0};      ///< rotates each group's first deque
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool stop_{false};                      ///< guarded by sleep_mutex_
  std::vector<std::thread> workers_;  // last member: joins before the rest dies
};

/// Sharded packed execution: identical contract and bit-identical result
/// words to `run_waves_packed`, with the batch distributed across the
/// executor's workers in multi-chunk blocks
/// (compiled_netlist::shard_block_chunks picks the block size: full
/// multi-word kernel width on big batches, shrinking toward one chunk per
/// task when the batch is too small to feed every worker at full width).
/// Blocks are independent (wave coherence makes every chunk a pure function
/// of its inputs); each task evaluates a chunk slice of the batch's
/// plane-major view (no copy — a slice is the same planes at an offset
/// base) and writes a disjoint chunk range of every result plane, so
/// assembly is deterministic regardless of completion order — and identical
/// at every block size.
packed_wave_result run_waves_parallel(const compiled_netlist& net, const wave_batch& waves,
                                      unsigned phases, parallel_executor& executor);

/// Order-sensitive structural fingerprint of a network: FNV-1a over node
/// kinds, buffer run lengths, fan-in references, PI positions, and output
/// drivers. Networks
/// that compile to different programs fingerprint differently (modulo
/// 64-bit collisions); names are deliberately excluded — they do not affect
/// execution.
[[nodiscard]] std::uint64_t network_fingerprint(const mig_network& net);

/// Bounds for a session's compiled-netlist cache. A value of 0 leaves the
/// corresponding dimension unbounded (the PR-2 behavior: cache everything
/// forever). `max_bytes` is charged per entry via
/// `compiled_netlist::memory_bytes()` and is a hard ceiling: the cache
/// evicts until it is back under the bound, even when that means the entry
/// that was inserted a moment ago — requests already holding the program
/// keep it alive through their shared_ptr, so eviction never invalidates an
/// in-flight run.
struct cache_limits {
  std::size_t max_entries{0};
  std::size_t max_bytes{0};
};

/// Point-in-time counters of a session's compiled-netlist cache. `hits` /
/// `misses` / `evictions` are monotonic over the session's lifetime;
/// `entries` / `bytes` / `comb_ops` / `comb_slots` describe what is
/// resident right now (`bytes` never exceeds `cache_limits::max_bytes` when
/// that bound is set). The op/slot totals are summed over the resident
/// compiled programs: what the session executes and keeps hot.
struct session_stats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t evictions{0};
  std::size_t entries{0};
  std::size_t bytes{0};
  std::size_t comb_ops{0};
  std::size_t comb_slots{0};
};

/// Serving-style compiled-netlist cache: the first batch against a network
/// balances it (`insert_buffers` with the session options) and lowers it
/// once; every later batch against a structurally identical network reuses
/// the cached program. Keyed by (network fingerprint, buffer strategy,
/// phases), so one session can interleave requests against many circuits
/// without re-lowering any of them.
///
/// Long-lived sessions can bound the cache with `cache_limits`: entries are
/// evicted least-recently-used first whenever the entry or byte bound is
/// exceeded. Programs are refcounted (`shared_ptr`), so evicting an entry
/// whose program a request still executes only drops the cache's reference;
/// the run completes on its own copy and the memory is released when the
/// last request finishes.
///
/// Thread-safe: concurrent `run`/`compile` calls may share the session and
/// its executor. Two threads missing on the same key may both compile; one
/// result wins the cache, both runs are correct.
///
/// The lowered program itself does not depend on `phases` (coherence is
/// checked at run time), so a circuit served at several phase counts keeps
/// one entry per count — a little redundant memory in exchange for a key
/// that stays valid if lowering ever becomes phase-specialized.
class batch_session {
public:
  explicit batch_session(parallel_executor& executor,
                         buffer_insertion_options options = {}, cache_limits limits = {});

  /// Balances + compiles `net` on first sight (cache miss), then evaluates
  /// the batch on the executor. The returned words are bit-identical to
  /// `run_waves_packed` on the prepared network. A non-null `scenario`
  /// prepares the program by the full scenario pipeline (fan-out
  /// restriction, loss-budget repeaters, then balancing) and caches it under
  /// the scenario's fingerprint, so one session serves several scenarios of
  /// the same netlist as distinct programs.
  packed_wave_result run(const mig_network& net, const wave_batch& waves, unsigned phases,
                         const tech_scenario* scenario = nullptr);

  /// The cache lookup half of `run`: returns the prepared + lowered
  /// program for `net`, compiling on a miss and touching the LRU order on a
  /// hit. The returned reference keeps the program alive independently of
  /// any later eviction.
  ///
  /// `scenario` null balances only. Otherwise, on a miss the network is
  /// prepared by the full scenario pipeline (wave_pipeline with this
  /// session's strategy/schedule and the scenario's fan-out limit and loss
  /// budget) and lowered with the scenario's FDM lane count. The cache key
  /// gains the scenario fingerprint, so the same netlist compiled under two
  /// scenarios — or with and without one — occupies distinct entries
  /// serving distinct programs.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> compile(
      const mig_network& net, unsigned phases, const tech_scenario* scenario = nullptr);

  /// The one cache-keyed compile the overload above forwards to, and the
  /// fast path for callers that already fingerprinted the network (the
  /// serving dispatcher memoizes fingerprints per shared network): a hot
  /// cache hit is then one hash-map lookup plus an LRU splice, with no
  /// O(network) re-hash. `fingerprint` must equal
  /// `network_fingerprint(net)`; passing anything else silently serves the
  /// wrong program.
  ///
  /// `scenario` as in the overload above.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> compile(const mig_network& net,
                                                                unsigned phases,
                                                                std::uint64_t fingerprint,
                                                                const tech_scenario* scenario);

  [[nodiscard]] session_stats stats() const;

private:
  struct cache_key {
    std::uint64_t fingerprint;
    buffer_strategy strategy;
    unsigned phases;
    /// tech_scenario::fingerprint() of the request's scenario; 0 = untagged
    /// (the scenario-less compile path — tech_scenario fingerprints are
    /// never 0). It mixes in the scenario's FDM lane count, so programs
    /// with different clock metadata never share an entry.
    std::uint64_t scenario{0};
    friend bool operator==(const cache_key&, const cache_key&) = default;
  };
  struct cache_key_hash {
    std::size_t operator()(const cache_key& k) const noexcept;
  };
  struct cache_entry {
    std::shared_ptr<const compiled_netlist> program;
    std::size_t bytes{0};
    std::list<cache_key>::iterator lru_pos;
  };

  /// Pops LRU entries until both bounds hold again. Caller holds mutex_.
  void evict_to_limits();
  /// Cache-hit half of compile: touches the LRU order and returns the
  /// program, or null on a miss. Takes mutex_.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> lookup(const cache_key& key);
  /// Miss half: inserts `fresh` (first insert wins on a racing miss),
  /// evicts to limits, and returns the surviving program. Takes mutex_.
  [[nodiscard]] std::shared_ptr<const compiled_netlist> insert(
      const cache_key& key, std::shared_ptr<const compiled_netlist> fresh);

  parallel_executor& executor_;
  buffer_insertion_options options_;
  cache_limits limits_;
  mutable std::mutex mutex_;
  std::list<cache_key> lru_;  // front = most recently used
  std::unordered_map<cache_key, cache_entry, cache_key_hash> cache_;
  std::size_t bytes_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
  std::uint64_t evictions_{0};
};

}  // namespace wavemig::engine
