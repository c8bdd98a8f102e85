#include "wavemig/engine/parallel_executor.hpp"

#include <algorithm>
#include <exception>

#include "block_splice.hpp"
#include "wavemig/fault/fault_injection.hpp"
#include "wavemig/pipeline.hpp"

namespace wavemig::engine {

namespace detail {

/// Shared state of one submitted group: the task body, the countdown, and
/// the completion machinery. Deque items and `task_group` tokens hold it
/// through a shared_ptr, so the state outlives whichever of them finishes
/// last.
struct group_state {
  std::function<void(std::size_t, unsigned)> fn;
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> cancelled{false};
  mutable std::mutex mutex;
  std::condition_variable cv;
  bool done{false};
  std::exception_ptr error;
  group_callback on_complete;
};

}  // namespace detail

// --------------------------------------------------------- task_group ---

bool task_group::done() const {
  if (!state_) {
    return true;
  }
  std::lock_guard<std::mutex> lock{state_->mutex};
  return state_->done;
}

void task_group::wait() const {
  if (!state_) {
    return;
  }
  std::unique_lock<std::mutex> lock{state_->mutex};
  state_->cv.wait(lock, [this] { return state_->done; });
}

std::exception_ptr task_group::error() const {
  if (!state_) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock{state_->mutex};
  return state_->error;
}

// ------------------------------------------------------------ executor ---

parallel_executor::parallel_executor(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  scratch_.resize(num_threads);
  deques_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    deques_.push_back(std::make_unique<work_deque>());
  }
  workers_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

parallel_executor::~parallel_executor() {
  {
    std::lock_guard<std::mutex> lock{sleep_mutex_};
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void parallel_executor::worker_loop(unsigned worker) {
  task_item item;
  while (next_item(worker, item)) {
    run_item(item, worker);
    item = task_item{};  // release the group before going back to sleep
  }
}

bool parallel_executor::next_item(unsigned worker, task_item& item) {
  auto& own = *deques_[worker];
  const std::size_t num_workers = deques_.size();
  for (;;) {
    // Own deque first, from the front: a group's pre-partitioned range runs
    // in ascending chunk order (prefetch-friendly).
    {
      std::lock_guard<std::mutex> lock{own.mutex};
      if (!own.items.empty()) {
        item = std::move(own.items.front());
        own.items.pop_front();
        pending_.fetch_sub(1);
        return true;
      }
    }
    // Empty: steal a whole item (one plane-block of a group) from the back
    // of a victim — the work farthest from where the victim is currently
    // progressing.
    // executor.steal.delay (delay action, sleeps inside hit()): widens the
    // own-empty → steal race window so chaos runs exercise interleavings a
    // quiet machine rarely produces.
    (void)WAVEMIG_FAULT_HIT("executor.steal.delay");
    for (std::size_t i = 1; i < num_workers; ++i) {
      auto& victim = *deques_[(worker + i) % num_workers];
      std::lock_guard<std::mutex> lock{victim.mutex};
      if (!victim.items.empty()) {
        item = std::move(victim.items.back());
        victim.items.pop_back();
        pending_.fetch_sub(1);
        return true;
      }
    }
    // Nothing anywhere: park. `pending_` is incremented before an item
    // becomes visible in a deque, so a positive count here means a push is
    // in progress — loop and rescan instead of sleeping past it.
    std::unique_lock<std::mutex> lock{sleep_mutex_};
    if (pending_.load() > 0) {
      continue;
    }
    if (stop_) {
      return false;  // stop requested and every deque drained
    }
    sleepers_.fetch_add(1);
    sleep_cv_.wait(lock, [this] { return stop_ || pending_.load() > 0; });
    sleepers_.fetch_sub(1);
  }
}

void parallel_executor::run_item(task_item& item, unsigned worker) {
  // executor.worker.stall (delay/stall action, sleeps inside hit()): one
  // worker goes dark mid-pass; stealing must keep the rest of the group
  // progressing and the result bit-identical.
  (void)WAVEMIG_FAULT_HIT("executor.worker.stall");
  detail::group_state& group = *item.group;
  if (!group.cancelled.load(std::memory_order_relaxed)) {
    try {
      group.fn(item.index, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock{group.mutex};
      if (!group.error) {
        group.error = std::current_exception();
      }
      group.cancelled.store(true, std::memory_order_relaxed);
    }
  }
  if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: publish completion, then fire the callback outside the
    // lock (it may submit follow-up work against this executor).
    group_callback on_complete;
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock{group.mutex};
      group.done = true;
      error = group.error;
      on_complete = std::move(group.on_complete);
    }
    group.cv.notify_all();
    if (on_complete) {
      try {
        on_complete(error);
      } catch (...) {
        // A throwing completion must not take down the worker.
      }
    }
  }
}

void parallel_executor::notify_new_work(std::size_t count) {
  if (sleepers_.load() == 0) {
    return;  // every worker is already awake and will rescan
  }
  // The (empty) critical section orders this notify after any worker that
  // last saw pending_ == 0: such a worker is either fully parked (the
  // notify reaches it) or re-evaluates the predicate under the mutex and
  // sees the new count.
  { std::lock_guard<std::mutex> lock{sleep_mutex_}; }
  if (count > 1) {
    sleep_cv_.notify_all();
  } else {
    sleep_cv_.notify_one();
  }
}

task_group parallel_executor::submit_group(std::size_t num_tasks,
                                           std::function<void(std::size_t, unsigned)> fn,
                                           group_callback on_complete) {
  auto state = std::make_shared<detail::group_state>();
  state->fn = std::move(fn);
  if (num_tasks == 0) {
    state->done = true;
    if (on_complete) {
      try {
        on_complete(nullptr);
      } catch (...) {
      }
    }
    return task_group{std::move(state)};
  }
  state->on_complete = std::move(on_complete);
  state->remaining.store(num_tasks, std::memory_order_relaxed);

  // Contiguous pre-partition: worker (start + w) % W owns the w-th range of
  // the index space, so each worker walks an ascending contiguous run of
  // plane-blocks and stealing only rebalances the edges. `start` rotates
  // per group so concurrent small groups spread across different workers.
  const std::size_t num_workers = deques_.size();
  const unsigned start = rr_next_.fetch_add(1, std::memory_order_relaxed) %
                         static_cast<unsigned>(num_workers);
  pending_.fetch_add(num_tasks);  // before visibility: claims never underflow
  for (std::size_t w = 0; w < num_workers; ++w) {
    const std::size_t first = num_tasks * w / num_workers;
    const std::size_t last = num_tasks * (w + 1) / num_workers;
    if (first == last) {
      continue;
    }
    auto& deque = *deques_[(start + w) % num_workers];
    std::lock_guard<std::mutex> lock{deque.mutex};
    for (std::size_t t = first; t < last; ++t) {
      task_item item;
      item.group = state;
      item.index = t;
      deque.items.push_back(std::move(item));
    }
  }
  notify_new_work(num_tasks);
  return task_group{std::move(state)};
}

void parallel_executor::for_each(std::size_t num_tasks,
                                 const std::function<void(std::size_t, unsigned)>& fn) {
  if (num_tasks == 0) {
    return;
  }
  // `fn` is captured by reference: this call blocks until the group
  // completed, so the reference outlives the tasks.
  const task_group group = submit_group(
      num_tasks, [&fn](std::size_t task, unsigned worker) { fn(task, worker); }, {});
  group.wait();
  if (auto error = group.error()) {
    std::rethrow_exception(error);
  }
}

// ------------------------------------------------------- parallel run ---

packed_wave_result run_waves_parallel(const compiled_netlist& net, const wave_batch& waves,
                                      unsigned phases, parallel_executor& executor) {
  validate_packed_run(net, waves.num_pis(), phases, "run_waves_parallel");

  packed_wave_result result;
  result.num_pos = net.num_pos();
  result.num_waves = waves.num_waves();
  fill_packed_clock_metrics(result, net, phases, waves.num_waves());
  result.words.resize(waves.num_chunks() * net.num_pos());

  // One task per multi-chunk block (not per chunk), partitioned by the
  // shared shard_block_chunks policy: the multi-word kernel runs at full
  // width inside every task and dispatch overhead amortizes over the block.
  // Sharding slices the batch's plane view — same planes, offset base, no
  // copy — and every block writes a disjoint chunk range of each result
  // plane, so the assembly is deterministic by construction and the result
  // words are identical at every block size.
  const std::size_t num_chunks = waves.num_chunks();
  const std::size_t block =
      compiled_netlist::shard_block_chunks(num_chunks, executor.num_threads());
  const std::size_t num_blocks = (num_chunks + block - 1) / block;
  const wave_block_view pis = waves.view();
  const wave_block_mut_view pos{result.words.data(), num_chunks, net.num_pos(), num_chunks};
  executor.for_each(num_blocks, [&](std::size_t b, unsigned worker) {
    const std::size_t first = b * block;
    const std::size_t count = std::min(block, num_chunks - first);
    eval_packed_planes(net, pis.slice(first, count), pos.slice(first, count),
                       executor.scratch(worker));
  });
  detail::mask_result_tail(result);
  return result;
}

// ------------------------------------------------------------ session ---

std::uint64_t network_fingerprint(const mig_network& net) {
  constexpr std::uint64_t offset = 1469598103934665603ull;
  constexpr std::uint64_t prime = 1099511628211ull;
  std::uint64_t h = offset;
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xffu)) * prime;
    }
  };
  mix(net.num_pis());
  net.foreach_node([&](node_index n) {
    // A buffer run's length rides in the kind word, above the kind byte: a
    // length-1 buffer hashes as it always has, and two networks that differ
    // only in a run length differ here.
    const std::uint64_t length = net.length(n);
    mix(static_cast<std::uint64_t>(net.kind(n)) | (length - 1) << 8);
    if (net.is_pi(n)) {
      mix(net.pi_position(n));
    }
    for (const signal f : net.fanins(n)) {
      mix((static_cast<std::uint64_t>(f.index()) << 1) |
          static_cast<std::uint64_t>(f.is_complemented()));
    }
  });
  for (const auto& po : net.pos()) {
    mix((static_cast<std::uint64_t>(po.driver.index()) << 1) |
        static_cast<std::uint64_t>(po.driver.is_complemented()));
  }
  return h;
}

std::size_t batch_session::cache_key_hash::operator()(const cache_key& k) const noexcept {
  std::uint64_t h = k.fingerprint;
  h ^= (static_cast<std::uint64_t>(k.strategy) + 1) * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<std::uint64_t>(k.phases) + 1) * 0xbf58476d1ce4e5b9ull;
  h ^= (k.scenario + 1) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

batch_session::batch_session(parallel_executor& executor, buffer_insertion_options options,
                             cache_limits limits)
    : executor_{executor}, options_{options}, limits_{limits} {}

void batch_session::evict_to_limits() {
  while (!lru_.empty() &&
         ((limits_.max_entries != 0 && cache_.size() > limits_.max_entries) ||
          (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes))) {
    const auto it = cache_.find(lru_.back());
    bytes_ -= it->second.bytes;
    cache_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const compiled_netlist> batch_session::compile(
    const mig_network& net, unsigned phases, const tech_scenario* scenario) {
  return compile(net, phases, network_fingerprint(net), scenario);
}

std::shared_ptr<const compiled_netlist> batch_session::lookup(const cache_key& key) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.program;
  }
  return nullptr;
}

std::shared_ptr<const compiled_netlist> batch_session::insert(
    const cache_key& key, std::shared_ptr<const compiled_netlist> fresh) {
  std::lock_guard<std::mutex> lock{mutex_};
  ++misses_;
  const auto [it, inserted] = cache_.try_emplace(key);
  if (inserted) {
    it->second.program = std::move(fresh);
    it->second.bytes = it->second.program->memory_bytes();
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    bytes_ += it->second.bytes;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  // Hold our own reference before eviction: when this entry alone exceeds
  // max_bytes it is evicted immediately, yet the caller's run proceeds.
  auto program = it->second.program;
  evict_to_limits();
  return program;
}

std::shared_ptr<const compiled_netlist> batch_session::compile(const mig_network& net,
                                                               unsigned phases,
                                                               std::uint64_t fingerprint,
                                                               const tech_scenario* scenario) {
  const cache_key key{fingerprint, options_.strategy, phases,
                      scenario != nullptr ? scenario->fingerprint() : 0};
  if (auto program = lookup(key)) {
    return program;
  }

  // Prepare + lower outside the lock; a concurrent miss on the same key
  // compiles the identical program and the first insert wins.
  if (scenario == nullptr) {
    const auto balanced = insert_buffers(net, options_);
    return insert(key,
                  std::make_shared<const compiled_netlist>(balanced.net, balanced.schedule));
  }
  // Scenario preparation runs the full pipeline — fan-out restriction at
  // the scenario's capability, loss-budget repeaters, then balancing with
  // this session's strategy/schedule — and the lowered program carries the
  // scenario's FDM lane count.
  pipeline_options prep;
  prep.scenario = *scenario;
  prep.strategy = options_.strategy;
  prep.schedule = options_.schedule;
  auto prepared = wave_pipeline(net, prep);
  return insert(key,
                std::make_shared<const compiled_netlist>(prepared.net, scenario->fdm_lanes));
}

packed_wave_result batch_session::run(const mig_network& net, const wave_batch& waves,
                                      unsigned phases, const tech_scenario* scenario) {
  const auto compiled = compile(net, phases, scenario);
  return run_waves_parallel(*compiled, waves, phases, executor_);
}

session_stats batch_session::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  session_stats s{hits_, misses_, evictions_, cache_.size(), bytes_, 0, 0};
  for (const auto& [key, entry] : cache_) {
    s.comb_ops += entry.program->num_comb_ops();
    s.comb_slots += entry.program->comb_slot_count();
  }
  return s;
}

}  // namespace wavemig::engine
