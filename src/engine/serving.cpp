#include "wavemig/engine/serving.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "block_splice.hpp"
#include "wavemig/fault/fault_injection.hpp"

namespace wavemig::engine {

serving_session::serving_session(parallel_executor& executor,
                                 buffer_insertion_options options, cache_limits limits,
                                 unsigned dispatchers)
    : executor_{executor},
      session_{executor, options, limits},
      max_inflight_units_{std::max<std::size_t>(4, 4 * executor.num_threads())} {
  if (dispatchers == 0) {
    dispatchers = 2;
  }
  dispatchers_.reserve(dispatchers);
  for (unsigned d = 0; d < dispatchers; ++d) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

serving_session::~serving_session() { close(); }

// -------------------------------------------------------- submissions ---

void serving_session::enqueue(request req) {
  req.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock{mutex_};
    if (closed_) {
      throw session_closed_error{};
    }
    // Admission control: reject (don't queue) once the backlog sits at the
    // bound — the caller learns now instead of missing a deadline later.
    const std::size_t backlog = queue_.size() + active_;
    if (admission_limit_ != 0 && backlog >= admission_limit_) {
      ++metrics_.requests_rejected;
      throw admission_rejected_error{backlog, admission_limit_};
    }
    // Load shedding: while the session looks overloaded (queue depth or
    // recent queue-wait p99 over its threshold), requests at or below the
    // policy's priority floor are rejected before consuming a slot, so the
    // traffic that can still meet its deadlines keeps flowing. The wait p99
    // counts only while a backlog exists (a request arriving at an empty
    // queue is picked up at once), and process_gulp forgets the waits
    // behind it whenever the dispatcher leaves the queue empty.
    const bool overloaded =
        (shed_policy_.queue_depth != 0 && queue_.size() >= shed_policy_.queue_depth) ||
        (shed_policy_.queue_wait_p99_ms > 0.0 && !queue_.empty() &&
         cached_wait_p99_ms_ > shed_policy_.queue_wait_p99_ms);
    if (overloaded && req.opts.priority >= shed_policy_.min_priority) {
      ++metrics_.requests_rejected;
      ++metrics_.requests_shed;
      throw admission_rejected_error{
          "serving_session: shed under overload (queue " +
          std::to_string(queue_.size()) + " deep, recent wait p99 " +
          std::to_string(cached_wait_p99_ms_) + " ms, priority " +
          std::to_string(req.opts.priority) + " >= shed floor " +
          std::to_string(shed_policy_.min_priority) + ")"};
    }
    ++metrics_.requests_accepted;
    queue_.push_back(std::move(req));
  }
  queue_ready_.notify_one();
}

namespace {

/// The future forms' one adapter: returns a completion callback that
/// settles a fresh promise, whose future lands in `future`.
serving_callback settle_promise(std::future<packed_wave_result>& future) {
  auto promise = std::make_shared<std::promise<packed_wave_result>>();
  future = promise->get_future();
  return [promise](packed_wave_result result, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(result));
    }
  };
}

}  // namespace

void serving_session::submit(std::shared_ptr<const mig_network> net, wave_batch waves,
                             unsigned phases, serving_callback on_complete,
                             submit_options opts) {
  request req;
  req.net = std::move(net);
  req.waves = std::move(waves);
  req.phases = phases;
  req.opts = std::move(opts);
  req.done = std::move(on_complete);
  enqueue(std::move(req));
}

std::future<packed_wave_result> serving_session::submit(
    std::shared_ptr<const mig_network> net, wave_batch waves, unsigned phases,
    submit_options opts) {
  std::future<packed_wave_result> future;
  submit(std::move(net), std::move(waves), phases, settle_promise(future), std::move(opts));
  return future;
}

void serving_session::submit_packed(std::shared_ptr<const mig_network> net,
                                    std::vector<std::uint64_t> plane_words,
                                    std::size_t num_waves, unsigned phases,
                                    serving_callback on_complete, submit_options opts) {
  request req;
  req.net = std::move(net);
  req.plane_words = std::move(plane_words);
  req.packed_waves = num_waves;
  req.packed = true;
  req.phases = phases;
  req.opts = std::move(opts);
  req.done = std::move(on_complete);
  enqueue(std::move(req));
}

std::future<packed_wave_result> serving_session::submit_packed(
    std::shared_ptr<const mig_network> net, std::vector<std::uint64_t> plane_words,
    std::size_t num_waves, unsigned phases, submit_options opts) {
  std::future<packed_wave_result> future;
  submit_packed(std::move(net), std::move(plane_words), num_waves, phases,
                settle_promise(future), std::move(opts));
  return future;
}

// ----------------------------------------------------------- dispatch ---

std::uint64_t serving_session::fingerprint_of(
    const std::shared_ptr<const mig_network>& net) {
  const mig_network* key = net.get();
  {
    std::lock_guard<std::mutex> lock{fp_mutex_};
    if (const auto it = fp_memo_.find(key); it != fp_memo_.end()) {
      // The weak_ptr must still refer to *this* object: a memo hit on a
      // reused allocation address (old network freed, new one placed there)
      // would otherwise serve the old network's fingerprint.
      if (const auto held = it->second.net.lock(); held.get() == key) {
        return it->second.fingerprint;
      }
      fp_memo_.erase(it);
    }
  }
  const std::uint64_t fp = network_fingerprint(*net);
  std::lock_guard<std::mutex> lock{fp_mutex_};
  if (fp_memo_.size() >= 256) {
    // Cheap bound: drop dead entries first, flush wholesale if the memo is
    // full of live one-shot networks.
    for (auto it = fp_memo_.begin(); it != fp_memo_.end();) {
      it = it->second.net.expired() ? fp_memo_.erase(it) : std::next(it);
    }
    if (fp_memo_.size() >= 256) {
      fp_memo_.clear();
    }
  }
  fp_memo_[key] = {net, fp};
  return fp;
}

void serving_session::dispatcher_loop() {
  for (;;) {
    // serving.dispatcher.stall (delay action, sleeps inside hit()): one
    // dispatcher stops draining for a while, as if wedged on a slow
    // compile — the backlog this builds is what load shedding reacts to.
    (void)WAVEMIG_FAULT_HIT("serving.dispatcher.stall");
    std::vector<request> gulp;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      queue_ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // closed and fully drained
      }
      gulp = take_gulp_locked();
      // The gulp's requests count as active until their units retire them,
      // so drain()'s predicate never observes a false idle.
      active_ += gulp.size();
      ++metrics_.gulps;
      metrics_.max_gulp = std::max<std::uint64_t>(metrics_.max_gulp, gulp.size());
    }
    process_gulp(std::move(gulp));
  }
}

std::vector<serving_session::request> serving_session::take_gulp_locked() {
  const std::size_t take = std::min(queue_.size(), max_gulp_requests);
  std::vector<request> gulp;
  gulp.reserve(take);

  // Fast path — the overwhelmingly common queue shape (one priority class,
  // at most one client id) is plain FIFO: no selection pass, no rebuild.
  bool uniform = true;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (queue_[i].opts.priority != queue_.front().opts.priority ||
        queue_[i].opts.client_id != queue_.front().opts.client_id) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    for (std::size_t i = 0; i < take; ++i) {
      gulp.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return gulp;
  }

  // Policy path: order the whole queue by ascending priority byte (stable,
  // so FIFO survives inside equal keys), then round-robin across client
  // ids inside each priority class — every sweep takes at most one request
  // per client, so a flooding client contributes once per turn while its
  // competitors' requests drain alongside.
  std::vector<std::size_t> order(queue_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return queue_[a].opts.priority < queue_[b].opts.priority;
  });

  std::vector<std::size_t> chosen;
  chosen.reserve(take);
  std::size_t at = 0;
  while (chosen.size() < take && at < order.size()) {
    std::size_t end = at;
    while (end < order.size() &&
           queue_[order[end]].opts.priority == queue_[order[at]].opts.priority) {
      ++end;
    }
    std::vector<char> taken(end - at, 0);
    std::size_t remaining = end - at;
    while (remaining > 0 && chosen.size() < take) {
      std::vector<std::uint64_t> clients_this_turn;
      for (std::size_t k = at; k < end && chosen.size() < take; ++k) {
        if (taken[k - at]) {
          continue;
        }
        const std::uint64_t client = queue_[order[k]].opts.client_id;
        if (std::find(clients_this_turn.begin(), clients_this_turn.end(), client) !=
            clients_this_turn.end()) {
          continue;  // this client already got its slot this turn
        }
        clients_this_turn.push_back(client);
        taken[k - at] = 1;
        --remaining;
        chosen.push_back(order[k]);
      }
    }
    at = end;
  }

  // Extract the chosen requests (in selection order), then rebuild the
  // queue from the unchosen remainder in original FIFO order.
  std::vector<char> selected(queue_.size(), 0);
  for (const std::size_t i : chosen) {
    selected[i] = 1;
  }
  for (const std::size_t i : chosen) {
    gulp.push_back(std::move(queue_[i]));
  }
  std::deque<request> rest;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (!selected[i]) {
      rest.push_back(std::move(queue_[i]));
    }
  }
  queue_ = std::move(rest);
  return gulp;
}

void serving_session::process_gulp(std::vector<request> gulp) {
  const auto now = std::chrono::steady_clock::now();
  {
    constexpr std::size_t recent_wait_window = 128;
    constexpr std::size_t p99_refresh_interval = 32;
    std::lock_guard<std::mutex> lock{mutex_};
    for (const request& req : gulp) {
      const double wait_ms =
          std::chrono::duration<double, std::milli>(now - req.enqueued).count();
      if (queue_wait_samples_.size() < max_queue_wait_samples) {
        queue_wait_samples_.push_back(wait_ms);
      }
      // The shed check's p99 source: a small ring of the latest waits,
      // re-sorted every few samples so submissions read a cached double
      // instead of sorting anything.
      if (recent_waits_.size() < recent_wait_window) {
        recent_waits_.push_back(wait_ms);
      } else {
        recent_waits_[recent_at_] = wait_ms;
        recent_at_ = (recent_at_ + 1) % recent_wait_window;
      }
      if (++samples_since_p99_ >= p99_refresh_interval) {
        samples_since_p99_ = 0;
        std::vector<double> sorted = recent_waits_;
        std::sort(sorted.begin(), sorted.end());
        cached_wait_p99_ms_ = sorted[std::min(sorted.size() - 1, sorted.size() * 99 / 100)];
      }
    }
    // Waits count only while the backlog that produced them lasts: once
    // the dispatcher leaves the queue empty, that overload is over, and the
    // next backlog is judged on its own waits, however slow this one was.
    if (queue_.empty()) {
      recent_waits_.clear();
      recent_at_ = 0;
      samples_since_p99_ = 0;
      cached_wait_p99_ms_ = 0.0;
    }
  }

  // Prepare each request in isolation: adopt packed words, fingerprint,
  // compile (one cache hit/miss per request — the session's hit/miss
  // counters stay per-request even when requests fuse), validate. A failure
  // here fails only this request; its gulp-mates proceed.
  struct prepared {
    request req;
    std::shared_ptr<const compiled_netlist> program;
    std::size_t chunks{0};
  };
  std::vector<prepared> ready;
  ready.reserve(gulp.size());
  for (request& req : gulp) {
    try {
      // A request whose deadline already passed fails without executing —
      // nobody can use its result, so the cycles go to requests that can
      // still make theirs.
      if (req.opts.deadline != std::chrono::steady_clock::time_point{} &&
          now >= req.opts.deadline) {
        throw deadline_expired_error{};
      }
      if (WAVEMIG_FAULT_HIT("serving.dispatcher.throw").fired) {
        // An unexpected dispatcher-side failure: must fail only this
        // request (internal_error on the wire), never its gulp-mates.
        throw std::runtime_error{"injected dispatcher fault (serving.dispatcher.throw)"};
      }
      if (req.packed) {
        // Zero-copy adoption of the caller's plane-major words. Shape
        // validation throws here — on the dispatcher — so a malformed
        // packed request surfaces through the future like any other
        // validation error. Packed requests declare their shape, so zero
        // waves is a malformed header, not a degenerate batch.
        if (req.packed_waves == 0) {
          throw invalid_request_error{"serving_session: packed request with zero waves"};
        }
        try {
          req.waves = wave_batch::from_plane_words(
              std::move(req.plane_words), req.net->num_pis(), req.packed_waves,
              req.opts.reject_stray_tail_bits ? wave_batch::tail_bits::reject
                                              : wave_batch::tail_bits::mask);
        } catch (const std::invalid_argument& shape) {
          throw invalid_request_error{shape.what()};
        }
      }
      // Scenario-tagged requests compile through the scenario cache path;
      // the distinct program pointer then keeps them from coalescing with
      // untagged (or differently-tagged) requests against the same network.
      auto program = session_.compile(*req.net, req.phases, fingerprint_of(req.net),
                                      req.opts.scenario.get());
      validate_packed_run(*program, req.waves.num_pis(), req.phases, "serving_session");
      const std::size_t chunks = req.waves.num_chunks();
      ready.push_back({std::move(req), std::move(program), chunks});
    } catch (const deadline_expired_error&) {
      {
        std::lock_guard<std::mutex> lock{mutex_};
        ++metrics_.requests_expired;
      }
      fail_request(req, std::current_exception());
    } catch (...) {
      fail_request(req, std::current_exception());
    }
  }

  // Group by executable program identity: one cache entry per (fingerprint,
  // strategy, phases), so same-key requests share one shared_ptr and the
  // pointer doubles as the coalescing key. Requests wider than
  // small_request_chunks amortize a pass on their own and run as
  // singletons; small same-key requests pack greedily (in submission order)
  // into fused blocks of at most max_fused_chunks.
  struct group {
    const compiled_netlist* program;
    unsigned phases;
    std::vector<std::size_t> members;  // indices into `ready`
  };
  std::vector<group> groups;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const compiled_netlist* program = ready[i].program.get();
    const unsigned phases = ready[i].req.phases;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const group& g) {
      return g.program == program && g.phases == phases;
    });
    if (it == groups.end()) {
      groups.push_back({program, phases, {}});
      it = std::prev(groups.end());
    }
    it->members.push_back(i);
  }

  for (const group& g : groups) {
    std::vector<std::size_t> fusible;
    for (const std::size_t i : g.members) {
      if (ready[i].chunks > small_request_chunks) {
        auto unit = std::make_shared<exec_unit>();
        unit->program = ready[i].program;
        unit->phases = g.phases;
        unit->total_chunks = ready[i].chunks;
        unit->member_waves.push_back(ready[i].req.waves.num_waves());
        unit->batch = std::move(ready[i].req.waves);
        ready[i].req.waves = wave_batch{0};
        unit->members.push_back(std::move(ready[i].req));
        launch_unit(std::move(unit));
      } else {
        fusible.push_back(i);
      }
    }
    // Greedy packing in submission order; a leftover of one degenerates to
    // a singleton pass on its own batch (zero-copy, no fused buffer).
    std::size_t at = 0;
    while (at < fusible.size()) {
      std::size_t end = at;
      std::size_t total = 0;
      while (end < fusible.size() && (end == at || total + ready[fusible[end]].chunks <=
                                                       max_fused_chunks)) {
        total += ready[fusible[end]].chunks;
        ++end;
      }
      auto unit = std::make_shared<exec_unit>();
      unit->program = ready[fusible[at]].program;
      unit->phases = g.phases;
      unit->total_chunks = total;
      if (end - at == 1) {
        prepared& p = ready[fusible[at]];
        unit->member_waves.push_back(p.req.waves.num_waves());
        unit->batch = std::move(p.req.waves);
        p.req.waves = wave_batch{0};
        unit->members.push_back(std::move(p.req));
      } else {
        // Fused block: each member's planes land at its chunk offset of a
        // shared plane-major buffer with stride == total. Members uphold
        // the tail-zero invariant, so the fused planes do too; the unused
        // lanes of a member's last chunk evaluate to garbage that the
        // per-member slice-back masks off — chunk purity keeps every
        // member's own chunks bit-identical to a standalone run.
        unit->fused = true;
        const std::size_t num_pis = unit->program->num_pis();
        unit->in_words.assign(total * num_pis, 0);
        unit->members.reserve(end - at);
        std::size_t offset = 0;
        for (std::size_t k = at; k < end; ++k) {
          prepared& p = ready[fusible[k]];
          for (std::size_t i = 0; i < num_pis; ++i) {
            std::memcpy(unit->in_words.data() + i * total + offset, p.req.waves.plane(i),
                        p.chunks * sizeof(std::uint64_t));
          }
          unit->member_offsets.push_back(offset);
          unit->member_waves.push_back(p.req.waves.num_waves());
          offset += p.chunks;
          p.req.waves = wave_batch{0};  // input copied; free it before launch
          unit->members.push_back(std::move(p.req));
        }
      }
      launch_unit(std::move(unit));
      at = end;
    }
  }
}

void serving_session::fail_request(request& req, std::exception_ptr error) {
  // A callback that throws (including a follow-up submit racing close())
  // must not take down the dispatcher — and with it the process.
  try {
    if (req.done) {
      req.done(packed_wave_result{}, error);
    }
  } catch (...) {
  }
  req = request{};  // release the network/batch before reporting idle
  std::lock_guard<std::mutex> lock{mutex_};
  ++metrics_.requests_failed;
  if (--active_ == 0 && queue_.empty()) {
    idle_.notify_all();
  }
}

void serving_session::launch_unit(std::shared_ptr<exec_unit> unit) {
  {
    // Bound the passes in flight: their result (and fused input) buffers
    // are the dispatcher's only unbounded memory under a flood. Workers
    // retire passes independently of the dispatchers, so this always
    // clears.
    std::unique_lock<std::mutex> lock{mutex_};
    unit_retired_.wait(lock, [this] { return inflight_units_ < max_inflight_units_; });
    ++inflight_units_;
    if (unit->fused) {
      ++metrics_.fused_passes;
      metrics_.coalesced_requests += unit->members.size();
    } else {
      ++metrics_.singleton_passes;
    }
  }

  const std::size_t num_pos = unit->program->num_pos();
  unit->out_words.resize(unit->total_chunks * num_pos);
  const std::size_t block =
      compiled_netlist::shard_block_chunks(unit->total_chunks, executor_.num_threads());
  const std::size_t num_blocks = unit->total_chunks == 0 ? 0 : (unit->total_chunks + block - 1) / block;

  // Completion-token execution: the dispatcher returns to its queue as soon
  // as the pass is enqueued; the worker finishing the last plane-block
  // slices results back and fires the callbacks. An empty pass (zero-wave
  // request) completes inline right here.
  std::shared_ptr<exec_unit> task_ref = unit;
  executor_.submit_group(
      num_blocks,
      [this, unit, block](std::size_t b, unsigned worker) {
        const std::size_t first = b * block;
        const std::size_t count = std::min(block, unit->total_chunks - first);
        const wave_block_view pis =
            unit->fused ? wave_block_view{unit->in_words.data(), unit->total_chunks,
                                          unit->program->num_pis(), unit->total_chunks}
                        : unit->batch.view();
        const wave_block_mut_view pos{unit->out_words.data(), unit->total_chunks,
                                      unit->program->num_pos(), unit->total_chunks};
        eval_packed_planes(*unit->program, pis.slice(first, count), pos.slice(first, count),
                           executor_.scratch(worker));
      },
      [this, task_ref](std::exception_ptr error) { finish_unit(task_ref, error); });
}

void serving_session::finish_unit(const std::shared_ptr<exec_unit>& unit,
                                  std::exception_ptr error) {
  const std::size_t num_pos = unit->program->num_pos();
  for (std::size_t m = 0; m < unit->members.size(); ++m) {
    request& req = unit->members[m];
    packed_wave_result result;
    if (!error) {
      result.num_pos = num_pos;
      result.num_waves = unit->member_waves[m];
      fill_packed_clock_metrics(result, *unit->program, unit->phases, result.num_waves);
      const std::size_t chunks = result.num_chunks();
      if (!unit->fused) {
        result.words = std::move(unit->out_words);
      } else {
        result.words.resize(chunks * num_pos);
        const std::size_t offset = unit->member_offsets[m];
        for (std::size_t p = 0; p < num_pos; ++p) {
          std::memcpy(result.words.data() + p * chunks,
                      unit->out_words.data() + p * unit->total_chunks + offset,
                      chunks * sizeof(std::uint64_t));
        }
      }
      detail::mask_result_tail(result);
    }
    // Callbacks fire before the members retire from active_, so a drain()
    // racing a callback's follow-up submit never observes a false idle.
    // serving.callback.drop: the completion callback is silently lost —
    // the failure mode the server's watchdog exists to recover from.
    const bool drop = WAVEMIG_FAULT_HIT("serving.callback.drop").fired;
    try {
      if (req.done && !drop) {
        req.done(std::move(result), error);
      }
    } catch (...) {
    }
    req = request{};
  }

  const std::size_t retired = unit->members.size();
  const bool failed = error != nullptr;
  // Final accounting, with every notify under the lock: once a waiter
  // (drain/close) observes active_ == 0 it may destroy the session, and it
  // can only observe that after this unlock completes — nothing here
  // touches `this` afterwards.
  std::lock_guard<std::mutex> lock{mutex_};
  if (failed) {
    metrics_.requests_failed += retired;
  } else {
    metrics_.requests_completed += retired;
  }
  --inflight_units_;
  unit_retired_.notify_one();
  active_ -= retired;
  if (active_ == 0 && queue_.empty()) {
    idle_.notify_all();
  }
}

// ------------------------------------------------------------ control ---

void serving_session::set_admission_limit(std::size_t max_pending) {
  std::lock_guard<std::mutex> lock{mutex_};
  admission_limit_ = max_pending;
}

std::size_t serving_session::admission_limit() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return admission_limit_;
}

void serving_session::set_shed_policy(shed_policy policy) {
  std::lock_guard<std::mutex> lock{mutex_};
  shed_policy_ = policy;
}

shed_policy serving_session::get_shed_policy() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return shed_policy_;
}

void serving_session::drain() {
  std::unique_lock<std::mutex> lock{mutex_};
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void serving_session::close() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    closed_ = true;
  }
  queue_ready_.notify_all();
  drain();
  // close_mutex_ serializes concurrent closers: the first joins, every
  // later one (including a destructor racing it) blocks here until the
  // join completed, so no caller ever returns while a dispatcher thread
  // can still touch the session. mutex_ is not held — the dispatchers
  // need it to finish their last iteration.
  std::lock_guard<std::mutex> close_lock{close_mutex_};
  for (auto& dispatcher : dispatchers_) {
    dispatcher.join();
  }
  dispatchers_.clear();
}

std::size_t serving_session::pending() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return queue_.size() + active_;
}

serving_metrics serving_session::metrics() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return metrics_;
}

std::vector<double> serving_session::take_queue_wait_samples() {
  std::lock_guard<std::mutex> lock{mutex_};
  return std::exchange(queue_wait_samples_, {});
}

}  // namespace wavemig::engine
