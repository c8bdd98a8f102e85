#pragma once

// Span tracing for the traced benchmark run. Spans are recorded by the
// benchmark around its own calls into the library's public functions (the
// library itself carries no instrumentation), kept in memory, and written
// out when the run ends. A span's name is "<layer>/<operation>"; the layer
// prefix is what the ledger aggregates self time by.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wavebench::trace {

struct span {
  const char* name{""};     ///< "<layer>/<operation>", a string literal
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 for a root span
  std::uint64_t request{0};  ///< shared by the spans of one request; 0 = none
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// Process-wide span store. Disabled by default: a disabled scope costs one
/// relaxed atomic load.
class recorder {
public:
  static recorder& global();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void record(const span& s);
  /// Moves every recorded span out, leaving the store empty.
  [[nodiscard]] std::vector<span> take();

private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;  // spans_
  std::vector<span> spans_;
};

[[nodiscard]] std::int64_t now_ns();

/// Records one span from construction to destruction; nested scopes on the
/// same thread become its children.
class scope {
public:
  explicit scope(const char* name);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

private:
  span span_;
  bool active_{false};
};

/// Tags every span opened on this thread while alive with `request`.
class request_scope {
public:
  explicit request_scope(std::uint64_t request);
  ~request_scope();
  request_scope(const request_scope&) = delete;
  request_scope& operator=(const request_scope&) = delete;

private:
  std::uint64_t previous_;
};

/// Layer of a span name: the part before the first '/'.
[[nodiscard]] std::string layer_of(const char* name);

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its direct children.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans);

/// Sum of the self times of `spans`, in seconds: the time the spans
/// account for, each instant once per thread.
[[nodiscard]] double self_seconds(const std::vector<span>& spans);

/// Per-name totals over a set of spans.
struct name_totals {
  std::int64_t self_ns{0};
  std::int64_t total_ns{0};
  std::uint64_t calls{0};
};
[[nodiscard]] std::map<std::string, name_totals> totals_by_name(const std::vector<span>& spans);
/// Self time summed per layer.
[[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_layer(
    const std::vector<span>& spans);

/// Writes one JSON object per span. Returns false when the file cannot be
/// written.
bool write_jsonl(const std::vector<span>& spans, const std::string& path);

}  // namespace wavebench::trace
