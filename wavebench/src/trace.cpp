#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace wavebench::trace {

namespace {

thread_local std::uint64_t current_span = 0;
thread_local std::uint64_t current_request = 0;

}  // namespace

recorder& recorder::global() {
  static recorder instance;
  return instance;
}

void recorder::record(const span& s) {
  std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(s);
}

std::vector<span> recorder::take() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<span> out;
  out.swap(spans_);
  return out;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

scope::scope(const char* name) {
  recorder& r = recorder::global();
  if (!r.enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = r.next_id();
  span_.parent = current_span;
  span_.request = current_request;
  current_span = span_.id;
  span_.start_ns = now_ns();
}

scope::~scope() {
  if (!active_) {
    return;
  }
  span_.end_ns = now_ns();
  current_span = span_.parent;
  recorder::global().record(span_);
}

request_scope::request_scope(std::uint64_t request) : previous_{current_request} {
  current_request = request;
}

request_scope::~request_scope() { current_request = previous_; }

std::string layer_of(const char* name) {
  const std::string s{name};
  const auto slash = s.find('/');
  return slash == std::string::npos ? s : s.substr(0, slash);
}

std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (const auto it = index_of.find(spans[i].parent); spans[i].parent != 0 &&
                                                        it != index_of.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) {
        cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, name_totals> totals_by_name(const std::vector<span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, name_totals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    ++t.calls;
  }
  return out;
}

double self_seconds(const std::vector<span>& spans) {
  std::int64_t ns = 0;
  for (const auto t : self_times_ns(spans)) {
    ns += t;
  }
  return static_cast<double>(ns) / 1e9;
}

std::map<std::string, std::int64_t> self_ns_by_layer(const std::vector<span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += self[i];
  }
  return out;
}

bool write_jsonl(const std::vector<span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const auto& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace wavebench::trace
