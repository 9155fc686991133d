// Traced-phase machinery: the pause gate, the benchmark's own span log and
// the aggregation of the server's trace spans into per-layer self times.

#include <fstream>
#include <unordered_map>

#include "bench.h"

namespace aimsbench {

// ---- PauseGate ------------------------------------------------------------

double PauseGate::Checkpoint() {
  if (!pause_.load(std::memory_order_acquire)) return 0.0;
  const Clock::time_point start = Clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  ++parked_;
  cv_.notify_all();
  cv_.wait(lock, [&] { return !pause_.load(std::memory_order_acquire); });
  --parked_;
  return MsBetween(start, Clock::now());
}

void PauseGate::Leave() {
  std::lock_guard<std::mutex> lock(mutex_);
  --active_;
  cv_.notify_all();
}

void PauseGate::Drain(const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mutex_);
  pause_.store(true, std::memory_order_release);
  cv_.wait(lock, [&] { return parked_ >= active_; });
  fn();
  pause_.store(false, std::memory_order_release);
  cv_.notify_all();
}

// ---- SpanLog --------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()), per_thread_(kMaxThreads) {}

void SpanLog::Add(uint32_t thread, const char* name, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_ || thread >= per_thread_.size()) return;
  per_thread_[thread].push_back(
      Span{name, thread,
           std::chrono::duration<double, std::micro>(start - epoch_).count(),
           std::chrono::duration<double, std::micro>(end - epoch_).count()});
}

size_t SpanLog::WriteJsonLines(const std::string& path, size_t limit) const {
  std::ofstream out(path, std::ios::trunc);
  size_t written = 0;
  for (const auto& spans : per_thread_) {
    for (const Span& span : spans) {
      if (written >= limit) return written;
      out << "{\"name\":\"" << span.name << "\",\"thread\":" << span.thread
          << ",\"start_us\":" << span.start_us << ",\"end_us\":" << span.end_us
          << "}\n";
      ++written;
    }
  }
  return written;
}

// ---- TraceAggregate -------------------------------------------------------

void TraceAggregate::Add(const aims::obs::Trace& trace) {
  const std::vector<aims::obs::TraceSpan>& spans = trace.spans();
  if (spans.empty()) return;
  // Span ids are 1-based positions, so a parent id indexes its span.
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::string root;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id == 0) {
      if (root.empty()) root = spans[i].name;
    } else {
      children[spans[i].parent_id].push_back(i);
    }
  }
  if (root.empty()) return;
  ++roots_[root];
  for (const aims::obs::TraceSpan& span : spans) {
    const double duration = std::max(0.0, span.end_ms - span.start_ms);
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const double lo = std::max(span.start_ms, spans[c].start_ms);
        const double hi = std::min(span.end_ms, spans[c].end_ms);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    double reach = -1e300;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) covered_ms += hi - from;
      reach = std::max(reach, hi);
    }
    const std::string key = root + "/" + span.name;
    Stat& stat = stats_[key];
    stat.total_ms += duration;
    stat.self_total_ms += std::max(0.0, duration - covered_ms);
    ++stat.count;
    if (keep_.count(key) > 0) stat.samples_ms.push_back(duration);
  }
}

void TraceAggregate::DrainFrom(aims::obs::Tracer& tracer) {
  dropped_ += tracer.dropped();
  for (const aims::obs::Trace& trace : tracer.Snapshot()) Add(trace);
  tracer.Clear();
}

const TraceAggregate::Stat& TraceAggregate::Get(const std::string& key) const {
  static const Stat kEmpty;
  auto it = stats_.find(key);
  return it == stats_.end() ? kEmpty : it->second;
}

size_t TraceAggregate::roots(const std::string& root) const {
  auto it = roots_.find(root);
  return it == roots_.end() ? 0 : it->second;
}

double TraceAggregate::PerRootMs(const std::string& key,
                                 const std::string& root) const {
  const size_t n = roots(root);
  return n == 0 ? 0.0 : Get(key).total_ms / static_cast<double>(n);
}

double TraceAggregate::SelfPerRootMs(const std::string& key,
                                     const std::string& root) const {
  const size_t n = roots(root);
  return n == 0 ? 0.0 : Get(key).self_total_ms / static_cast<double>(n);
}

}  // namespace aimsbench
