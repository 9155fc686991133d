#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "server/server.h"
#include "streams/sample.h"
#include "synth/cyberglove.h"

/// \file bench.h
/// \brief Shared pieces of the AIMS benchmark binary: options, the result
/// sink (one flushed line per metric, so an abort loses nothing already
/// measured), percentile helpers, failure accounting, the traced-phase
/// pause gate and the benchmark's own span log.

namespace aimsbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds of one run (split in halves on a traced run).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny input sizes (the benchmark's own smoke test).
  bool tiny = false;
  /// Scratch directory for stores and span logs.
  std::string work_dir = ".bench_work";
};

/// One timed operation: completion time since the phase began, and value.
struct TimedSample {
  double t_s = 0.0;
  double value = 0.0;
};

/// \brief Windowed summary of a timed series. The phase is cut into whole
/// windows of \p window_s (one window when the phase is shorter); each
/// window gives its p50, its p99 and its operations per second, and the
/// summary is the median of each over the windows, so a burst of outside
/// interference in one window does not move it.
struct WindowSummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double per_s = 0.0;
  size_t samples = 0;
};
WindowSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                               double total_s, double window_s);

/// Linear-interpolated quantile of \p values (sorted in place); 0 when
/// empty.
double Quantile(std::vector<double>* values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// \brief Line-oriented result sink on stdout. Every line is flushed as it
/// is written: a later failed check or crash cannot lose it.
///   M <name> <value> <unit> <samples>   one metric
///   E <key> <value>                     environment stamp
///   C <0|1> <what>                      correctness check (failures at
///                                       once, passes tallied at the end)
///   F <op> <kind> <count>               failures by op and kind
///   A <attempted> <failed>              operation totals
class Results {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 1);
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);
  /// Records a correctness check; a failed one makes the run exit non-zero.
  bool Check(bool ok, const std::string& what);
  void Note(const std::string& text);

  /// Operation accounting for failed_frac: every attempt, every failure by
  /// kind (error code, ResourceExhausted, query end state...).
  void Attempt(const std::string& op, size_t n = 1);
  void Failure(const std::string& op, const std::string& kind);
  /// Prints the failure breakdown, the totals, and the failed_frac metric.
  void FinishAccounting();

  bool all_checks_passed() const { return checks_failed_ == 0; }
  /// Whether a metric of this name was written.
  bool emitted(const std::string& name);

 private:
  std::mutex mutex_;
  std::set<std::string> emitted_;
  std::map<std::string, size_t> attempted_;
  std::map<std::string, size_t> failures_;  // "op kind" -> count
  std::map<std::string, size_t> checks_passed_;
  size_t checks_failed_ = 0;
};

/// Classifies a failed Status for the failure breakdown.
std::string FailureKind(const aims::Status& status);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// \brief Pauses the load threads of a traced phase so the server's trace
/// ring can be drained without racing new records (Tracer::Snapshot and
/// Clear are separate calls). Workers call Checkpoint() between
/// operations; the drainer calls Drain(fn).
class PauseGate {
 public:
  explicit PauseGate(size_t workers) : active_(workers) {}

  /// Parks while a drain runs; returns the milliseconds spent parked.
  double Checkpoint();
  /// A worker that exits stops counting toward the park quorum.
  void Leave();
  /// Parks every active worker, runs \p fn, releases them.
  void Drain(const std::function<void()>& fn);

 private:
  std::atomic<bool> pause_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t active_;
  size_t parked_ = 0;
};

/// \brief The benchmark's own spans around its calls into each layer, kept
/// in memory per thread and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint32_t thread;
    double start_us;
    double end_us;
  };

  SpanLog();
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Records one span for \p thread (each thread owns its slot).
  void Add(uint32_t thread, const char* name, Clock::time_point start,
           Clock::time_point end);
  /// Writes at most \p limit spans as JSON lines; returns spans written.
  size_t WriteJsonLines(const std::string& path, size_t limit) const;

 private:
  static constexpr size_t kMaxThreads = 16;
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<std::vector<Span>> per_thread_;
};

/// \brief Self-time and duration aggregates of server trace spans, keyed
/// "<root span>/<span>" (e.g. "ingest/queue_wait", "query/block_io").
/// Self time is a span's duration minus the part its children cover.
class TraceAggregate {
 public:
  struct Stat {
    double total_ms = 0.0;
    double self_total_ms = 0.0;
    size_t count = 0;
    /// Per-span durations, kept only for keys registered with
    /// KeepSamples.
    std::vector<double> samples_ms;
  };

  void KeepSamples(const std::string& key) { keep_.insert(key); }
  void Add(const aims::obs::Trace& trace);
  /// Drains \p tracer into the aggregate, adding its dropped() count. The
  /// caller guarantees that nothing records into it meanwhile.
  void DrainFrom(aims::obs::Tracer& tracer);

  const Stat& Get(const std::string& key) const;
  size_t roots(const std::string& root) const;
  /// Sum of durations of \p key per root trace of \p root.
  double PerRootMs(const std::string& key, const std::string& root) const;
  /// Sum of self time of \p key per root trace of \p root.
  double SelfPerRootMs(const std::string& key, const std::string& root) const;
  uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, Stat> stats_;
  std::map<std::string, size_t> roots_;
  std::set<std::string> keep_;
  uint64_t dropped_ = 0;
};

/// Server configuration every workload starts from: 4 shards, 4 threads,
/// default ObsConfig. A traced run only enlarges the trace ring.
aims::server::ServerConfig BaseServerConfig(bool traced);

/// Trace-ring capacity of a traced phase; drains run well before it fills.
inline constexpr size_t kTracedRingCapacity = 1u << 16;
/// Traces recorded between drains of a traced phase.
inline constexpr uint64_t kDrainEvery = 1u << 13;

/// Frames x channels matrix of \p count frames of \p rec from \p first
/// (a vocabulary template or a stream window); needs first <= frames.
aims::linalg::Matrix ToMatrix(const aims::streams::Recording& rec,
                              size_t first = 0, size_t count = SIZE_MAX);

/// A \p len-frame window of \p rec from \p start, timestamps rebased to 0.
aims::streams::Recording Slice(const aims::streams::Recording& rec,
                               size_t start, size_t len);

/// Number of signs the workloads draw from the default ASL vocabulary.
inline constexpr size_t kVocabularySize = 10;

/// The glove subject of load client \p client. Fixed across seeds: a seed
/// changes what is signed and the sensor noise, not who signs it, so runs
/// on different seeds measure the same work.
aims::synth::SubjectProfile ClientSubject(size_t client);

/// \p passes shuffled passes over every vocabulary sign: each script holds
/// the same signs, in a seeded order.
std::vector<size_t> BalancedScript(aims::Rng* rng, size_t passes);

/// A glove session of at least \p min_frames frames: balanced scripts with
/// rest gaps, signed in turn by the subjects of clients 0..3.
aims::streams::Recording GloveSession(uint64_t seed, size_t min_frames);

/// Returns freed heap to the system, so one set-up's garbage does not
/// carry into the next one's peak RSS.
void ReleaseFreeMemory();

/// Exact sum of \p values[first..last] (long-double accumulation) and the
/// sum of magnitudes, the scale of floating-point error in any summation.
struct ExactSum {
  double sum = 0.0;
  double abs_sum = 0.0;
};
ExactSum SumRange(const std::vector<double>& values, size_t first,
                  size_t last);

/// Replay timing helper: runs \p fn over \p n inputs, cycling, until every
/// input ran once and 0.3 s have passed; returns the mean microseconds per
/// call.
double ReplayMeanUs(size_t n, const std::function<void(size_t)>& fn);

// ---- Workloads ----------------------------------------------------------

void RunIngestDurable(const Options& options, Results* results);
void RunQueryMixed(const Options& options, Results* results);
void RunStreamRecognize(const Options& options, Results* results);

}  // namespace aimsbench
