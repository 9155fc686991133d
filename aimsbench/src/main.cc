// aims_bench, the AIMS benchmark binary: one workload per invocation.
//
//   aims_bench --workload <ingest_durable|query_mixed|stream_recognize>
//              --seed <n> --seconds <s> --trace <0|1> [--tiny]
//              [--work-dir <dir>]
//
// Prints one flushed line per metric, check and environment stamp (see
// Results in bench.h); aimsbench/run.py turns them into the benchmark's
// result line. Exits 1 when a correctness check failed, 2 on bad usage.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "synth/cyberglove.h"

namespace aimsbench {

namespace {

/// Every per-layer metric, with its unit. A traced run emits each one on
/// every workload; a layer the workload does not touch reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"server.ingest.queue_wait_ms", "ms"},
      {"server.query.admission_wait_ms", "ms"},
      {"server.shard_lock_wait_ms.ingest", "ms"},
      {"server.shard_lock_wait_ms.query", "ms"},
      {"server.shard_lock_wait_p99_ms", "ms"},
      {"server.shard_apply_lock_wait_ms", "ms"},
      {"server.stream.call_overhead_us", "us"},
      {"core.ingest.unspanned_ms", "ms"},
      {"core.ingest.late_over_early", "ratio"},
      {"signal.transform_ms", "ms"},
      {"signal.forward_dwt_us", "us"},
      {"signal.dwpt_build_us", "us"},
      {"signal.lazy_transform_us", "us"},
      {"storage.block_write_ms", "ms"},
      {"storage.wal_sync_ms", "ms"},
      {"storage.wal.syncs_per_commit", "ratio"},
      {"storage.wal.checkpoints_per_ingest", "ratio"},
      {"storage.wal.bytes_per_input_byte", "ratio"},
      {"storage.blocks_written_per_ingest", "count"},
      {"storage.tslife.build_segments_us", "us"},
      {"storage.cache.hit_rate", "ratio"},
      {"storage.cache.evictions_per_query", "ratio"},
      {"storage.cache.invalidations_per_write", "ratio"},
      {"propolyne.refinement_ms", "ms"},
      {"propolyne.block_io_us", "us"},
      {"propolyne.blocks_per_query", "count"},
      {"propolyne.blocks_saved_frac", "ratio"},
      {"recognition.update_us.p50", "us"},
      {"recognition.update_us.p99", "us"},
      {"recognition.similarity_us", "us"},
      {"recognition.events_per_kframe", "count"},
      {"recognition.event_accuracy", "ratio"},
      {"linalg.symmetric_eigen_us", "us"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.tracer_dropped", "count"},
      {"failed_frac", "ratio"},
      {"e2e.ingest_p50_ms", "ms"},
      {"e2e.ingest_p99_ms", "ms"},
      {"e2e.query_approx_p50_ms", "ms"},
      {"e2e.query_approx_p99_ms", "ms"},
      {"e2e.stored_bytes_per_input_byte", "ratio"},
      {"load.writer_late_p99_ms", "ms"},
      {"load.writer_late_max_ms", "ms"},
  };
  return kMetrics;
}

void StampEnvironment(const Options& options, Results* results) {
  results->Env("workload", options.workload);
  results->Env("seed", static_cast<double>(options.seed));
  results->Env("seconds", options.seconds);
  results->Env("trace", options.trace ? 1.0 : 0.0);
  results->Env("size", options.tiny ? "tiny" : "full");
  results->Env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  results->Env("compiler", AIMSBENCH_COMPILER);
  results->Env("build_type", AIMSBENCH_BUILD_TYPE);
  utsname uts{};
  if (uname(&uts) == 0) {
    results->Env("kernel", std::string(uts.sysname) + " " + uts.release);
  }
  // The source tree is not always a git checkout; run.py stamps the sha
  // when it can find one.
  const aims::server::ServerConfig config = BaseServerConfig(options.trace);
  results->Env("server.num_shards", static_cast<double>(config.num_shards));
  results->Env("server.num_threads", static_cast<double>(config.num_threads));
  results->Env("server.trace_capacity",
               static_cast<double>(config.obs.trace_capacity));
}

}  // namespace

// ---- Statistics ---------------------------------------------------------

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

// ---- Results ------------------------------------------------------------

void Results::Metric(const std::string& name, double value,
                     const std::string& unit, size_t samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  emitted_.insert(name);
  std::printf("M %s %.9g %s %zu\n", name.c_str(),
              std::isfinite(value) ? value : 0.0, unit.c_str(), samples);
  std::fflush(stdout);
}

void Results::Env(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::printf("E %s %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

void Results::Env(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(9);
  out << value;
  Env(key, out.str());
}

bool Results::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Passing checks are tallied by description; a failure prints at once.
  if (ok) {
    ++checks_passed_[what];
  } else {
    ++checks_failed_;
    std::printf("C 0 %s\n", what.c_str());
    std::fflush(stdout);
  }
  return ok;
}

void Results::Note(const std::string& text) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

void Results::Attempt(const std::string& op, size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_[op] += n;
}

void Results::Failure(const std::string& op, const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  failures_[op + " " + kind] += 1;
}

bool Results::emitted(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_.count(name) > 0;
}

void Results::FinishAccounting() {
  size_t attempted = 0;
  size_t failed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [op, n] : attempted_) {
      attempted += n;
      std::printf("# attempted %s %zu\n", op.c_str(), n);
    }
    for (const auto& [key, n] : failures_) {
      failed += n;
      std::printf("F %s %zu\n", key.c_str(), n);
    }
    for (const auto& [what, n] : checks_passed_) {
      std::printf("C 1 %s (x%zu)\n", what.c_str(), n);
    }
    std::printf("A %zu %zu\n", attempted, failed);
    std::fflush(stdout);
  }
  Metric("failed_frac",
         attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted),
         "ratio", attempted);
}

std::string FailureKind(const aims::Status& status) {
  switch (status.code()) {
    case aims::StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case aims::StatusCode::kIoError:
      return "io_error";
    case aims::StatusCode::kNotFound:
      return "not_found";
    default:
      return "error";
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Inputs -------------------------------------------------------------

aims::server::ServerConfig BaseServerConfig(bool traced) {
  aims::server::ServerConfig config;
  config.num_shards = 4;
  config.num_threads = 4;
  if (traced) config.obs.trace_capacity = kTracedRingCapacity;
  return config;
}

aims::linalg::Matrix ToMatrix(const aims::streams::Recording& rec,
                              size_t first, size_t count) {
  const size_t end = first + std::min(count, rec.num_frames() - first);
  aims::linalg::Matrix m(end - first, rec.num_channels());
  for (size_t r = first; r < end; ++r) m.SetRow(r - first, rec.frames[r].values);
  return m;
}

aims::streams::Recording Slice(const aims::streams::Recording& rec,
                               size_t start, size_t len) {
  aims::streams::Recording out;
  out.sample_rate_hz = rec.sample_rate_hz;
  const double t0 = rec.frames[start].timestamp;
  out.frames.reserve(len);
  for (size_t i = start; i < start + len && i < rec.num_frames(); ++i) {
    out.frames.push_back(rec.frames[i]);
    out.frames.back().timestamp -= t0;
  }
  return out;
}

aims::synth::SubjectProfile ClientSubject(size_t client) {
  aims::synth::CyberGloveSimulator sim(aims::synth::DefaultAslVocabulary(),
                                       1000 + client);
  return sim.MakeSubject();
}

std::vector<size_t> BalancedScript(aims::Rng* rng, size_t passes) {
  std::vector<size_t> script;
  for (size_t p = 0; p < passes; ++p) {
    std::vector<size_t> pass(kVocabularySize);
    for (size_t i = 0; i < kVocabularySize; ++i) pass[i] = i;
    rng->Shuffle(&pass);
    script.insert(script.end(), pass.begin(), pass.end());
  }
  return script;
}

aims::streams::Recording GloveSession(uint64_t seed, size_t min_frames) {
  aims::synth::CyberGloveSimulator sim(aims::synth::DefaultAslVocabulary(),
                                       seed);
  aims::Rng rng(seed * 7919 + 17);
  aims::streams::Recording out;
  for (size_t part_index = 0; out.num_frames() < min_frames; ++part_index) {
    auto part = sim.GenerateSequence(BalancedScript(&rng, 1),
                                     ClientSubject(part_index % 4), 0.4,
                                     nullptr);
    if (!part.ok()) {
      std::fprintf(stderr, "GloveSession: %s\n",
                   part.status().ToString().c_str());
      std::exit(3);
    }
    const double offset =
        out.frames.empty() ? 0.0
                           : out.frames.back().timestamp + 1.0 / part->sample_rate_hz;
    out.sample_rate_hz = part->sample_rate_hz;
    for (aims::streams::Frame& frame : part->frames) {
      frame.timestamp += offset;
      out.frames.push_back(std::move(frame));
    }
  }
  return out;
}

void ReleaseFreeMemory() { malloc_trim(0); }

WindowSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                               double total_s, double window_s) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(total_s / window_s));
  const double width = windows == 1 ? total_s : window_s;
  std::vector<std::vector<double>> by_window(windows);
  for (const TimedSample& s : samples) {
    const size_t w = static_cast<size_t>(s.t_s / width);
    if (w < windows) by_window[w].push_back(s.value);
  }
  std::vector<double> p50, p99, rate;
  WindowSummary summary;
  for (std::vector<double>& values : by_window) {
    if (values.empty()) continue;
    summary.samples += values.size();
    rate.push_back(static_cast<double>(values.size()) / width);
    p50.push_back(Quantile(&values, 0.5));
    p99.push_back(Quantile(&values, 0.99));
  }
  summary.p50 = Median(p50);
  summary.p99 = Median(p99);
  summary.per_s = Median(rate);
  return summary;
}

ExactSum SumRange(const std::vector<double>& values, size_t first,
                  size_t last) {
  long double sum = 0.0L;
  long double abs_sum = 0.0L;
  for (size_t i = first; i <= last; ++i) {
    sum += values[i];
    abs_sum += std::fabs(values[i]);
  }
  return ExactSum{static_cast<double>(sum), static_cast<double>(abs_sum)};
}

double ReplayMeanUs(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return 0.0;
  const Clock::time_point start = Clock::now();
  size_t calls = 0;
  while (calls < n || SecondsSince(start) < 0.3) fn(calls++ % n);
  return SecondsSince(start) * 1e6 / static_cast<double>(calls);
}

}  // namespace aimsbench

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "aims_bench: %s\nusage: aims_bench --workload "
               "<ingest_durable|query_mixed|stream_recognize> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aimsbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if ((arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
                arg == "--trace" || arg == "--work-dir") &&
               (v = value()) != nullptr) {
      if (arg == "--workload") options.workload = v;
      if (arg == "--seed") options.seed = std::strtoull(v, nullptr, 10);
      if (arg == "--seconds") options.seconds = std::strtod(v, nullptr);
      if (arg == "--trace") options.trace = std::strcmp(v, "0") != 0;
      if (arg == "--work-dir") options.work_dir = v;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  Results results;
  StampEnvironment(options, &results);
  if (options.workload == "ingest_durable") {
    RunIngestDurable(options, &results);
  } else if (options.workload == "query_mixed") {
    RunQueryMixed(options, &results);
  } else if (options.workload == "stream_recognize") {
    RunStreamRecognize(options, &results);
  } else {
    return Usage("unknown workload");
  }
  results.FinishAccounting();
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      if (!results.emitted(name)) results.Metric(name, 0.0, unit, 0);
    }
  } else {
    results.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  return results.all_checks_passed() ? 0 : 1;
}
