// Workload query_mixed: an in-memory server whose block cache holds about
// 1/8 of the preloaded coefficient bytes. 3 reader clients run a closed
// loop of progressive range queries (sessions Zipf(0.99), uniform channel,
// lengths log-uniform over 8..1024 frames; half run to exactness, half stop
// at 1% of the range's exact |sum|) while 1 writer ingests 256-frame
// recordings in an open loop at a fixed rate.

#include <cmath>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "signal/lazy_wavelet.h"

namespace aimsbench {

namespace {

using aims::server::AimsServer;
using aims::server::GlobalSessionId;
using aims::server::QueryState;

constexpr size_t kReaders = 3;
constexpr size_t kPreloadClients = 16;
constexpr aims::server::ClientId kWriterClient = 100;
constexpr aims::server::ClientId kReaderClientBase = 200;

struct Sizes {
  size_t sessions = 128;
  size_t frames = 1024;
  size_t write_frames = 256;
  double write_rate_hz = 20.0;
  size_t write_pool = 16;
  size_t setups = 3;
  /// Window of the windowed p50/p99/throughput summaries.
  double window_s = 1.0;
};

Sizes MakeSizes(bool tiny) {
  Sizes sizes;
  if (tiny) {
    sizes.sessions = 16;
    sizes.frames = 256;
    sizes.write_frames = 64;
    sizes.write_pool = 4;
    sizes.setups = 1;
  }
  return sizes;
}

struct Inputs {
  std::vector<aims::streams::Recording> sessions;
  std::vector<std::vector<std::vector<double>>> columns;  // [session][channel]
  std::vector<aims::streams::Recording> writes;
  std::vector<double> zipf_cdf;
  size_t coefficient_bytes = 0;
};

/// One query a reader issued (kept for correctness checks and replays).
struct Issued {
  size_t session = 0;
  size_t channel = 0;
  size_t first = 0;
  size_t last = 0;
};

struct PhaseResult {
  std::vector<TimedSample> exact_ms;
  std::vector<TimedSample> approx_ms;
  std::vector<double> write_ms;  // from each write's due time
  std::vector<double> write_late_ms;
  double timed_s = 0.0;
  size_t queries = 0;
  size_t writes = 0;
  size_t blocks_read = 0;
  size_t approx_blocks_read = 0;
  size_t approx_blocks_needed = 0;
  size_t wrong_exact = 0;
  size_t wrong_bound = 0;
  size_t checked = 0;
  bool writer_fell_behind = false;
  aims::obs::CacheStats cache_before;
  aims::obs::CacheStats cache_after;
  double lock_p99_ms = 0.0;
  std::vector<Issued> sample;  // first queries, for the lazy-transform replay
  TraceAggregate traces;
};

aims::server::ServerConfig MixedConfig(const Inputs& inputs, bool traced) {
  aims::server::ServerConfig config = BaseServerConfig(traced);
  // Each shard owns a cache; together they hold ~1/8 of the preload.
  config.system.block_cache.capacity_bytes =
      inputs.coefficient_bytes / 8 / config.num_shards;
  return config;
}

Inputs MakeInputs(const Options& options, const Sizes& sizes) {
  Inputs inputs;
  const aims::streams::Recording source =
      GloveSession(options.seed, sizes.frames * 24);
  aims::Rng rng(options.seed * 131 + 3);
  for (size_t s = 0; s < sizes.sessions; ++s) {
    const size_t start = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(source.num_frames() - sizes.frames)));
    inputs.sessions.push_back(Slice(source, start, sizes.frames));
    std::vector<std::vector<double>> cols;
    for (size_t c = 0; c < inputs.sessions.back().num_channels(); ++c) {
      cols.push_back(inputs.sessions.back().Channel(c));
    }
    inputs.columns.push_back(std::move(cols));
    size_t padded = 1;
    while (padded < sizes.frames) padded <<= 1;
    inputs.coefficient_bytes +=
        padded * inputs.sessions.back().num_channels() * sizeof(double);
  }
  for (size_t w = 0; w < sizes.write_pool; ++w) {
    const size_t start = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(source.num_frames() - sizes.write_frames)));
    inputs.writes.push_back(Slice(source, start, sizes.write_frames));
  }
  // Zipf(0.99) over session ranks; rank i is session i, so placement of
  // the hot sessions does not depend on the seed.
  double total = 0.0;
  for (size_t i = 0; i < sizes.sessions; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
    inputs.zipf_cdf.push_back(total);
  }
  for (double& v : inputs.zipf_cdf) v /= total;
  return inputs;
}

/// Builds a server and preloads every session (4 loader threads); returns
/// the ids in session order, or an empty vector after a failed check.
std::vector<GlobalSessionId> Preload(AimsServer* server, const Inputs& inputs,
                                     Results* results) {
  for (size_t c = 0; c < kPreloadClients; ++c) {
    server->OpenSession({c + 1, false});
  }
  server->OpenSession({kWriterClient, false});
  for (size_t r = 0; r < kReaders; ++r) {
    server->OpenSession({kReaderClientBase + r, false});
  }
  std::vector<GlobalSessionId> ids(inputs.sessions.size(), 0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> loaders;
  for (size_t t = 0; t < 4; ++t) {
    loaders.emplace_back([&] {
      for (size_t s = next.fetch_add(1); s < inputs.sessions.size();
           s = next.fetch_add(1)) {
        auto stored = server->IngestRecording(
            {s % kPreloadClients + 1, "pre_" + std::to_string(s),
             inputs.sessions[s]});
        if (stored.ok()) {
          ids[s] = stored->session;
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  if (!results->Check(failed.load() == 0, "query_mixed: preload succeeds")) {
    return {};
  }
  return ids;
}

PhaseResult RunPhase(const Options& options, const Sizes& sizes,
                     const Inputs& inputs, AimsServer* server,
                     const std::vector<GlobalSessionId>& ids, bool traced,
                     double seconds, SpanLog* spans, Results* results) {
  PhaseResult phase;
  if (auto health = server->GetHealth({}); health.ok()) {
    phase.cache_before = health->cache;
  }
  PauseGate gate(kReaders + 1);
  std::atomic<bool> stop{false};
  std::mutex merge;
  const Clock::time_point start = Clock::now();

  auto reader = [&](size_t r) {
    aims::Rng rng(options.seed * 1000 + r + (traced ? 500 : 0));
    const aims::server::ClientId client = kReaderClientBase + r;
    std::vector<TimedSample> exact_ms, approx_ms;
    std::vector<Issued> sample;
    size_t blocks = 0, approx_read = 0, approx_needed = 0;
    size_t wrong_exact = 0, wrong_bound = 0, checked = 0, queries = 0;
    // Attempts are tallied locally and handed over once, so the load loop
    // shares no lock with the other readers.
    size_t attempted_exact = 0, attempted_approx = 0;
    const double log_lo = std::log(8.0);
    const double log_hi = std::log(static_cast<double>(sizes.frames));
    while (!stop.load(std::memory_order_relaxed)) {
      gate.Checkpoint();
      const double u = rng.Uniform();
      const size_t s = static_cast<size_t>(
          std::lower_bound(inputs.zipf_cdf.begin(), inputs.zipf_cdf.end(), u) -
          inputs.zipf_cdf.begin());
      const size_t session = std::min(s, ids.size() - 1);
      const size_t channel = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(inputs.columns[session].size()) - 1));
      const size_t len = std::clamp<size_t>(
          static_cast<size_t>(std::llround(std::exp(rng.Uniform(log_lo, log_hi)))),
          1, sizes.frames);
      const size_t first = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sizes.frames - len)));
      const size_t last = first + len - 1;
      const bool approx = rng.Bernoulli(0.5);
      const ExactSum exact = SumRange(inputs.columns[session][channel], first, last);

      aims::server::QueryRequest query;
      query.session = ids[session];
      query.channel = channel;
      query.first_frame = first;
      query.last_frame = last;
      if (approx) query.target_error_bound = 0.01 * std::fabs(exact.sum);
      const char* op = approx ? "query_approx" : "query_exact";
      ++(approx ? attempted_approx : attempted_exact);
      const Clock::time_point q_start = Clock::now();
      auto submitted = server->SubmitQuery({client, query});
      if (!submitted.ok()) {
        results->Failure(op, FailureKind(submitted.status()));
        continue;
      }
      aims::server::QueryOutcome outcome = submitted->ticket->Wait();
      const Clock::time_point q_end = Clock::now();
      spans->Add(static_cast<uint32_t>(r), approx ? "client.query_approx" : "client.query_exact",
                 q_start, q_end);
      ++queries;
      if (outcome.state != QueryState::kComplete) {
        results->Failure(op, std::string("state_") +
                                 aims::server::QueryStateName(outcome.state));
        continue;
      }
      const TimedSample ms{std::chrono::duration<double>(q_end - start).count(),
                           MsBetween(q_start, q_end)};
      const double err = std::fabs(outcome.answer.sum - exact.sum);
      ++checked;
      blocks += outcome.answer.blocks_read;
      if (approx) {
        approx_ms.push_back(ms);
        approx_read += outcome.answer.blocks_read;
        approx_needed += outcome.answer.blocks_needed;
        // Invariant 1: the progressive bound covers the error (plus the
        // rounding of any floating-point sum over the range).
        if (err > outcome.answer.error_bound + 1e-9 * exact.abs_sum) ++wrong_bound;
      } else {
        exact_ms.push_back(ms);
        if (err > 1e-9 * std::max(std::fabs(exact.sum), exact.abs_sum)) ++wrong_exact;
      }
      if (sample.size() < 4096) sample.push_back(Issued{session, channel, first, last});
    }
    gate.Leave();
    results->Attempt("query_exact", attempted_exact);
    results->Attempt("query_approx", attempted_approx);
    std::lock_guard<std::mutex> lock(merge);
    phase.exact_ms.insert(phase.exact_ms.end(), exact_ms.begin(), exact_ms.end());
    phase.approx_ms.insert(phase.approx_ms.end(), approx_ms.begin(), approx_ms.end());
    phase.sample.insert(phase.sample.end(), sample.begin(), sample.end());
    phase.queries += queries;
    phase.blocks_read += blocks;
    phase.approx_blocks_read += approx_read;
    phase.approx_blocks_needed += approx_needed;
    phase.wrong_exact += wrong_exact;
    phase.wrong_bound += wrong_bound;
    phase.checked += checked;
  };

  // Open-loop writer: write k is due at start + k * period; each write is
  // timed from its due time, and the generator's lateness is recorded.
  auto writer = [&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / sizes.write_rate_hz));
    Clock::time_point base = start;
    std::vector<double> write_ms, late_ms;
    bool behind = false;
    for (size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      Clock::time_point due = base + period * static_cast<int64_t>(k);
      while (Clock::now() < due && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            due - Clock::now(), std::chrono::milliseconds(5)));
        // A drain parks the generator; its schedule moves with the pause.
        const double parked = gate.Checkpoint();
        if (parked > 0.0) {
          base += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(parked));
          due = base + period * static_cast<int64_t>(k);
        }
      }
      if (stop.load(std::memory_order_relaxed)) break;
      const Clock::time_point begin = Clock::now();
      const double late = MsBetween(due, begin);
      late_ms.push_back(late);
      if (late > 1000.0 / sizes.write_rate_hz) behind = true;
      results->Attempt("ingest");
      auto stored = server->IngestRecording(
          {kWriterClient, "w_" + std::to_string(k),
           inputs.writes[k % inputs.writes.size()]});
      const Clock::time_point end = Clock::now();
      spans->Add(kReaders, "client.ingest", begin, end);
      if (!stored.ok()) {
        results->Failure("ingest", FailureKind(stored.status()));
        continue;
      }
      write_ms.push_back(MsBetween(due, end));
    }
    gate.Leave();
    std::lock_guard<std::mutex> lock(merge);
    phase.write_ms = std::move(write_ms);
    phase.write_late_ms = std::move(late_ms);
    phase.writes = phase.write_ms.size();
    phase.writer_fell_behind = behind;
  };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  // The drainer: a traced phase empties the trace ring while the load is
  // parked, so no trace is ever evicted.
  while (SecondsSince(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (traced && server->tracer().total_recorded() >= kDrainEvery) {
      gate.Drain([&] { phase.traces.DrainFrom(server->tracer()); });
    }
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  phase.timed_s = SecondsSince(start);
  if (traced) phase.traces.DrainFrom(server->tracer());
  if (auto health = server->GetHealth({}); health.ok()) {
    phase.cache_after = health->cache;
  }
  if (auto shards = server->GetShardStats({}); shards.ok()) {
    for (const auto& s : shards->shards) {
      phase.lock_p99_ms = std::max(phase.lock_p99_ms, s.lock_wait_p99_ms);
    }
  }
  return phase;
}

void ReportChecks(const PhaseResult& phase, const Sizes& sizes,
                  Results* results) {
  results->Check(phase.wrong_exact == 0,
                 "query_mixed: exact answers equal the input sum within 1e-9 "
                 "relative (" + std::to_string(phase.wrong_exact) + " of " +
                     std::to_string(phase.exact_ms.size()) + " wrong)");
  results->Check(phase.wrong_bound == 0,
                 "query_mixed: |estimate - exact| <= error_bound on every "
                 "target-bound answer (" + std::to_string(phase.wrong_bound) +
                     " of " + std::to_string(phase.approx_ms.size()) + " wrong)");
  std::vector<double> late = phase.write_late_ms;
  const double max_late = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  results->Check(!phase.writer_fell_behind,
                 "query_mixed: open-loop writer stayed within one period of "
                 "its schedule (max lateness " + std::to_string(max_late) +
                     " ms, period " + std::to_string(1000.0 / sizes.write_rate_hz) +
                     " ms)");
}

}  // namespace

void RunQueryMixed(const Options& options, Results* results) {
  const Sizes sizes = MakeSizes(options.tiny);
  const Inputs inputs = MakeInputs(options, sizes);
  const aims::server::ServerConfig probe = MixedConfig(inputs, false);
  results->Env("input.sessions", static_cast<double>(sizes.sessions));
  results->Env("input.frames_x_channels",
               std::to_string(sizes.frames) + "x" +
                   std::to_string(inputs.sessions[0].num_channels()));
  results->Env("input.preloaded_coefficient_bytes",
               static_cast<double>(inputs.coefficient_bytes));
  results->Env("input.cache_bytes",
               static_cast<double>(probe.system.block_cache.capacity_bytes *
                                   probe.num_shards));
  results->Env("input.readers", static_cast<double>(kReaders));
  results->Env("input.write_frames", static_cast<double>(sizes.write_frames));
  results->Env("input.write_rate_hz", sizes.write_rate_hz);
  results->Env("flush.sync_mode", "in-memory");

  SpanLog spans;
  auto setup = [&](bool traced, std::unique_ptr<AimsServer>* server,
                   std::vector<GlobalSessionId>* ids) {
    const Clock::time_point begin = Clock::now();
    *server = std::make_unique<AimsServer>(MixedConfig(inputs, traced));
    *ids = Preload(server->get(), inputs, results);
    return SecondsSince(begin);
  };

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<AimsServer> server;
    std::vector<GlobalSessionId> ids;
    for (size_t i = 0; i < sizes.setups; ++i) {
      if (server != nullptr) server->Shutdown();
      server.reset();
      ReleaseFreeMemory();
      setup_s.push_back(setup(false, &server, &ids));
      if (ids.empty()) return;
    }
    PhaseResult phase = RunPhase(options, sizes, inputs, server.get(), ids,
                                 false, options.seconds, &spans, results);
    server->Shutdown();
    ReportChecks(phase, sizes, results);
    const WindowSummary exact =
        SummarizeWindows(phase.exact_ms, phase.timed_s, sizes.window_s);
    const WindowSummary approx =
        SummarizeWindows(phase.approx_ms, phase.timed_s, sizes.window_s);
    std::vector<TimedSample> all = phase.exact_ms;
    all.insert(all.end(), phase.approx_ms.begin(), phase.approx_ms.end());
    const WindowSummary queries =
        SummarizeWindows(all, phase.timed_s, sizes.window_s);
    std::vector<double> write = phase.write_ms, late = phase.write_late_ms;
    results->Metric("setup_s", Median(setup_s), "s", setup_s.size());
    results->Metric("query_p50_ms", exact.p50, "ms", exact.samples);
    results->Metric("query_p99_ms", exact.p99, "ms", exact.samples);
    results->Metric("query_approx_p50_ms", approx.p50, "ms", approx.samples);
    results->Metric("query_approx_p99_ms", approx.p99, "ms", approx.samples);
    results->Metric("queries_per_s", queries.per_s, "1/s", queries.samples);
    results->Metric("ingest_p50_ms", Quantile(&write, 0.5), "ms", write.size());
    results->Metric("ingest_p99_ms", Quantile(&write, 0.99), "ms", write.size());
    results->Metric("writer_late_p99_ms", Quantile(&late, 0.99), "ms", late.size());
    results->Metric("writer_late_max_ms", late.empty() ? 0.0 : late.back(), "ms", late.size());
    results->Metric("op_p50_ms", exact.p50, "ms", exact.samples);
    results->Metric("op_p99_ms", exact.p99, "ms", exact.samples);
    results->Metric("work_per_s", queries.per_s, "1/s", queries.samples);
    return;
  }

  std::unique_ptr<AimsServer> server;
  std::vector<GlobalSessionId> ids;
  setup(false, &server, &ids);
  if (ids.empty()) return;
  PhaseResult plain = RunPhase(options, sizes, inputs, server.get(), ids, false,
                               options.seconds / 2, &spans, results);
  server->Shutdown();
  ReportChecks(plain, sizes, results);
  setup(true, &server, &ids);
  if (ids.empty()) return;
  spans.set_enabled(true);
  PhaseResult traced = RunPhase(options, sizes, inputs, server.get(), ids, true,
                                options.seconds / 2, &spans, results);
  server->Shutdown();
  ReportChecks(traced, sizes, results);

  {
    const WindowSummary approx =
        SummarizeWindows(plain.approx_ms, plain.timed_s, sizes.window_s);
    std::vector<double> write = plain.write_ms, late = plain.write_late_ms;
    results->Metric("e2e.query_approx_p50_ms", approx.p50, "ms", approx.samples);
    results->Metric("e2e.query_approx_p99_ms", approx.p99, "ms", approx.samples);
    results->Metric("e2e.ingest_p50_ms", Quantile(&write, 0.5), "ms", write.size());
    results->Metric("e2e.ingest_p99_ms", Quantile(&write, 0.99), "ms", write.size());
    results->Metric("load.writer_late_p99_ms", Quantile(&late, 0.99), "ms", late.size());
    results->Metric("load.writer_late_max_ms", late.empty() ? 0.0 : late.back(), "ms", late.size());
    const double plain_p50 =
        SummarizeWindows(plain.exact_ms, plain.timed_s, sizes.window_s).p50;
    const WindowSummary traced_exact =
        SummarizeWindows(traced.exact_ms, traced.timed_s, sizes.window_s);
    results->Metric("obs.trace_overhead_frac", traced_exact.p50 / plain_p50 - 1.0,
                    "ratio", traced_exact.samples);
  }
  const TraceAggregate& t = traced.traces;
  const size_t nq = t.roots("query");
  const size_t ni = t.roots("ingest");
  results->Metric("obs.tracer_dropped", static_cast<double>(t.dropped()), "count", nq + ni);
  results->Check(t.dropped() == 0, "query_mixed: traced run dropped no trace");
  results->Metric("server.query.admission_wait_ms", t.PerRootMs("query/admission_wait", "query"), "ms", nq);
  results->Metric("server.shard_lock_wait_ms.query", t.PerRootMs("query/shard_lock", "query"), "ms", nq);
  results->Metric("server.shard_lock_wait_ms.ingest", t.PerRootMs("ingest/shard_lock", "ingest"), "ms", ni);
  results->Metric("server.shard_lock_wait_p99_ms", traced.lock_p99_ms, "ms", 1);
  results->Metric("server.ingest.queue_wait_ms", t.PerRootMs("ingest/queue_wait", "ingest"), "ms", ni);
  results->Metric("core.ingest.unspanned_ms", t.SelfPerRootMs("ingest/ingest", "ingest"), "ms", ni);
  results->Metric("signal.transform_ms", t.PerRootMs("ingest/transform", "ingest"), "ms", ni);
  results->Metric("storage.block_write_ms", t.PerRootMs("ingest/block_write", "ingest"), "ms", ni);
  const aims::obs::CacheStats& a = traced.cache_after;
  const aims::obs::CacheStats& b = traced.cache_before;
  const double hits = static_cast<double>(a.hits - b.hits);
  const double misses = static_cast<double>(a.misses - b.misses);
  const double queries = static_cast<double>(std::max<size_t>(traced.queries, 1));
  results->Metric("storage.cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                  "ratio", static_cast<size_t>(hits + misses));
  results->Metric("storage.cache.evictions_per_query",
                  static_cast<double>(a.evictions - b.evictions) / queries, "ratio",
                  traced.queries);
  results->Metric("storage.cache.invalidations_per_write",
                  static_cast<double>(a.invalidations - b.invalidations) /
                      static_cast<double>(std::max<size_t>(traced.writes, 1)),
                  "ratio", traced.writes);
  results->Metric("propolyne.refinement_ms", t.PerRootMs("query/refinement", "query"), "ms", nq);
  const TraceAggregate::Stat& io = t.Get("query/block_io");
  results->Metric("propolyne.block_io_us",
                  io.count == 0 ? 0.0 : 1000.0 * io.total_ms / static_cast<double>(io.count),
                  "us", io.count);
  results->Metric("propolyne.blocks_per_query",
                  static_cast<double>(traced.blocks_read) / queries, "count", traced.queries);
  results->Metric("propolyne.blocks_saved_frac",
                  traced.approx_blocks_needed == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(traced.approx_blocks_read) /
                                  static_cast<double>(traced.approx_blocks_needed),
                  "ratio", traced.approx_ms.size());

  // Replay: the lazy range transforms of the queries the readers issued.
  const aims::signal::WaveletFilter filter =
      aims::signal::WaveletFilter::Make(aims::signal::WaveletKind::kDb2);
  size_t padded = 1;
  while (padded < sizes.frames) padded <<= 1;
  size_t sink = 0;
  const Clock::time_point replay_start = Clock::now();
  const double lazy_us = ReplayMeanUs(traced.sample.size(), [&](size_t i) {
    const Issued& q = traced.sample[i];
    auto coeffs = aims::signal::LazyWaveletTransform(
        filter, padded, q.first, q.last, aims::signal::Polynomial::Constant(1.0));
    sink += coeffs.ok() ? coeffs->size() : 0;
  });
  spans.Add(0, "replay.lazy_transform", replay_start, Clock::now());
  results->Metric("signal.lazy_transform_us", lazy_us, "us", traced.sample.size());
  results->Check(sink > 0, "query_mixed: lazy-transform replay produced output");
  const size_t written =
      spans.WriteJsonLines(options.work_dir + "/spans-query_mixed.jsonl", 50000);
  results->Note("query_mixed: wrote " + std::to_string(written) + " benchmark spans");
}

}  // namespace aimsbench
