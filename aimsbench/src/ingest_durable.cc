// Workload ingest_durable: 4 clients in a closed loop ingest 28-channel,
// 1024-frame, 100 Hz glove recordings into a durable store (file block
// device + WAL, fsync per commit, default group-commit and checkpoint
// settings). Each round starts from a fresh store and runs a fixed number
// of ingests, so the cost that grows with the catalog shows the same way
// in every round; rounds repeat until the measured time is spent. Set-up
// here is what a restart costs: reopening (recovering) a round's store.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "signal/dwpt.h"
#include "signal/dwt.h"
#include "storage/tslife.h"

namespace aimsbench {

namespace {

namespace fs = std::filesystem;
using aims::server::AimsServer;
using aims::server::GlobalSessionId;

constexpr size_t kClients = 4;

struct Sizes {
  size_t frames = 1024;
  size_t ingests_per_round = 96;
  size_t pool = 32;
};

Sizes MakeSizes(bool tiny) {
  Sizes sizes;
  if (tiny) {
    sizes.frames = 256;
    sizes.ingests_per_round = 8;
    sizes.pool = 4;
  }
  return sizes;
}

struct Acked {
  GlobalSessionId session = 0;
  size_t recording = 0;  // index into the input pool
};

/// What one phase (untraced or traced) measured.
struct PhaseResult {
  /// Recovery opens of each round's store.
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  // Per round: p50, p99 and frames per second.
  std::vector<double> round_p50_ms;
  std::vector<double> round_p99_ms;
  std::vector<double> round_frames_per_s;
  std::vector<double> late_over_early;
  std::vector<double> stored_ratio;
  std::vector<double> lock_p99_ms;
  double timed_s = 0.0;
  size_t frames = 0;
  size_t ingests = 0;
  double input_bytes = 0.0;
  aims::obs::WalStats wal;
  uint64_t blocks_written = 0;
  TraceAggregate traces;
};

size_t DirectoryBytes(const fs::path& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

aims::server::ServerConfig DurableConfig(const std::string& path,
                                         bool traced) {
  aims::server::ServerConfig config = BaseServerConfig(traced);
  config.system.durability.path = path;
  return config;
}

/// Opens a server on \p path and the load clients' sessions; returns null
/// (after recording the failed check) when the store cannot open.
std::unique_ptr<AimsServer> OpenServer(const std::string& path, bool traced,
                                       Results* results) {
  auto server = std::make_unique<AimsServer>(DurableConfig(path, traced));
  if (!results->Check(server->catalog().init_status().ok(),
                      "ingest_durable: store opens at " + path)) {
    return nullptr;
  }
  for (size_t c = 0; c < kClients; ++c) {
    if (!results->Check(server->OpenSession({c + 1, false}).ok(),
                        "ingest_durable: session opens")) {
      return nullptr;
    }
  }
  return server;
}

/// Reopens the cleanly shut down store and checks every acknowledged
/// session: present, with its frame and channel counts, and a sample of
/// its ranges equal to the input. Returns the seconds the open (recovery)
/// took.
double VerifyReopen(const std::string& path,
                  const std::vector<aims::streams::Recording>& pool,
                  const std::vector<std::vector<std::vector<double>>>& columns,
                  const std::vector<Acked>& acked, uint64_t seed,
                  Results* results) {
  const Clock::time_point open_start = Clock::now();
  AimsServer server(DurableConfig(path, false));
  const bool opened = server.catalog().init_status().ok();
  const double open_s = SecondsSince(open_start);
  if (!results->Check(opened,
                      "ingest_durable: store recovers after clean shutdown")) {
    return open_s;
  }
  results->Check(server.catalog().total_sessions() == acked.size(),
                 "ingest_durable: recovered session count equals acked (" +
                     std::to_string(acked.size()) + ")");
  const aims::server::ClientId checker = 1000;
  if (!results->Check(server.OpenSession({checker, false}).ok(),
                      "ingest_durable: checker session opens")) {
    return open_s;
  }
  aims::Rng rng(seed ^ 0x5eedULL);
  size_t missing = 0;
  size_t bad_shape = 0;
  size_t bad_range = 0;
  for (const Acked& a : acked) {
    const aims::streams::Recording& rec = pool[a.recording];
    auto info = server.catalog().GetSession(a.session);
    if (!info.ok()) {
      ++missing;
      continue;
    }
    if (info->num_frames != rec.num_frames() ||
        info->num_channels != rec.num_channels()) {
      ++bad_shape;
      continue;
    }
    for (int q = 0; q < 2; ++q) {
      aims::server::QueryRequest query;
      query.session = a.session;
      query.channel = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rec.num_channels()) - 1));
      query.first_frame = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rec.num_frames()) - 1));
      query.last_frame = static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(query.first_frame),
          static_cast<int64_t>(rec.num_frames()) - 1));
      auto submitted = server.SubmitQuery({checker, query});
      if (!submitted.ok()) {
        ++bad_range;
        continue;
      }
      aims::server::QueryOutcome outcome = submitted->ticket->Wait();
      const ExactSum exact =
          SumRange(columns[a.recording][query.channel], query.first_frame,
                   query.last_frame);
      if (outcome.state != aims::server::QueryState::kComplete ||
          std::fabs(outcome.answer.sum - exact.sum) >
              1e-9 * std::max(std::fabs(exact.sum), exact.abs_sum)) {
        ++bad_range;
      }
    }
  }
  results->Check(missing == 0, "ingest_durable: every acked session present "
                               "after reopen (missing " +
                                   std::to_string(missing) + ")");
  results->Check(bad_shape == 0,
                 "ingest_durable: frame and channel counts survive reopen "
                 "(mismatched " + std::to_string(bad_shape) + ")");
  results->Check(bad_range == 0,
                 "ingest_durable: sampled ranges match the input after reopen "
                 "(mismatched " + std::to_string(bad_range) + ")");
  server.Shutdown();
  return open_s;
}

/// Runs rounds until \p seconds of ingest time are measured.
PhaseResult RunPhase(const Options& options, const Sizes& sizes, bool traced,
                     double seconds,
                     const std::vector<aims::streams::Recording>& pool,
                     const std::vector<std::vector<std::vector<double>>>& columns,
                     SpanLog* spans, Results* results) {
  PhaseResult phase;
  size_t round_index = 0;
  while (phase.timed_s < seconds) {
    const fs::path dir = fs::path(options.work_dir) /
                         ("ingest_store_" + std::to_string(::getpid()) + "_" +
                          std::to_string(round_index++));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);

    std::unique_ptr<AimsServer> server = OpenServer(dir.string(), traced, results);
    if (server == nullptr) return phase;

    // Closed loop: each client ingests its share back to back.
    std::vector<std::vector<double>> latency(kClients);
    std::vector<std::vector<Acked>> acked(kClients);
    std::atomic<size_t> next{0};
    const Clock::time_point round_start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (true) {
          const size_t k = next.fetch_add(1);
          if (k >= sizes.ingests_per_round) break;
          const size_t idx = (k * 7 + round_index) % pool.size();
          results->Attempt("ingest");
          const Clock::time_point start = Clock::now();
          auto stored = server->IngestRecording(
              {c + 1, "rec_" + std::to_string(k), pool[idx]});
          const Clock::time_point end = Clock::now();
          spans->Add(static_cast<uint32_t>(c), "client.ingest", start, end);
          if (!stored.ok()) {
            results->Failure("ingest", FailureKind(stored.status()));
            continue;
          }
          latency[c].push_back(MsBetween(start, end));
          acked[c].push_back(Acked{stored->session, idx});
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double round_s = SecondsSince(round_start);

    std::vector<double> round_latency;
    std::vector<Acked> round_acked;
    for (size_t c = 0; c < kClients; ++c) {
      round_latency.insert(round_latency.end(), latency[c].begin(),
                           latency[c].end());
      round_acked.insert(round_acked.end(), acked[c].begin(), acked[c].end());
    }
    // Growth with the catalog: per client, mean of the last quarter of its
    // ingests over the first quarter.
    double early = 0.0, late = 0.0;
    for (size_t c = 0; c < kClients; ++c) {
      const size_t n = latency[c].size();
      const size_t q = std::max<size_t>(1, n / 4);
      if (n < 2) continue;
      for (size_t i = 0; i < q; ++i) {
        early += latency[c][i];
        late += latency[c][n - 1 - i];
      }
    }
    if (early > 0.0) phase.late_over_early.push_back(late / early);

    size_t round_frames = 0;
    for (const Acked& a : round_acked) round_frames += pool[a.recording].num_frames();
    phase.frames += round_frames;
    phase.ingests += round_acked.size();
    phase.input_bytes += static_cast<double>(round_frames) *
                         static_cast<double>(pool[0].num_channels()) *
                         sizeof(double);
    phase.timed_s += round_s;
    phase.latency_ms.insert(phase.latency_ms.end(), round_latency.begin(),
                            round_latency.end());
    phase.round_p50_ms.push_back(Quantile(&round_latency, 0.5));
    phase.round_p99_ms.push_back(Quantile(&round_latency, 0.99));
    phase.round_frames_per_s.push_back(static_cast<double>(round_frames) / round_s);

    // Counters of this round's server (fresh per round, so absolute).
    auto health = server->GetHealth({});
    if (health.ok()) phase.wal.Accumulate(health->wal);
    auto usage = server->GetTenantUsage({});
    if (usage.ok()) phase.blocks_written += usage->total.blocks_written;
    auto shards = server->GetShardStats({});
    if (shards.ok()) {
      double worst = 0.0;
      for (const auto& s : shards->shards) worst = std::max(worst, s.lock_wait_p99_ms);
      phase.lock_p99_ms.push_back(worst);
    }
    if (traced) phase.traces.DrainFrom(server->tracer());
    server->Shutdown();
    server.reset();
    ReleaseFreeMemory();

    phase.stored_ratio.push_back(
        static_cast<double>(DirectoryBytes(dir)) /
        (static_cast<double>(round_frames) *
         static_cast<double>(pool[0].num_channels()) * sizeof(double)));
    phase.setup_s.push_back(VerifyReopen(dir.string(), pool, columns, round_acked,
                                         options.seed + round_index, results));
    fs::remove_all(dir, ec);
  }
  return phase;
}

}  // namespace

void RunIngestDurable(const Options& options, Results* results) {
  const Sizes sizes = MakeSizes(options.tiny);
  // Inputs: distinct windows of one long seeded glove session.
  const aims::streams::Recording session =
      GloveSession(options.seed, sizes.frames * (sizes.pool + 2));
  aims::Rng rng(options.seed * 31 + 7);
  std::vector<aims::streams::Recording> pool;
  std::vector<std::vector<std::vector<double>>> columns;
  for (size_t i = 0; i < sizes.pool; ++i) {
    const size_t start = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(session.num_frames() - sizes.frames)));
    pool.push_back(Slice(session, start, sizes.frames));
    std::vector<std::vector<double>> cols;
    for (size_t c = 0; c < pool.back().num_channels(); ++c) {
      cols.push_back(pool.back().Channel(c));
    }
    columns.push_back(std::move(cols));
  }

  const aims::core::DurabilityConfig flush = DurableConfig("", false).system.durability;
  results->Env("input.frames_x_channels",
               std::to_string(sizes.frames) + "x" +
                   std::to_string(pool[0].num_channels()));
  results->Env("input.ingests_per_round", static_cast<double>(sizes.ingests_per_round));
  results->Env("input.clients", static_cast<double>(kClients));
  results->Env("flush.sync_mode",
               flush.sync_mode == aims::storage::durable::WalSyncMode::kFsync
                   ? "fsync"
                   : "none");
  results->Env("flush.group_commit_ms", flush.group_commit_ms);
  results->Env("flush.checkpoint_wal_bytes",
               static_cast<double>(flush.checkpoint_wal_bytes));

  SpanLog spans;
  if (!options.trace) {
    PhaseResult phase = RunPhase(options, sizes, false, options.seconds, pool,
                                 columns, &spans, results);
    // Medians over rounds: each round is the same fixed-length job.
    const size_t n = phase.latency_ms.size();
    const double p50 = Median(phase.round_p50_ms);
    const double p99 = Median(phase.round_p99_ms);
    const double rate = Median(phase.round_frames_per_s);
    results->Metric("setup_s", Median(phase.setup_s), "s", phase.setup_s.size());
    results->Metric("ingest_p50_ms", p50, "ms", n);
    results->Metric("ingest_p99_ms", p99, "ms", n);
    results->Metric("ingest_frames_per_s", rate, "1/s", phase.frames);
    results->Metric("stored_bytes_per_input_byte", Median(phase.stored_ratio),
                    "ratio", phase.stored_ratio.size());
    results->Metric("op_p50_ms", p50, "ms", n);
    results->Metric("op_p99_ms", p99, "ms", n);
    results->Metric("work_per_s", rate, "1/s", phase.frames);
    return;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half whose spans give the per-layer numbers.
  PhaseResult plain = RunPhase(options, sizes, false, options.seconds / 2, pool,
                               columns, &spans, results);
  spans.set_enabled(true);
  PhaseResult traced = RunPhase(options, sizes, true, options.seconds / 2, pool,
                                columns, &spans, results);

  {
    results->Metric("e2e.ingest_p50_ms", Median(plain.round_p50_ms), "ms",
                    plain.latency_ms.size());
    results->Metric("e2e.ingest_p99_ms", Median(plain.round_p99_ms), "ms",
                    plain.latency_ms.size());
    results->Metric("e2e.stored_bytes_per_input_byte",
                    Median(plain.stored_ratio), "ratio",
                    plain.stored_ratio.size());
    results->Metric("obs.trace_overhead_frac",
                    Median(traced.round_p50_ms) / Median(plain.round_p50_ms) - 1.0,
                    "ratio", traced.latency_ms.size());
  }
  const TraceAggregate& t = traced.traces;
  const size_t n = t.roots("ingest");
  results->Metric("obs.tracer_dropped", static_cast<double>(t.dropped()), "count", n);
  results->Check(t.dropped() == 0, "ingest_durable: traced run dropped no trace");
  results->Metric("server.ingest.queue_wait_ms", t.PerRootMs("ingest/queue_wait", "ingest"), "ms", n);
  results->Metric("server.shard_lock_wait_ms.ingest", t.PerRootMs("ingest/shard_lock", "ingest"), "ms", n);
  results->Metric("server.shard_apply_lock_wait_ms", t.PerRootMs("ingest/shard_apply_lock", "ingest"), "ms", n);
  results->Metric("server.shard_lock_wait_p99_ms", Median(traced.lock_p99_ms), "ms", traced.lock_p99_ms.size());
  results->Metric("core.ingest.unspanned_ms", t.SelfPerRootMs("ingest/ingest", "ingest"), "ms", n);
  results->Metric("core.ingest.late_over_early", Median(traced.late_over_early), "ratio", traced.late_over_early.size());
  results->Metric("signal.transform_ms", t.PerRootMs("ingest/transform", "ingest"), "ms", n);
  results->Metric("storage.block_write_ms", t.PerRootMs("ingest/block_write", "ingest"), "ms", n);
  results->Metric("storage.wal_sync_ms", t.PerRootMs("ingest/wal_sync", "ingest"), "ms", n);
  const double ingests = static_cast<double>(std::max<size_t>(traced.ingests, 1));
  results->Metric("storage.wal.syncs_per_commit",
                  traced.wal.commits == 0 ? 0.0
                                          : static_cast<double>(traced.wal.syncs) /
                                                static_cast<double>(traced.wal.commits),
                  "ratio", traced.wal.commits);
  results->Metric("storage.wal.checkpoints_per_ingest",
                  static_cast<double>(traced.wal.checkpoints) / ingests, "ratio",
                  traced.ingests);
  results->Metric("storage.wal.bytes_per_input_byte",
                  static_cast<double>(traced.wal.bytes_appended) /
                      std::max(traced.input_bytes, 1.0),
                  "ratio", traced.ingests);
  results->Metric("storage.blocks_written_per_ingest",
                  static_cast<double>(traced.blocks_written) / ingests, "count",
                  traced.ingests);

  // Replays of the ingest kernels on the same inputs, after the timed
  // phases. One call per (recording, channel) of the pool.
  const aims::signal::WaveletFilter filter =
      aims::signal::WaveletFilter::Make(aims::signal::WaveletKind::kDb2);
  std::vector<std::vector<double>> centered;
  std::vector<std::pair<size_t, size_t>> channels;
  for (size_t r = 0; r < pool.size(); ++r) {
    for (size_t c = 0; c < columns[r].size(); ++c) {
      const std::vector<double>& col = columns[r][c];
      size_t padded = 1;
      while (padded < col.size()) padded <<= 1;
      double mean = 0.0;
      for (double v : col) mean += v;
      mean /= static_cast<double>(col.size());
      std::vector<double> x(padded, 0.0);
      for (size_t i = 0; i < col.size(); ++i) x[i] = col[i] - mean;
      centered.push_back(std::move(x));
      channels.emplace_back(r, c);
    }
  }
  std::vector<int64_t> t_us;
  for (const aims::streams::Frame& f : pool[0].frames) {
    t_us.push_back(static_cast<int64_t>(std::llround(f.timestamp * 1e6)));
  }
  size_t sink = 0;
  auto timed = [&](const char* name, const std::function<void(size_t)>& fn) {
    const Clock::time_point start = Clock::now();
    const double us = ReplayMeanUs(centered.size(), fn);
    spans.Add(0, name, start, Clock::now());
    return us;
  };
  results->Metric("signal.forward_dwt_us", timed("replay.forward_dwt", [&](size_t i) {
    auto out = aims::signal::ForwardDwt(filter, centered[i]);
    sink += out.ok() ? out->size() : 0;
  }), "us", centered.size());
  results->Metric("signal.dwpt_build_us", timed("replay.dwpt_build", [&](size_t i) {
    auto tree = aims::signal::WaveletPacketTree::Build(filter, centered[i], 6);
    sink += tree.ok() ? tree->depth() : 0;
  }), "us", centered.size());
  results->Metric("storage.tslife.build_segments_us", timed("replay.build_segments", [&](size_t i) {
    const auto [r, c] = channels[i];
    sink += aims::storage::tslife::BuildSegments(c, t_us, columns[r][c], 100.0, 4096).size();
  }), "us", centered.size());
  results->Check(sink > 0, "ingest_durable: replays produced output");
  const size_t written = spans.WriteJsonLines(
      (fs::path(options.work_dir) / "spans-ingest_durable.jsonl").string(), 50000);
  results->Note("ingest_durable: wrote " + std::to_string(written) +
                " benchmark spans");
}

}  // namespace aimsbench
