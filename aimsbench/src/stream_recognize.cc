// Workload stream_recognize: 4 clients in a closed loop, each with its own
// recognition session, push a scripted glove stream one frame per
// StreamSamples call, as a live glove does. A 10-sign vocabulary is
// registered during set-up. When a client's script ends it closes the
// session and starts the script again on a fresh one.

#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "linalg/eigen.h"
#include "recognition/similarity.h"
#include "synth/cyberglove.h"

namespace aimsbench {

namespace {

using aims::server::AimsServer;

constexpr size_t kClients = 4;

struct Sizes {
  /// Shuffled passes over the vocabulary in each client's script.
  size_t passes = 3;
  size_t setups = 25;
  /// Window of the windowed p50/p99/throughput summaries.
  double window_s = 1.0;
};

struct ClientScript {
  aims::streams::Recording stream;
  std::vector<aims::synth::SignSegment> truth;
};

struct Inputs {
  std::vector<std::pair<std::string, aims::linalg::Matrix>> vocabulary;
  std::vector<ClientScript> scripts;
};

struct PhaseResult {
  std::vector<TimedSample> frame_us;
  double timed_s = 0.0;
  size_t frames = 0;
  size_t events = 0;
  size_t events_correct = 0;
  TraceAggregate traces;
};

Inputs MakeInputs(const Options& options, const Sizes& sizes) {
  Inputs inputs;
  const std::vector<aims::synth::SignSpec> signs =
      aims::synth::DefaultAslVocabulary();
  aims::synth::CyberGloveSimulator reference_sim(signs, options.seed * 17 + 1);
  const aims::synth::SubjectProfile reference = ClientSubject(kClients);
  for (size_t s = 0; s < kVocabularySize; ++s) {
    auto rec = reference_sim.GenerateSign(s, reference);
    if (!rec.ok()) continue;
    inputs.vocabulary.emplace_back(signs[s].name, ToMatrix(*rec));
  }
  for (size_t c = 0; c < kClients; ++c) {
    aims::synth::CyberGloveSimulator sim(signs, options.seed * 101 + c);
    aims::Rng rng(options.seed * 7 + c);
    ClientScript cs;
    auto rec = sim.GenerateSequence(BalancedScript(&rng, sizes.passes),
                                    ClientSubject(c), 0.8, &cs.truth);
    if (rec.ok()) cs.stream = std::move(*rec);
    inputs.scripts.push_back(std::move(cs));
  }
  return inputs;
}

/// Whether \p event names the scripted sign it overlaps most.
bool EventMatchesScript(const aims::recognition::RecognitionEvent& event,
                        const ClientScript& script,
                        const std::vector<aims::synth::SignSpec>& signs) {
  size_t best_overlap = 0;
  const aims::synth::SignSegment* best = nullptr;
  for (const aims::synth::SignSegment& seg : script.truth) {
    const size_t lo = std::max(seg.start_frame, event.start_frame);
    const size_t hi = std::min(seg.end_frame, event.end_frame);
    if (hi > lo && hi - lo > best_overlap) {
      best_overlap = hi - lo;
      best = &seg;
    }
  }
  return best != nullptr && signs[best->sign_index].name == event.label;
}

std::unique_ptr<AimsServer> Setup(const Inputs& inputs, bool traced,
                                  Results* results) {
  auto server = std::make_unique<AimsServer>(BaseServerConfig(traced));
  for (const auto& [label, segment] : inputs.vocabulary) {
    if (!results->Check(server->AddVocabularyEntry(label, segment).ok(),
                        "stream_recognize: vocabulary entry registers")) {
      return nullptr;
    }
  }
  return server;
}

PhaseResult RunPhase(const Inputs& inputs, AimsServer* server, bool traced,
                     double seconds, SpanLog* spans, Results* results) {
  PhaseResult phase;
  phase.traces.KeepSamples("stream_samples/recognizer_update");
  const std::vector<aims::synth::SignSpec> signs =
      aims::synth::DefaultAslVocabulary();
  PauseGate gate(kClients);
  std::atomic<bool> stop{false};
  std::mutex merge;
  const Clock::time_point start = Clock::now();

  auto client = [&](size_t c) {
    const aims::server::ClientId id = c + 1;
    const ClientScript& script = inputs.scripts[c];
    std::vector<TimedSample> frame_us;
    size_t events = 0, correct = 0;
    // Frame attempts are tallied locally and handed over once, so the
    // load loop shares no lock with the other clients.
    size_t attempted_frames = 0;
    auto count_event = [&](const aims::recognition::RecognitionEvent& e) {
      ++events;
      if (EventMatchesScript(e, script, signs)) ++correct;
    };
    while (!stop.load(std::memory_order_relaxed)) {
      results->Attempt("open_session");
      if (auto opened = server->OpenSession({id, true}); !opened.ok()) {
        results->Failure("open_session", FailureKind(opened.status()));
        break;
      }
      for (const aims::streams::Frame& frame : script.stream.frames) {
        if (stop.load(std::memory_order_relaxed)) break;
        gate.Checkpoint();
        ++attempted_frames;
        aims::server::StreamSamplesRequest request{id, {frame}};
        const Clock::time_point f_start = Clock::now();
        auto pushed = server->StreamSamples(std::move(request));
        const Clock::time_point f_end = Clock::now();
        spans->Add(static_cast<uint32_t>(c), "client.stream_samples", f_start, f_end);
        if (!pushed.ok()) {
          results->Failure("stream_frame", FailureKind(pushed.status()));
          continue;
        }
        frame_us.push_back(TimedSample{
            std::chrono::duration<double>(f_end - start).count(),
            std::chrono::duration<double, std::micro>(f_end - f_start).count()});
        for (const auto& e : pushed->events) count_event(e);
      }
      results->Attempt("close_session");
      auto closed = server->CloseSession({id});
      if (!closed.ok()) {
        results->Failure("close_session", FailureKind(closed.status()));
      } else if (closed->final_event.has_value()) {
        count_event(*closed->final_event);
      }
    }
    gate.Leave();
    results->Attempt("stream_frame", attempted_frames);
    std::lock_guard<std::mutex> lock(merge);
    phase.frames += frame_us.size();
    phase.frame_us.insert(phase.frame_us.end(), frame_us.begin(), frame_us.end());
    phase.events += events;
    phase.events_correct += correct;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
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
  return phase;
}

}  // namespace

void RunStreamRecognize(const Options& options, Results* results) {
  Sizes sizes;
  if (options.tiny) {
    sizes.passes = 1;
    sizes.setups = 1;
  }
  const Inputs inputs = MakeInputs(options, sizes);
  results->Check(inputs.vocabulary.size() == kVocabularySize,
                 "stream_recognize: vocabulary templates generate");
  size_t frames = 0;
  for (const ClientScript& s : inputs.scripts) frames += s.stream.num_frames();
  results->Env("input.vocabulary", static_cast<double>(inputs.vocabulary.size()));
  results->Env("input.clients", static_cast<double>(kClients));
  results->Env("input.script_frames_total_x_channels",
               std::to_string(frames) + "x" +
                   std::to_string(inputs.scripts[0].stream.num_channels()));
  results->Env("input.signs_per_script", static_cast<double>(sizes.passes * kVocabularySize));
  results->Env("flush.sync_mode", "in-memory");

  SpanLog spans;
  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<AimsServer> server;
    for (size_t i = 0; i < sizes.setups; ++i) {
      if (server != nullptr) server->Shutdown();
      server.reset();
      ReleaseFreeMemory();
      const Clock::time_point begin = Clock::now();
      server = Setup(inputs, false, results);
      if (server == nullptr) return;
      setup_s.push_back(SecondsSince(begin));
    }
    PhaseResult phase =
        RunPhase(inputs, server.get(), false, options.seconds, &spans, results);
    server->Shutdown();
    const WindowSummary w =
        SummarizeWindows(phase.frame_us, phase.timed_s, sizes.window_s);
    results->Metric("setup_s", Median(setup_s), "s", setup_s.size());
    results->Metric("stream_frame_p50_us", w.p50, "us", w.samples);
    results->Metric("stream_frame_p99_us", w.p99, "us", w.samples);
    results->Metric("stream_frames_per_s", w.per_s, "1/s", w.samples);
    results->Metric("op_p50_ms", w.p50 / 1000.0, "ms", w.samples);
    results->Metric("op_p99_ms", w.p99 / 1000.0, "ms", w.samples);
    results->Metric("work_per_s", w.per_s, "1/s", w.samples);
    results->Check(phase.events > 0, "stream_recognize: recognition events fire");
    return;
  }

  std::unique_ptr<AimsServer> server = Setup(inputs, false, results);
  if (server == nullptr) return;
  PhaseResult plain =
      RunPhase(inputs, server.get(), false, options.seconds / 2, &spans, results);
  server->Shutdown();
  server = Setup(inputs, true, results);
  if (server == nullptr) return;
  spans.set_enabled(true);
  PhaseResult traced =
      RunPhase(inputs, server.get(), true, options.seconds / 2, &spans, results);
  server->Shutdown();

  const TraceAggregate& t = traced.traces;
  const size_t n = t.roots("stream_samples");
  results->Metric("obs.tracer_dropped", static_cast<double>(t.dropped()), "count", n);
  results->Check(t.dropped() == 0, "stream_recognize: traced run dropped no trace");
  const WindowSummary plain_w =
      SummarizeWindows(plain.frame_us, plain.timed_s, sizes.window_s);
  const WindowSummary traced_w =
      SummarizeWindows(traced.frame_us, traced.timed_s, sizes.window_s);
  results->Metric("obs.trace_overhead_frac", traced_w.p50 / plain_w.p50 - 1.0,
                  "ratio", traced_w.samples);
  TraceAggregate::Stat update = t.Get("stream_samples/recognizer_update");
  const double update_mean_us =
      update.count == 0 ? 0.0 : 1000.0 * update.total_ms / static_cast<double>(update.count);
  double call_us = 0.0;
  for (const TimedSample& f : traced.frame_us) call_us += f.value;
  call_us /= static_cast<double>(std::max<size_t>(traced.frame_us.size(), 1));
  results->Metric("server.stream.call_overhead_us", call_us - update_mean_us,
                  "us", traced.frame_us.size());
  std::vector<double> update_us = update.samples_ms;
  for (double& v : update_us) v *= 1000.0;
  results->Metric("recognition.update_us.p50", Quantile(&update_us, 0.5), "us", update_us.size());
  results->Metric("recognition.update_us.p99", Quantile(&update_us, 0.99), "us", update_us.size());
  const size_t all_events = plain.events + traced.events;
  const size_t all_frames = plain.frames + traced.frames;
  results->Metric("recognition.events_per_kframe",
                  1000.0 * static_cast<double>(all_events) /
                      static_cast<double>(std::max<size_t>(all_frames, 1)),
                  "count", all_frames);
  results->Metric("recognition.event_accuracy",
                  all_events == 0 ? 0.0
                                  : static_cast<double>(plain.events_correct +
                                                        traced.events_correct) /
                                        static_cast<double>(all_events),
                  "ratio", all_events);
  results->Check(all_events > 0, "stream_recognize: recognition events fire");

  // Replays: the weighted-SVD similarity of scripted sign windows against
  // every template, and the eigendecomposition of the windows' 28x28
  // covariances.
  std::vector<aims::linalg::Matrix> windows;
  for (const ClientScript& s : inputs.scripts) {
    for (const aims::synth::SignSegment& seg : s.truth) {
      windows.push_back(ToMatrix(s.stream, seg.start_frame, seg.end_frame - seg.start_frame));
    }
  }
  const aims::recognition::WeightedSvdSimilarity measure;
  const size_t pairs = windows.size() * inputs.vocabulary.size();
  double sink = 0.0;
  Clock::time_point replay_start = Clock::now();
  const double similarity_us = ReplayMeanUs(pairs, [&](size_t i) {
    auto sim = measure.Similarity(windows[i / inputs.vocabulary.size()],
                                  inputs.vocabulary[i % inputs.vocabulary.size()].second);
    sink += sim.ok() ? *sim : 0.0;
  });
  spans.Add(0, "replay.similarity", replay_start, Clock::now());
  std::vector<aims::linalg::Matrix> covariances;
  for (const aims::linalg::Matrix& w : windows) covariances.push_back(w.ColumnCovariance());
  replay_start = Clock::now();
  const double eigen_us = ReplayMeanUs(covariances.size(), [&](size_t i) {
    auto eig = aims::linalg::SymmetricEigen(covariances[i]);
    sink += eig.ok() ? eig->values.front() : 0.0;
  });
  spans.Add(0, "replay.symmetric_eigen", replay_start, Clock::now());
  results->Metric("recognition.similarity_us", similarity_us, "us", pairs);
  results->Metric("linalg.symmetric_eigen_us", eigen_us, "us", covariances.size());
  results->Check(sink != 0.0, "stream_recognize: replays produced output");
  const size_t written =
      spans.WriteJsonLines(options.work_dir + "/spans-stream_recognize.jsonl", 50000);
  results->Note("stream_recognize: wrote " + std::to_string(written) + " benchmark spans");
}

}  // namespace aimsbench
