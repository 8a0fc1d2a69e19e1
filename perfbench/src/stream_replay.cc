// stream_replay: telekit_streamd's event -> verdict path in process. An
// alarm/KPI/signaling stream built with synth::ScheduleEpisodes and
// BuildReplayStream is replayed as fast as possible (sync mode, the mode
// the program picks at infinite speed-up) through StreamPipeline at one
// compute thread. Each pass replays the same stream into a fresh engine,
// so no pass finds an earlier pass's vectors in the cache.
//
// Timing: a pass is cut at each verdict (sync mode delivers it before the
// next event is read), so segment i is the sessionizing since verdict i-1
// plus episode i's analysis, the same work in every pass. The rate is the
// episodes of a pass over the sum of each segment's lowest time in any
// pass; the latency is the median of each episode's lowest flush->verdict
// time. See the timing rule in bench.h.
//
// Output checks: analysed + shed == flushed; one verdict per flushed
// episode; the sessionizer saw every generated event; every pass's
// verdicts equal the first pass's; and each verdict's RCA list equals a
// fresh Process of its query on a separate, cache-less engine.
#include <unistd.h>

#include <memory>

#include "bench.h"
#include "core/model_zoo.h"
#include "inputs.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "tensor/compute_pool.h"

namespace perfbench {

namespace {

std::unique_ptr<telekit::serve::ServeEngine> FreshEngine(
    const telekit::core::ServiceEncoder& service,
    const std::vector<std::string>& catalogue, bool cache) {
  telekit::serve::EngineOptions options;
  options.num_workers = 1;  // sync mode never queues
  options.compute_threads = 1;
  options.enable_cache = cache;
  auto engine =
      std::make_unique<telekit::serve::ServeEngine>(&service, options);
  for (telekit::serve::TaskOp op :
       {telekit::serve::TaskOp::kRca, telekit::serve::TaskOp::kEap,
        telekit::serve::TaskOp::kFct}) {
    engine->LoadCatalog(op, catalogue);
  }
  return engine;
}

bool SameResults(const telekit::serve::Response& a,
                 const telekit::serve::Response& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].name != b.results[i].name ||
        a.results[i].score != b.results[i].score) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunStreamReplay(const RunOptions& options, Checker* checker,
                     RunResult* result) {
  telekit::tensor::SetComputeThreads(1);
  telekit::core::ModelZoo zoo(ServingZooConfig(options.seed));
  zoo.BuildData();
  zoo.BuildPretrained();
  telekit::core::TeleBertEncoder encoder(&zoo.telebert());
  telekit::core::ServiceEncoder service(&encoder, &zoo.tokenizer(),
                                        &zoo.store(), &zoo.normalizer());
  std::vector<std::string> catalogue;
  for (const auto& alarm : zoo.world().alarms()) catalogue.push_back(alarm.name);
  const ReplayInputs replay = BuildReplay(zoo, options.seed, kReplayEpisodes);
  auto engine = FreshEngine(service, catalogue, /*cache=*/true);
  const double setup_s = SecondsSince(options.process_start);

  telekit::stream::PipelineConfig config;
  config.deterministic = true;
  std::vector<telekit::stream::EpisodeVerdict> first_pass;
  std::vector<telekit::stream::EpisodeVerdict> verdicts;
  PassLog log;
  ItemMinima segment_ms;
  ItemMinima detect_min_ms;
  std::vector<Clock::time_point> cuts;
  uint64_t episodes_per_pass = 0;
  const Clock::time_point timed_start = Clock::now();
  for (int pass = 0; pass < 2 || SecondsSince(timed_start) < options.seconds;
       ++pass) {
    if (pass > 0) engine = FreshEngine(service, catalogue, /*cache=*/true);
    telekit::stream::StreamPipeline pipeline(zoo.world(), engine.get(),
                                             config);
    verdicts.clear();
    cuts.clear();
    cuts.push_back(Clock::now());
    const telekit::stream::PipelineSummary summary = pipeline.Run(
        replay.events,
        [&verdicts, &cuts](telekit::stream::EpisodeVerdict verdict) {
          verdicts.push_back(std::move(verdict));
          cuts.push_back(Clock::now());
        });
    cuts.push_back(Clock::now());
    const double wall_ms = MsBetween(cuts.front(), cuts.back());

    const uint64_t flushed = summary.sessionizer.episodes_flushed;
    result->attempted += flushed;
    result->failed += summary.episodes_shed;
    checker->Expect(
        summary.episodes_analysed + summary.episodes_shed == flushed,
        "analysed + shed != flushed");
    checker->Expect(verdicts.size() == flushed,
                    "verdicts delivered != episodes flushed");
    checker->Expect(summary.sessionizer.events == replay.events.size(),
                    "sessionizer events != generated events");
    std::vector<double> detect_ms;
    for (const auto& verdict : verdicts) detect_ms.push_back(verdict.detect_ms);
    if (pass == 0) {
      // The first pass is the warm-up and the reference for the others.
      first_pass = verdicts;
      episodes_per_pass = flushed;
      continue;
    }
    bool same = verdicts.size() == first_pass.size();
    for (size_t i = 0; same && i < verdicts.size(); ++i) {
      same = verdicts[i].query == first_pass[i].query &&
             SameResults(verdicts[i].rca, first_pass[i].rca) &&
             SameResults(verdicts[i].eap, first_pass[i].eap) &&
             SameResults(verdicts[i].fct, first_pass[i].fct);
    }
    checker->Expect(same, "pass " + std::to_string(pass) +
                              " verdicts differ from the first pass");
    std::vector<double> segments;
    for (size_t i = 1; i < cuts.size(); ++i) {
      segments.push_back(MsBetween(cuts[i - 1], cuts[i]));
    }
    checker->Expect(segment_ms.Add(segments) && detect_min_ms.Add(detect_ms),
                    "pass " + std::to_string(pass) +
                        " has another episode count than the first");
    log.Add(flushed, wall_ms, std::move(detect_ms));
  }
  const double peak_rss_mb = PeakRssMb(static_cast<int>(::getpid()));

  // Each verdict's RCA list against a fresh Process of its query.
  auto reference = FreshEngine(service, catalogue, /*cache=*/false);
  for (const auto& verdict : first_pass) {
    checker->Expect(verdict.ok, "episode shed: " + verdict.query);
    telekit::serve::Request request;
    request.op = telekit::serve::TaskOp::kRca;
    request.text = verdict.query;
    request.top_k = config.top_k;
    const telekit::serve::Response fresh = reference->Process(request);
    checker->Expect(fresh.status.ok() && SameResults(fresh, verdict.rca),
                    "verdict RCA differs from a fresh Process: " +
                        verdict.query);
  }

  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
  result->Add("ops_per_s",
              1000.0 * static_cast<double>(episodes_per_pass) /
                  segment_ms.SumMs(),
              "1/s");
  result->Add("op_p50_ms", detect_min_ms.MedianMs(), "ms");
  result->Note("stream_replay.passes", log.passes());
  result->Note("stream_replay.best_pass_rate_per_s", log.BestRate());
  result->Note("stream_replay.best_pass_p50_ms", log.BestP50());
  result->Note("stream_replay.quartile_pass_rate_per_s", log.QuartileRate());
  result->Note("stream_replay.quartile_pass_p50_ms", log.QuartileP50());
  result->Note("stream_replay.events_per_pass",
               static_cast<double>(replay.events.size()));
  result->Note("stream_replay.episodes_per_pass",
               static_cast<double>(episodes_per_pass));
  result->Note("stream_replay.mean_episodes_per_s", log.MeanRate());
  result->Note("stream_replay.pooled_detect_p50_ms", log.PooledQuantile(0.5));
  result->Note("stream_replay.pooled_detect_p99_ms", log.PooledQuantile(0.99));
}

}  // namespace perfbench
