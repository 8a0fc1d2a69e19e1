// The traced run: times calls into each layer's public functions, from the
// benchmark's own code, on the same seeded inputs as the workloads, and
// reports every per-layer metric. It is a separate run from the untraced
// ones, so the end-to-end metrics never carry its timers.
//
// Serving layers are timed the way telekit_serve runs (1 compute thread):
// the serve mix is sent through four paths of decreasing depth, each with
// fresh cold texts, and the differences of their fast-quartile pass-median
// round trips split a request's time into the router hop, the wire, the queue
// and batcher, and ServeEngine::Process itself. The training layers run at
// nproc compute threads, as the pretrain workload does.
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "core/model_zoo.h"
#include "daemons.h"
#include "inputs.h"
#include "obs/json.h"
#include "serve/model_host.h"
#include "serve/protocol.h"
#include "serve_rpc.h"
#include "stream/sessionizer.h"
#include "tasks/scoring.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace perfbench {

namespace {

namespace json = telekit::obs;
using telekit::serve::TaskOp;

/// Bound on |tokenize + encode_b1 + topk - process| / process, the check
/// that the single-layer timings account for ServeEngine::Process.
constexpr double kProcessSumBound = 0.25;

/// The serve mix as in-process requests, with fresh cold texts per pass.
class MixRequests {
 public:
  MixRequests(TextSupply* texts, uint64_t seed)
      : texts_(texts), slots_(ServeMixPass(seed, kMixClients)) {}

  /// Fills `pass` with the next pass's requests (slot order).
  void Next(std::vector<telekit::serve::Request>* pass) {
    pass->clear();
    for (const MixSlot& slot : slots_) {
      telekit::serve::Request request;
      telekit::serve::ParseTaskOp(slot.op, &request.op);
      request.text = slot.cold
                         ? texts_->NextCold()
                         : texts_->hot()[static_cast<size_t>(slot.hot_index)];
      request.top_k = slot.top_k;
      pass->push_back(std::move(request));
    }
  }

 private:
  TextSupply* texts_;
  std::vector<MixSlot> slots_;
};

/// Lower-quartile pass median of the serve mix through an in-process call
/// (`call(request) -> Response`), from kMixClients threads.
template <typename Call>
double InProcessPath(double seconds, MixRequests* mix, uint64_t* attempted,
                     uint64_t* failed, Call&& call) {
  std::vector<telekit::serve::Request> pass;
  std::vector<char> ok;
  PassLog log;
  RunClosedLoop(
      kMixClients, kSlotsPerClient, seconds, /*warmup=*/1, &log,
      [&](int) {
        for (char o : ok) {
          ++*attempted;
          if (!o) ++*failed;
        }
        mix->Next(&pass);
        ok.assign(pass.size(), 0);
      },
      [&](int client, int i) {
        const size_t slot = static_cast<size_t>(client) * kSlotsPerClient +
                            static_cast<size_t>(i);
        ok[slot] = call(pass[slot]).status.ok() ? 1 : 0;
      });
  for (char o : ok) {
    ++*attempted;
    if (!o) ++*failed;
  }
  return log.QuartileP50();
}

/// Median of per-call times (ms) of `body(i)` for i = 0, 1, ... until
/// `seconds` pass or `limit` calls are made.
template <typename Fn>
double MedianMs(double seconds, size_t limit, Fn&& body) {
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < limit && (i < 5 || SecondsSince(start) < seconds);
       ++i) {
    const Clock::time_point t0 = Clock::now();
    body(i);
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(std::move(ms));
}

}  // namespace

void RunTraced(const RunOptions& options, Checker* checker,
               RunResult* result) {
  const double s = options.seconds;
  telekit::tensor::SetComputeThreads(1);

  // The serving stack, built in process exactly as telekit_serve builds it.
  auto zoo = std::make_shared<telekit::core::ModelZoo>(
      ServingZooConfig(options.seed));
  telekit::serve::EngineOptions engine_options;
  engine_options.num_workers = 2;
  engine_options.compute_threads = 1;
  telekit::serve::BundleIndexOptions index_options;
  index_options.enable = true;
  index_options.hnsw.ef_search = 32;
  auto built = telekit::serve::BuildModelBundle("telebert", zoo,
                                                engine_options, index_options);
  if (!built.ok()) {
    checker->Expect(false, "BuildModelBundle: " + built.status().ToString());
    return;
  }
  const std::shared_ptr<telekit::serve::ModelBundle> bundle = *built;
  const telekit::core::ServiceEncoder& service = *bundle->service;
  telekit::serve::ServeEngine& engine = *bundle->engine;
  const telekit::index::CorpusIndex& index = *bundle->index;
  TextSupply texts(zoo->world(), service, options.seed);

  Fleet fleet;
  std::string error;
  if (!StartFleet(options.bin_dir, options.work_dir, options.seed,
                  MixRequestLine(0, MixTraceId(options.seed, 0), "encode",
                                 texts.hot()[0], 5),
                  &fleet, &error)) {
    checker->Expect(false, error);
    return;
  }

  // --- route / serve: four paths over the same mix ------------------------
  uint64_t next_id = 1;
  std::vector<Sent> routed, direct;
  PassLog router_log, direct_log;
  if (!DriveMix(fleet.router_port, 0.12 * s, options.seed, &texts, &next_id,
                &routed, &router_log, &error) ||
      !DriveMix(fleet.serve_port, 0.12 * s, options.seed, &texts, &next_id,
                &direct, &direct_log, &error)) {
    checker->Expect(false, error);
    return;
  }
  fleet.Stop();
  const double router_ms = router_log.QuartileP50();
  const double direct_ms = direct_log.QuartileP50();
  // Batch sizes and cache hits are taken from the routed responses only.
  ServeChecks routed_checks, direct_checks;
  for (const Sent& request : routed) {
    json::JsonValue response;
    routed_checks.CheckEnvelope(request, &response, checker);
  }
  for (const Sent& request : direct) {
    json::JsonValue response;
    direct_checks.CheckEnvelope(request, &response, checker);
  }
  result->attempted += routed.size() + direct.size();
  result->failed += routed_checks.failed + direct_checks.failed;
  MixRequests mix(&texts, options.seed);
  const double submit_ms = InProcessPath(
      0.12 * s, &mix, &result->attempted, &result->failed,
      [&engine](const telekit::serve::Request& request) {
        return engine.Submit(request).get();
      });
  const double process_mix_ms = InProcessPath(
      0.12 * s, &mix, &result->attempted, &result->failed,
      [&engine](const telekit::serve::Request& request) {
        return engine.Process(request);
      });

  // --- one uncached request, layer by layer -------------------------------
  std::vector<std::string> catalogue;
  for (const auto& alarm : zoo->world().alarms()) catalogue.push_back(alarm.name);
  const std::vector<std::vector<float>> catalogue_vectors =
      service.EncodeBatch(catalogue, telekit::core::ServiceMode::kEntityNoAttr);
  std::vector<std::string> cold;
  for (int i = 0; i < 2000; ++i) cold.push_back(texts.NextCold());
  std::vector<telekit::text::EncodedInput> inputs(cold.size());
  std::vector<std::vector<float>> vectors(cold.size());
  // Interleaved per text, so a slow phase of the host hits the whole-call
  // timing and the single-layer timings alike.
  std::vector<double> process_ms_all, tokenize_ms_all, encode_ms_all,
      topk_ms_all;
  size_t encoded = 0;
  {
    const Clock::time_point start = Clock::now();
    for (; encoded < cold.size() &&
           (encoded < 20 || SecondsSince(start) < 0.1 * s);
         ++encoded) {
      const size_t i = encoded;
      telekit::serve::Request request;
      request.op = TaskOp::kRca;
      request.text = cold[i];
      const Clock::time_point t0 = Clock::now();
      checker->Expect(engine.Process(request).status.ok(), "Process failed");
      const Clock::time_point t1 = Clock::now();
      inputs[i] = service.BuildInput(cold[i],
                                     telekit::core::ServiceMode::kEntityNoAttr);
      const Clock::time_point t2 = Clock::now();
      vectors[i] = std::move(service.EncodeInputs({&inputs[i]})[0]);
      const Clock::time_point t3 = Clock::now();
      telekit::tasks::TopKByCosine(vectors[i], catalogue, catalogue_vectors,
                                   request.top_k);
      const Clock::time_point t4 = Clock::now();
      process_ms_all.push_back(MsBetween(t0, t1));
      tokenize_ms_all.push_back(MsBetween(t1, t2));
      encode_ms_all.push_back(MsBetween(t2, t3));
      topk_ms_all.push_back(MsBetween(t3, t4));
    }
  }
  const double process_ms = Median(process_ms_all);
  const double tokenize_ms = Median(tokenize_ms_all);
  const double encode_b1_ms = Median(encode_ms_all);
  const double topk_ms = Median(topk_ms_all);
  const double sum_ms = tokenize_ms + encode_b1_ms + topk_ms;
  checker->Expect(
      std::fabs(sum_ms - process_ms) <= kProcessSumBound * process_ms,
      "tokenize + encode_b1 + topk = " + std::to_string(sum_ms) +
          " ms does not account for Process = " + std::to_string(process_ms) +
          " ms");

  const double encode_b8_ms = MedianMs(0.04 * s, encoded / 8, [&](size_t i) {
    std::vector<const telekit::text::EncodedInput*> batch;
    for (size_t j = 0; j < 8; ++j) batch.push_back(&inputs[8 * i + j]);
    service.EncodeInputs(batch);
  });
  // The encoder's projection and FFN GEMMs at a batch of 8 inputs' rows.
  int rows = 0;
  for (size_t j = 0; j < 8; ++j) rows += inputs[j].length;
  const telekit::core::EncoderConfig& shapes = zoo->config().encoder;
  telekit::Rng gemm_rng(options.seed ^ 0x6E33ULL);
  using telekit::tensor::Tensor;
  const Tensor x = Tensor::Randn({rows, shapes.d_model}, gemm_rng);
  const Tensor w_proj = Tensor::Randn({shapes.d_model, shapes.d_model}, gemm_rng);
  const Tensor w_in = Tensor::Randn({shapes.d_model, shapes.ffn_dim}, gemm_rng);
  const Tensor h = Tensor::Randn({rows, shapes.ffn_dim}, gemm_rng);
  const Tensor w_out = Tensor::Randn({shapes.ffn_dim, shapes.d_model}, gemm_rng);
  const double matmul_ms = MedianMs(0.03 * s, 1u << 20, [&](size_t) {
    telekit::tensor::NoGradGuard no_grad;
    telekit::tensor::MatMul(x, w_proj);
    telekit::tensor::MatMul(x, w_in);
    telekit::tensor::MatMul(h, w_out);
  });
  uint64_t recall_hits = 0, recall_total = 0;
  const double search_ms = MedianMs(0.03 * s, encoded, [&](size_t i) {
    index.Search(vectors[i].data(), 10);
  });
  for (size_t i = 0; i < std::min<size_t>(encoded, 500); ++i) {
    std::set<int> exact;
    for (const auto& hit : index.SearchExact(vectors[i].data(), 10)) {
      exact.insert(hit.doc_id);
    }
    for (const auto& hit : index.Search(vectors[i].data(), 10)) {
      ++recall_total;
      if (exact.count(hit.doc_id) > 0) ++recall_hits;
    }
  }
  const double recall = recall_total > 0
                            ? static_cast<double>(recall_hits) / recall_total
                            : 0.0;

  // --- stream: the sessionizer alone, then each episode's analysis -------
  const ReplayInputs replay = BuildReplay(*zoo, options.seed, kReplayEpisodes);
  std::vector<telekit::stream::EpisodeCandidate> candidates;
  double best_sessionize_us = 0.0;
  {
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < 3 || SecondsSince(start) < 0.06 * s; ++pass) {
      telekit::stream::Sessionizer sessionizer(zoo->world(),
                                               telekit::stream::WindowConfig{});
      std::vector<telekit::stream::EpisodeCandidate> flushed;
      const Clock::time_point t0 = Clock::now();
      for (const auto& event : replay.events) sessionizer.Offer(event, &flushed);
      sessionizer.FlushAll(&flushed);
      const double us = MsBetween(t0, Clock::now()) * 1000.0 /
                        static_cast<double>(replay.events.size());
      if (pass == 0 || us < best_sessionize_us) best_sessionize_us = us;
      checker->Expect(sessionizer.stats().events == replay.events.size(),
                      "sessionizer events != generated events");
      candidates = std::move(flushed);
    }
  }
  double best_analyse_ms = 0.0;
  {
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < 2 || SecondsSince(start) < 0.06 * s; ++pass) {
      telekit::serve::EngineOptions stream_options;
      stream_options.num_workers = 1;
      stream_options.compute_threads = 1;
      telekit::serve::ServeEngine stream_engine(&service, stream_options);
      for (TaskOp op : {TaskOp::kRca, TaskOp::kEap, TaskOp::kFct}) {
        stream_engine.LoadCatalog(op, catalogue);
      }
      std::vector<double> per_episode;
      for (const auto& candidate : candidates) {
        const Clock::time_point t0 = Clock::now();
        telekit::serve::Request request;
        request.text = telekit::stream::EpisodeQueryText(zoo->world(), candidate);
        for (TaskOp op : {TaskOp::kRca, TaskOp::kEap, TaskOp::kFct}) {
          request.op = op;
          checker->Expect(stream_engine.Process(request).status.ok(),
                          "episode Process failed");
        }
        per_episode.push_back(MsBetween(t0, Clock::now()));
      }
      const double median = Median(std::move(per_episode));
      if (pass == 0 || median < best_analyse_ms) best_analyse_ms = median;
    }
  }

  // --- training: one step of the SimCSE objective at batch 16 ------------
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  telekit::tensor::SetComputeThreads(threads);
  const std::vector<telekit::text::EncodedInput> corpus = EncodedTeleCorpus(*zoo);
  telekit::Rng init_rng(options.seed ^ 0x1111ULL);
  telekit::core::TeleBert model(zoo->config().encoder, init_rng);
  telekit::tensor::Adam adam(1e-3f);
  adam.AddParameters(telekit::core::TensorsOf(model.Parameters()));
  telekit::Rng train_rng(options.seed ^ 0x7A17ULL);
  std::vector<double> forward_ms, backward_ms, adam_ms;
  {
    const Clock::time_point start = Clock::now();
    for (int step = 0; step < 5 || SecondsSince(start) < 0.16 * s; ++step) {
      adam.ZeroGrad();
      const Clock::time_point t0 = Clock::now();
      std::vector<Tensor> view_a, view_b;
      for (int b = 0; b < 16; ++b) {
        const telekit::text::EncodedInput& example = corpus[static_cast<size_t>(
            train_rng.UniformInt(static_cast<int64_t>(corpus.size())))];
        view_a.push_back(model.EncodeCls(example, train_rng, true));
        view_b.push_back(model.EncodeCls(example, train_rng, true));
      }
      const Tensor a =
          telekit::tensor::L2NormalizeRows(telekit::tensor::ConcatRows(view_a));
      const Tensor b =
          telekit::tensor::L2NormalizeRows(telekit::tensor::ConcatRows(view_b));
      std::vector<int> diagonal(16);
      for (int i = 0; i < 16; ++i) diagonal[static_cast<size_t>(i)] = i;
      Tensor loss = telekit::tensor::CrossEntropyWithLogits(
          telekit::tensor::MulScalar(
              telekit::tensor::MatMul(a, telekit::tensor::Transpose(b)),
              1.0f / 0.05f),
          diagonal);
      const Clock::time_point t1 = Clock::now();
      loss.Backward();
      const Clock::time_point t2 = Clock::now();
      adam.Step();
      const Clock::time_point t3 = Clock::now();
      checker->Expect(std::isfinite(loss.item()), "training loss not finite");
      forward_ms.push_back(MsBetween(t0, t1));
      backward_ms.push_back(MsBetween(t1, t2));
      adam_ms.push_back(MsBetween(t2, t3));
    }
  }

  result->Add("route.hop_ms", router_ms - direct_ms, "ms");
  result->Add("serve.wire_ms", direct_ms - submit_ms, "ms");
  result->Add("serve.queue_wait_ms", submit_ms - process_mix_ms, "ms");
  result->Add("serve.batch_size", routed_checks.MeanBatchSize(), "requests");
  result->Add("serve.cache_hit_ratio", routed_checks.HitRatio(), "ratio");
  result->Add("serve.process_ms", process_ms, "ms");
  result->Add("text.tokenize_us", tokenize_ms * 1000.0, "us");
  result->Add("core.encode_b1_ms", encode_b1_ms, "ms");
  result->Add("core.encode_b8_ms", encode_b8_ms, "ms");
  result->Add("tensor.matmul_us", matmul_ms * 1000.0, "us");
  result->Add("tasks.topk_us", topk_ms * 1000.0, "us");
  result->Add("index.search_us", search_ms * 1000.0, "us");
  result->Add("index.recall_at_10", recall, "ratio");
  result->Add("stream.sessionize_us_per_event", best_sessionize_us, "us");
  result->Add("stream.analyse_ms_per_episode", best_analyse_ms, "ms");
  result->Add("stream.episodes", static_cast<double>(candidates.size()),
              "count");
  result->Add("core.train_forward_ms", Median(forward_ms), "ms");
  result->Add("tensor.backward_ms", Median(backward_ms), "ms");
  result->Add("tensor.adam_step_ms", Median(adam_ms), "ms");

  result->Note("traced.router_p50_ms", router_ms);
  result->Note("traced.direct_p50_ms", direct_ms);
  result->Note("traced.submit_p50_ms", submit_ms);
  result->Note("traced.process_mix_p50_ms", process_mix_ms);
  result->Note("traced.cache_lookups",
               static_cast<double>(routed_checks.lookups));
  result->Note("traced.tokenize+encode_b1+topk_ms", sum_ms);
  result->Note("traced.matmul_rows", rows);
  result->Note("traced.recall_queries", static_cast<double>(recall_total / 10));
  result->Note("traced.train_steps", static_cast<double>(forward_ms.size()));
}

}  // namespace perfbench
