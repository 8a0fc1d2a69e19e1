// pretrain: TeleBert::Pretrain (ELECTRA + SimCSE) on the seeded tele
// corpus at the zoo's bench shapes (d_model 64, 2 layers, batch 16,
// max_len 24), at the program's default compute-thread count (nproc).
// Each timed pass trains a freshly seeded model for the same 4 steps, so
// every pass does identical work.
//
// Output checks: a finite-difference tensor::CheckGradients check on a
// small encoder loss; every loss finite; in a 16-step check pass of the
// same training, the MLM loss starts near ln(vocab size) and falls; every
// timed pass's loss history is bit-identical to the check pass's first
// steps (ComputePool's determinism contract).
#include <unistd.h>

#include <cmath>
#include <thread>

#include "bench.h"
#include "core/model_zoo.h"
#include "core/telebert.h"
#include "core/transformer.h"
#include "inputs.h"
#include "tensor/compute_pool.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

/// Training steps per timed pass (about 0.3 s on a 4-vCPU x86 host).
constexpr int kStepsPerPass = 4;
/// Steps of the check pass. The MLM loss falls about 0.025 a step against
/// a per-step batch noise of about 0.1, so its fall (mean of the last third
/// below the first third) needs 16 steps to show on every seed.
constexpr int kCheckSteps = 16;

/// Finite-difference check of a one-layer encoder's gradient with respect
/// to its embedded input, through attention, FFN and layer norms.
bool EncoderGradientsMatch(uint64_t seed, std::string* detail) {
  using telekit::tensor::Tensor;
  telekit::core::EncoderConfig config;
  config.vocab_size = 16;
  config.d_model = 8;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 16;
  config.max_len = 8;
  config.dropout = 0.0f;
  telekit::Rng rng(seed ^ 0x6C1EULL);
  telekit::core::TransformerEncoder encoder(config, rng);
  const Tensor target = Tensor::Randn({5, 8}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    telekit::Rng dropout_rng(1);
    Tensor hidden = encoder.Encode(in[0], dropout_rng, /*training=*/false);
    return telekit::tensor::MseLoss(hidden, target);
  };
  const auto result = telekit::tensor::CheckGradients(
      loss, {Tensor::Randn({5, 8}, rng, 1.0f, /*requires_grad=*/true)});
  *detail = result.detail;
  return result.passed;
}

bool AllFinite(const std::vector<telekit::core::PretrainStats>& history) {
  for (const auto& step : history) {
    if (!std::isfinite(step.mlm_loss) || !std::isfinite(step.rtd_loss) ||
        !std::isfinite(step.simcse_loss) || !std::isfinite(step.total_loss)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunPretrain(const RunOptions& options, Checker* checker,
                 RunResult* result) {
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  telekit::tensor::SetComputeThreads(threads);
  telekit::core::ModelZoo zoo(ServingZooConfig(options.seed));
  zoo.BuildData();
  const std::vector<telekit::text::EncodedInput> corpus =
      EncodedTeleCorpus(zoo);
  const telekit::core::EncoderConfig shapes = zoo.config().encoder;
  const double setup_s = SecondsSince(options.process_start);

  // One training of a freshly seeded model; every pass calls this.
  auto train = [&](int steps) {
    telekit::Rng init_rng(options.seed ^ 0x1111ULL);
    telekit::core::TeleBert model(shapes, init_rng);
    telekit::Rng train_rng(options.seed ^ 0x7A17ULL);
    telekit::core::PretrainOptions train_options;
    train_options.steps = steps;
    return model.Pretrain(corpus, zoo.tokenizer().vocab(), train_options,
                          train_rng);
  };

  // The check pass (also the warm-up): the same training, run for
  // kCheckSteps. Its first kStepsPerPass steps are the timed passes' steps.
  const std::vector<telekit::core::PretrainStats> check = train(kCheckSteps);
  result->attempted += kCheckSteps;
  checker->Expect(check.size() == static_cast<size_t>(kCheckSteps) &&
                      AllFinite(check),
                  "check pass has a non-finite loss");
  const double ln_vocab =
      std::log(static_cast<double>(zoo.tokenizer().vocab().size()));
  if (check.size() == static_cast<size_t>(kCheckSteps)) {
    checker->Expect(std::fabs(check.front().mlm_loss - ln_vocab) <=
                        0.15 * ln_vocab,
                    "first MLM loss " + std::to_string(check.front().mlm_loss) +
                        " is not near ln(vocab) " + std::to_string(ln_vocab));
    const size_t third = check.size() / 3;
    double head = 0.0, tail = 0.0;
    for (size_t i = 0; i < third; ++i) {
      head += check[i].mlm_loss;
      tail += check[check.size() - 1 - i].mlm_loss;
    }
    checker->Expect(tail < head, "MLM loss did not fall within the pass");
  }

  PassLog log;
  const Clock::time_point timed_start = Clock::now();
  for (int pass = 0; pass < 2 || SecondsSince(timed_start) < options.seconds;
       ++pass) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<telekit::core::PretrainStats> history =
        train(kStepsPerPass);
    const double wall_ms = MsBetween(t0, Clock::now());
    result->attempted += kStepsPerPass;
    bool same = history.size() == static_cast<size_t>(kStepsPerPass) &&
                AllFinite(history);
    for (size_t i = 0; same && i < history.size(); ++i) {
      same = history[i].total_loss == check[i].total_loss &&
             history[i].mlm_loss == check[i].mlm_loss;
    }
    checker->Expect(same, "pass " + std::to_string(pass) +
                              " loss history differs from the check pass");
    log.Add(kStepsPerPass, wall_ms, {wall_ms / kStepsPerPass});
  }
  const double peak_rss_mb = PeakRssMb(static_cast<int>(::getpid()));

  std::string detail;
  checker->Expect(EncoderGradientsMatch(options.seed, &detail),
                  "encoder gradient check failed: " + detail);

  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
  result->Add("ops_per_s", log.BestRate(), "1/s");
  result->Add("op_p50_ms", log.BestP50(), "ms");
  result->Note("pretrain.passes", log.passes());
  result->Note("pretrain.quartile_pass_rate_per_s", log.QuartileRate());
  result->Note("pretrain.quartile_pass_p50_ms", log.QuartileP50());
  result->Note("pretrain.steps_per_pass", kStepsPerPass);
  result->Note("pretrain.compute_threads", threads);
  result->Note("pretrain.mean_steps_per_s", log.MeanRate());
  result->Note("pretrain.corpus_sentences", static_cast<double>(corpus.size()));
  result->Note("pretrain.vocab_size",
               static_cast<double>(zoo.tokenizer().vocab().size()));
  if (!check.empty()) {
    result->Note("pretrain.first_mlm_loss", check.front().mlm_loss);
    result->Note("pretrain.last_mlm_loss", check.back().mlm_loss);
  }
}

}  // namespace perfbench
