#include "inputs.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/trace.h"
#include "synth/corpus.h"
#include "synth/log.h"
#include "synth/signaling.h"

namespace perfbench {

using telekit::Rng;

telekit::core::ZooConfig ServingZooConfig(uint64_t seed) {
  // Mirrors ServeZooConfig in src/serve/telekit_serve_main.cc and
  // StreamZooConfig in src/stream/streamd_main.cc.
  telekit::core::ZooConfig config;
  config.seed = seed;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  return config;
}

TextSupply::TextSupply(const telekit::synth::WorldModel& world,
                       const telekit::core::ServiceEncoder& builder,
                       uint64_t seed)
    : world_(world), builder_(builder), rng_(seed ^ 0x7E27ULL) {
  // Hot texts: catalogue surfaces users ask about again and again.
  std::vector<std::string> pool;
  for (const auto& alarm : world.alarms()) pool.push_back(alarm.name);
  for (const auto& kpi : world.kpis()) pool.push_back(kpi.name);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1],
              pool[static_cast<size_t>(rng_.UniformInt(static_cast<int64_t>(i)))]);
  }
  for (const std::string& text : pool) {
    if (static_cast<int>(hot_.size()) == kHotTexts) break;
    if (Claim(text)) hot_.push_back(text);
  }
}

bool TextSupply::Claim(const std::string& text) {
  const telekit::text::EncodedInput input =
      builder_.BuildInput(text, telekit::core::ServiceMode::kEntityNoAttr);
  std::vector<int> ids(input.ids.begin(), input.ids.begin() + input.length);
  return seen_.insert(std::move(ids)).second;
}

std::string TextSupply::NextCold() {
  // A fault report names an element, an alarm and a KPI; the world has
  // tens of thousands of such triples, so the supply outlasts any run.
  const auto& elements = world_.elements();
  const auto& alarms = world_.alarms();
  const auto& kpis = world_.kpis();
  while (true) {
    const auto& element = elements[static_cast<size_t>(
        rng_.UniformInt(static_cast<int64_t>(elements.size())))];
    const auto& alarm = alarms[static_cast<size_t>(
        rng_.UniformInt(static_cast<int64_t>(alarms.size())))];
    const auto& kpi = kpis[static_cast<size_t>(
        rng_.UniformInt(static_cast<int64_t>(kpis.size())))];
    std::string text = element.name + " " + alarm.name + " " + kpi.name;
    if (Claim(text)) return text;
  }
}

std::vector<MixSlot> ServeMixPass(uint64_t seed, int clients) {
  // Every client gets the same make-up, so no client's share of the pass
  // is heavier than another's; only the order within a client is seeded.
  const int per_op = kSlotsPerClient / static_cast<int>(MixOps().size());
  Rng rng(seed ^ 0x3A1CULL);
  std::vector<MixSlot> slots;
  int hot_cursor = 0;
  for (int c = 0; c < clients; ++c) {
    std::vector<MixSlot> mine;
    for (const std::string& op : MixOps()) {
      for (int i = 0; i < per_op; ++i) {
        MixSlot slot;
        slot.op = op;
        slot.cold = i < per_op / 5;
        slot.top_k = MixTopK(op);
        if (!slot.cold) {
          slot.hot_index = hot_cursor++ % TextSupply::kHotTexts;
        }
        mine.push_back(slot);
      }
    }
    for (size_t i = mine.size(); i > 1; --i) {
      std::swap(mine[i - 1], mine[static_cast<size_t>(
                                 rng.UniformInt(static_cast<int64_t>(i)))]);
    }
    slots.insert(slots.end(), mine.begin(), mine.end());
  }
  return slots;
}

std::string MixRequestLine(uint64_t id, uint64_t trace_id,
                           const std::string& op, const std::string& text,
                           int top_k) {
  telekit::obs::JsonValue request = telekit::obs::JsonValue::Object();
  request.Set("id", telekit::obs::JsonValue(id));
  request.Set("op", telekit::obs::JsonValue(op));
  request.Set("text", telekit::obs::JsonValue(text));
  request.Set("top_k", telekit::obs::JsonValue(top_k));
  request.Set("trace",
              telekit::obs::JsonValue(telekit::obs::TraceIdToHex(trace_id)));
  return request.Dump();
}

uint64_t MixTraceId(uint64_t seed, uint64_t id) {
  // SplitMix64 finaliser over (seed, id).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + id + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

ReplayInputs BuildReplay(const telekit::core::ModelZoo& zoo, uint64_t seed,
                         int num_episodes) {
  // The same generators and defaults telekit_streamd replays.
  telekit::synth::LogGenerator log_gen(zoo.world(),
                                       telekit::synth::LogConfig{});
  telekit::synth::SignalingFlowGenerator signaling_gen(
      zoo.world(), telekit::synth::SignalingConfig{});
  telekit::synth::ReplayConfig replay;
  replay.num_episodes = num_episodes;
  Rng rng(seed ^ 0x5741544552ULL);
  ReplayInputs inputs;
  inputs.episodes =
      telekit::synth::ScheduleEpisodes(log_gen, signaling_gen, replay, rng);
  inputs.events = telekit::synth::BuildReplayStream(
      log_gen, signaling_gen, inputs.episodes, replay, rng);
  return inputs;
}

std::vector<telekit::text::EncodedInput> EncodedTeleCorpus(
    const telekit::core::ModelZoo& zoo) {
  // ModelZoo draws the tele corpus first from Rng(seed).
  Rng rng(zoo.config().seed);
  telekit::synth::CorpusGenerator generator(zoo.world(), zoo.config().corpus);
  std::vector<telekit::text::EncodedInput> corpus;
  for (const std::string& sentence : generator.GenerateTeleCorpus(rng)) {
    corpus.push_back(zoo.tokenizer().EncodeSentence(sentence));
  }
  return corpus;
}

}  // namespace perfbench
