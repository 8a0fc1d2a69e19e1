// Seeded inputs of the workloads. Everything here is a function of the
// run's --seed; the program under test receives only what these build.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model_zoo.h"
#include "core/service.h"
#include "synth/replay.h"
#include "text/tokenizer.h"

namespace perfbench {

/// The zoo telekit_serve and telekit_streamd build at start-up (small
/// world, untrained TeleBERT), with the checkpoint cache off.
telekit::core::ZooConfig ServingZooConfig(uint64_t seed);

/// Texts of the serve mix: a hot set of 16 and an endless supply of cold
/// texts. Every text differs from every other in the token ids the
/// serving prompt builds (EmbeddingCache keys on those ids), so a cold
/// text can never hit the cache.
class TextSupply {
 public:
  static constexpr int kHotTexts = 16;

  TextSupply(const telekit::synth::WorldModel& world,
             const telekit::core::ServiceEncoder& builder, uint64_t seed);

  const std::vector<std::string>& hot() const { return hot_; }
  /// A text never returned before (and not a hot text).
  std::string NextCold();

 private:
  /// True (and remembered) when `text` builds token ids not seen before.
  bool Claim(const std::string& text);

  const telekit::synth::WorldModel& world_;
  const telekit::core::ServiceEncoder& builder_;
  telekit::Rng rng_;
  std::set<std::vector<int>> seen_;
  std::vector<std::string> hot_;
};

/// Operations of the serve mix, in wire names.
inline const std::vector<std::string>& MixOps() {
  static const std::vector<std::string> ops = {
      "encode", "rca", "eap", "fct", "retrieve", "troubleshoot"};
  return ops;
}

/// One request slot of a serve-mix pass.
struct MixSlot {
  std::string op;
  bool cold = false;
  /// Index into TextSupply::hot() when !cold.
  int hot_index = 0;
  int top_k = 5;
};

/// The fixed pass of the serve mix: `clients` x kSlotsPerClient requests.
/// Each client sends every op equally often, exactly one in five of each
/// op on a cold text, in a seeded order; hot texts are used in turn. Slot
/// i belongs to client i / kSlotsPerClient. 90 requests a client make a
/// pass of about 0.25 s: shorter passes let the batcher's phase between
/// the two clients swing a pass's median latency.
inline constexpr int kSlotsPerClient = 90;
std::vector<MixSlot> ServeMixPass(uint64_t seed, int clients);

/// Top-k asked of each op: 10 for the index-backed ops (recall@10 is
/// checked on them), 5 for catalogue scoring.
inline int MixTopK(const std::string& op) {
  return op == "retrieve" || op == "troubleshoot" ? 10 : 5;
}

/// The NDJSON wire form of one mix request. It carries `id` and a trace id
/// (16 hex digits) the response must echo.
std::string MixRequestLine(uint64_t id, uint64_t trace_id,
                           const std::string& op, const std::string& text,
                           int top_k);

/// The trace id the benchmark sends with request `id` (never 0).
uint64_t MixTraceId(uint64_t seed, uint64_t id);

/// The replayed alarm/KPI/signaling stream, built the way telekit_streamd
/// builds it.
struct ReplayInputs {
  std::vector<telekit::synth::ScheduledEpisode> episodes;
  std::vector<telekit::synth::StreamEvent> events;
};
/// Episodes scheduled per replayed stream: one stream_replay pass takes
/// about 0.1 s.
inline constexpr int kReplayEpisodes = 150;
ReplayInputs BuildReplay(const telekit::core::ModelZoo& zoo, uint64_t seed,
                         int num_episodes);

/// The seeded tele corpus the zoo pre-trains TeleBERT on, tokenized.
std::vector<telekit::text::EncodedInput> EncodedTeleCorpus(
    const telekit::core::ModelZoo& zoo);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
