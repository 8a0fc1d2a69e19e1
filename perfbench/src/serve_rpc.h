// The serve mix over TCP: the closed-loop client that sends it, the
// requests as sent, and the output checks made on their responses. Shared
// by the serve_rpc workload and the traced run.
#ifndef PERFBENCH_SERVE_RPC_H_
#define PERFBENCH_SERVE_RPC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "obs/json.h"
#include "synth/tickets.h"

namespace perfbench {

/// Client connections of the serve mix's closed loop.
inline constexpr int kMixClients = 2;

/// One request as sent, with the raw response line.
struct Sent {
  uint64_t id = 0;
  uint64_t trace_id = 0;
  std::string op;
  std::string text;
  int top_k = 5;
  bool transport_ok = false;
  std::string response;
};

/// Verifies responses against reference vectors (text -> the server's
/// encode vector) and gathers the response-side layer figures (batch
/// sizes, cache hits over lookups).
struct ServeChecks {
  uint64_t failed = 0;
  uint64_t hits = 0;
  uint64_t lookups = 0;
  uint64_t recall_hits = 0;
  uint64_t recall_total = 0;
  std::vector<double> batch_sizes;

  /// Checks one response's envelope: a parseable object that is ok,
  /// echoes the request's id and trace, and carries batch_size and
  /// cache_hit (both counted). Counts a failed request. Returns false when
  /// there is no parseable response to check further; fills `response`.
  bool CheckEnvelope(const Sent& request, telekit::obs::JsonValue* response,
                     Checker* checker);
  /// CheckEnvelope, then each op's content checks, on every request.
  void Verify(const std::vector<Sent>& sent,
              const std::map<std::string, std::vector<float>>& vectors,
              const std::vector<std::string>& catalogue,
              const std::vector<telekit::synth::RetrievalDoc>& docs,
              Checker* checker);
  /// Run-level checks (recall@10 over every judged hit).
  void Finish(Checker* checker) const;

  double RecallAt10() const {
    return recall_total > 0 ? static_cast<double>(recall_hits) / recall_total
                            : 0.0;
  }
  double HitRatio() const {
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
  double MeanBatchSize() const {
    double sum = 0.0;
    for (double b : batch_sizes) sum += b;
    return batch_sizes.empty() ? 0.0 : sum / batch_sizes.size();
  }
};

/// Sends the serve mix in closed loop from kMixClients connections to the
/// server on `port`: one warm-up pass, then passes until `seconds` have
/// passed, each with fresh cold texts from `texts`. Request ids continue
/// from `*next_id`; every request, with its response, is appended to
/// `sent`, and every timed pass to `log`. False with `error` set when a
/// connection cannot be opened.
bool DriveMix(int port, double seconds, uint64_t seed, TextSupply* texts,
              uint64_t* next_id, std::vector<Sent>* sent, PassLog* log,
              std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_RPC_H_
