// serve_rpc: a closed loop of 2 client connections through telekit_router
// (one replica) to telekit_serve, on the serve mix: every op, 80 % of
// texts from a hot set of 16, 20 % cold texts never sent before.
//
// Output checks, made after the timed passes against vectors the server
// encodes for every text involved:
//   - every response is ok and echoes its id and trace;
//   - rca/eap/fct scores equal the cosine of the query's encode vector
//     with each catalogue name's encode vector (within 1e-4), and the
//     returned top-k is that ranking's top-k;
//   - retrieve/troubleshoot docs come in descending score order, their
//     scores are cosines with the doc's encode vector, and the hits reach
//     recall@10 >= kMinRecallAt10 against brute force over those vectors;
//   - troubleshoot verdicts are drawn only from alarms cited by the
//     returned docs (corpus rebuilt from the same seed), ranked as above.
#include "serve_rpc.h"

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "daemons.h"
#include "inputs.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "synth/tickets.h"

namespace perfbench {

namespace json = telekit::obs;

namespace {

constexpr double kScoreTolerance = 1e-4;
constexpr double kMinRecallAt10 = 0.9;

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return na > 0.0 && nb > 0.0 ? dot / (std::sqrt(na) * std::sqrt(nb)) : 0.0;
}

std::vector<float> VectorOf(const json::JsonValue& response) {
  std::vector<float> out;
  const json::JsonValue* vector = response.Find("vector");
  if (vector == nullptr || !vector->is_array()) return out;
  for (size_t i = 0; i < vector->size(); ++i) {
    out.push_back(static_cast<float>(vector->at(i).AsNumber()));
  }
  return out;
}

using Candidates = std::vector<std::pair<std::string, const std::vector<float>*>>;

/// Checks a ranked list (`results` or `docs`) against the cosine ranking
/// of `candidates` for query `q`: right length, every entry a distinct
/// candidate (a name listed twice in the catalogue may be returned twice),
/// scores equal to the cosines, non-increasing, and no left-out candidate
/// scoring above the last returned one.
void CheckRanking(const json::JsonValue* list, const char* key,
                  const std::vector<float>& q, const Candidates& candidates,
                  int k, const std::string& where, Checker* checker) {
  if (list == nullptr || !list->is_array()) {
    checker->Expect(false, where + ": missing ranked list");
    return;
  }
  const size_t want = std::min(static_cast<size_t>(k), candidates.size());
  checker->Expect(list->size() == want,
                  where + ": returned " + std::to_string(list->size()) +
                      " of " + std::to_string(want));
  std::vector<bool> used(candidates.size(), false);
  double previous = 1e9;
  double last = 1e9;
  for (size_t i = 0; i < list->size(); ++i) {
    const json::JsonValue& item = list->at(i);
    const json::JsonValue* name = item.Find(key);
    const json::JsonValue* score = item.Find("score");
    if (name == nullptr || score == nullptr) {
      checker->Expect(false, where + ": entry without name or score");
      continue;
    }
    const std::string id = name->is_string() ? name->AsString() : name->Dump();
    size_t match = candidates.size();
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (!used[c] && candidates[c].first == id) {
        match = c;
        break;
      }
    }
    if (match == candidates.size()) {
      checker->Expect(false, where + ": '" + id + "' is not a candidate");
      continue;
    }
    used[match] = true;
    const double expected = Cosine(q, *candidates[match].second);
    const double got = score->AsNumber();
    checker->Expect(std::fabs(expected - got) <= kScoreTolerance,
                    where + ": score of '" + id + "' " + std::to_string(got) +
                        " != cosine " + std::to_string(expected));
    checker->Expect(got <= previous + 1e-6,
                    where + ": scores not in descending order");
    previous = got;
    last = std::min(last, got);
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (used[c]) continue;
    checker->Expect(Cosine(q, *candidates[c].second) <= last + kScoreTolerance,
                    where + ": '" + candidates[c].first +
                        "' ranks above the returned top-k");
  }
}

std::string ResponseTrace(const json::JsonValue& response) {
  const json::JsonValue* trace = response.Find("trace");
  return trace != nullptr && trace->is_string() ? trace->AsString() : "";
}

}  // namespace

bool ServeChecks::CheckEnvelope(const Sent& request,
                                json::JsonValue* response, Checker* checker) {
  const std::string where =
      "request " + std::to_string(request.id) + " (" + request.op + ")";
  if (!request.transport_ok ||
      !json::JsonValue::Parse(request.response, response) ||
      !response->is_object()) {
    ++failed;
    checker->Expect(false, where + ": no parseable response");
    return false;
  }
  const json::JsonValue* ok = response->Find("ok");
  const json::JsonValue* id = response->Find("id");
  const bool served = ok != nullptr && ok->is_bool() && ok->AsBool();
  if (!served) ++failed;
  checker->Expect(served,
                  where + ": not ok: " + request.response.substr(0, 200));
  checker->Expect(id != nullptr && id->is_number() &&
                      static_cast<uint64_t>(id->AsNumber()) == request.id,
                  where + ": id not echoed");
  checker->Expect(
      ResponseTrace(*response) == json::TraceIdToHex(request.trace_id),
      where + ": trace not echoed");
  if (!served) return true;
  const json::JsonValue* batch = response->Find("batch_size");
  const json::JsonValue* hit = response->Find("cache_hit");
  checker->Expect(batch != nullptr && batch->is_number(),
                  where + ": no batch_size");
  checker->Expect(hit != nullptr && hit->is_bool(), where + ": no cache_hit");
  if (batch != nullptr && batch->is_number()) {
    batch_sizes.push_back(batch->AsNumber());
  }
  if (hit != nullptr && hit->is_bool()) {
    ++lookups;
    if (hit->AsBool()) ++hits;
  }
  return true;
}

void ServeChecks::Verify(const std::vector<Sent>& sent,
                         const std::map<std::string, std::vector<float>>&
                             vectors,
                         const std::vector<std::string>& catalogue,
                         const std::vector<telekit::synth::RetrievalDoc>& docs,
                         Checker* checker) {
  // The catalogue as the engine loads it: one entry per alarm type, so a
  // surface two alarm types share is listed twice.
  Candidates catalogue_entries;
  std::map<std::string, const std::vector<float>*> catalogue_vectors;
  for (const std::string& name : catalogue) {
    auto it = vectors.find(name);
    checker->Expect(it != vectors.end(), "no vector for catalogue " + name);
    if (it == vectors.end()) continue;
    catalogue_entries.emplace_back(name, &it->second);
    catalogue_vectors[name] = &it->second;
  }
  std::vector<const std::vector<float>*> doc_vectors;
  for (const auto& doc : docs) {
    auto it = vectors.find(doc.text);
    checker->Expect(it != vectors.end(), "no vector for doc " + doc.title);
    doc_vectors.push_back(it != vectors.end() ? &it->second : nullptr);
  }
  for (const Sent& request : sent) {
    const std::string where =
        "request " + std::to_string(request.id) + " (" + request.op + ")";
    json::JsonValue response;
    if (!CheckEnvelope(request, &response, checker)) continue;
    auto query = vectors.find(request.text);
    if (query == vectors.end()) {
      checker->Expect(false, where + ": no reference vector for its text");
      continue;
    }
    const std::vector<float>& q = query->second;
    if (request.op == "encode") {
      const std::vector<float> got = VectorOf(response);
      checker->Expect(got.size() == q.size() && Cosine(got, q) > 1.0 - 1e-5,
                      where + ": vector differs from the reference encode");
      continue;
    }
    if (request.op == "rca" || request.op == "eap" || request.op == "fct") {
      CheckRanking(response.Find("results"), "name", q, catalogue_entries,
                   request.top_k, where, checker);
      continue;
    }
    // retrieve / troubleshoot: docs ranked by cosine over doc vectors.
    const json::JsonValue* got_docs = response.Find("docs");
    std::vector<std::pair<double, int>> exact;
    for (size_t d = 0; d < docs.size(); ++d) {
      if (doc_vectors[d] != nullptr) {
        exact.emplace_back(Cosine(q, *doc_vectors[d]), docs[d].id);
      }
    }
    std::sort(exact.begin(), exact.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::set<int> truth;
    for (size_t i = 0; i < exact.size() && i < 10; ++i) {
      truth.insert(exact[i].second);
    }
    std::set<std::string> cited;
    double previous = 1e9;
    if (got_docs == nullptr || !got_docs->is_array()) {
      checker->Expect(false, where + ": no docs");
      continue;
    }
    for (size_t i = 0; i < got_docs->size(); ++i) {
      const json::JsonValue& doc = got_docs->at(i);
      const json::JsonValue* doc_id = doc.Find("doc_id");
      const json::JsonValue* score = doc.Find("score");
      const json::JsonValue* title = doc.Find("title");
      if (doc_id == nullptr || score == nullptr || title == nullptr) {
        checker->Expect(false, where + ": doc without id, score or title");
        continue;
      }
      const int d = static_cast<int>(doc_id->AsNumber());
      if (d < 0 || static_cast<size_t>(d) >= docs.size()) {
        checker->Expect(false, where + ": doc id out of range");
        continue;
      }
      checker->Expect(title->is_string() &&
                          title->AsString() == docs[static_cast<size_t>(d)].title,
                      where + ": doc title differs from the rebuilt corpus");
      checker->Expect(score->AsNumber() <= previous + 1e-6,
                      where + ": docs not in descending score order");
      previous = score->AsNumber();
      if (doc_vectors[static_cast<size_t>(d)] != nullptr) {
        checker->Expect(
            std::fabs(Cosine(q, *doc_vectors[static_cast<size_t>(d)]) -
                      score->AsNumber()) <= kScoreTolerance,
            where + ": doc score is not the cosine with its vector");
      }
      ++recall_total;
      if (truth.count(d) > 0) ++recall_hits;
      for (const std::string& alarm :
           docs[static_cast<size_t>(d)].evidence_alarms) {
        if (catalogue_vectors.count(alarm) > 0) cited.insert(alarm);
      }
    }
    checker->Expect(got_docs->size() == std::min<size_t>(10, docs.size()),
                    where + ": wrong number of docs");
    if (request.op == "troubleshoot") {
      // The verdict ranks only the cited alarms, each surface once; with
      // none cited it falls back to the whole catalogue.
      Candidates allowed;
      for (const std::string& alarm : cited) {
        allowed.emplace_back(alarm, catalogue_vectors[alarm]);
      }
      CheckRanking(response.Find("results"), "name", q,
                   cited.empty() ? catalogue_entries : allowed, request.top_k,
                   where, checker);
    }
  }
}

void ServeChecks::Finish(Checker* checker) const {
  checker->Expect(recall_total > 0, "no retrieve/troubleshoot hits to judge");
  checker->Expect(RecallAt10() >= kMinRecallAt10,
                  "HNSW recall@10 " + std::to_string(RecallAt10()) +
                      " below " + std::to_string(kMinRecallAt10));
}

namespace {

/// Encodes every text through the server on `port` (pipelined) into
/// `vectors`. False with `error` set on any failure.
bool EncodeAll(int port, const std::vector<std::string>& texts,
               std::map<std::string, std::vector<float>>* vectors,
               std::string* error) {
  Connection connection;
  if (!connection.Open(port, 2000.0)) {
    *error = "cannot connect for reference encodes";
    return false;
  }
  // Pipelined in windows, so the server batches the reference encodes.
  constexpr size_t kWindow = 64;
  for (size_t start = 0; start < texts.size(); start += kWindow) {
    const size_t end = std::min(texts.size(), start + kWindow);
    for (size_t i = start; i < end; ++i) {
      json::JsonValue request = json::JsonValue::Object();
      request.Set("id", json::JsonValue(static_cast<uint64_t>(i)));
      request.Set("op", json::JsonValue("encode"));
      request.Set("text", json::JsonValue(texts[i]));
      if (!connection.Send(request.Dump())) {
        *error = "reference encode send failed";
        return false;
      }
    }
    for (size_t i = start; i < end; ++i) {
      std::string line;
      json::JsonValue response;
      if (!connection.Receive(&line) ||
          !json::JsonValue::Parse(line, &response)) {
        *error = "reference encode receive failed";
        return false;
      }
      const json::JsonValue* id = response.Find("id");
      if (id == nullptr || !id->is_number() ||
          static_cast<size_t>(id->AsNumber()) >= texts.size()) {
        *error = "reference encode without id: " + line.substr(0, 200);
        return false;
      }
      std::vector<float> vector = VectorOf(response);
      if (vector.empty()) {
        *error = "reference encode failed: " + line.substr(0, 200);
        return false;
      }
      (*vectors)[texts[static_cast<size_t>(id->AsNumber())]] =
          std::move(vector);
    }
  }
  return true;
}

}  // namespace

bool DriveMix(int port, double seconds, uint64_t seed, TextSupply* texts,
              uint64_t* next_id, std::vector<Sent>* sent, PassLog* log,
              std::string* error) {
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kMixClients; ++c) {
    connections.push_back(std::make_unique<Connection>());
    if (!connections.back()->Open(port, 2000.0)) {
      *error = "cannot connect to port " + std::to_string(port);
      return false;
    }
  }
  const std::vector<MixSlot> slots = ServeMixPass(seed, kMixClients);
  std::vector<std::string> lines(slots.size());
  size_t base = 0;
  RunClosedLoop(
      kMixClients, kSlotsPerClient, seconds, /*warmup=*/1, log,
      [&](int) {
        base = sent->size();
        for (size_t i = 0; i < slots.size(); ++i) {
          Sent request;
          request.id = (*next_id)++;
          request.trace_id = MixTraceId(seed, request.id);
          request.op = slots[i].op;
          request.top_k = slots[i].top_k;
          request.text =
              slots[i].cold
                  ? texts->NextCold()
                  : texts->hot()[static_cast<size_t>(slots[i].hot_index)];
          lines[i] = MixRequestLine(request.id, request.trace_id, request.op,
                                    request.text, request.top_k);
          sent->push_back(std::move(request));
        }
      },
      [&](int client, int i) {
        const size_t slot = static_cast<size_t>(client) * kSlotsPerClient +
                            static_cast<size_t>(i);
        Sent& request = (*sent)[base + slot];
        request.transport_ok = connections[static_cast<size_t>(client)]->Call(
            lines[slot], &request.response);
      });
  return true;
}

void RunServeRpc(const RunOptions& options, Checker* checker,
                 RunResult* result) {
  // Inputs first, outside the set-up clock: the world the replica builds
  // (same config, same seed), its prompt builder for cold-text checks,
  // and the retrieval corpus for the troubleshoot check.
  telekit::core::ModelZoo zoo(ServingZooConfig(options.seed));
  zoo.BuildData();
  telekit::core::RandomEncoder unused_encoder(8, options.seed);
  telekit::core::ServiceEncoder builder(&unused_encoder, &zoo.tokenizer(),
                                        &zoo.store(), &zoo.normalizer());
  TextSupply texts(zoo.world(), builder, options.seed);

  Fleet fleet;
  std::string error;
  const std::string probe = MixRequestLine(
      0, MixTraceId(options.seed, 0), "encode", texts.hot()[0], 5);
  if (!StartFleet(options.bin_dir, options.work_dir, options.seed, probe,
                  &fleet, &error)) {
    checker->Expect(false, error);
    return;
  }

  std::vector<Sent> sent;
  uint64_t next_id = 1;
  PassLog log;
  if (!DriveMix(fleet.router_port, options.seconds, options.seed, &texts,
                &next_id, &sent, &log, &error)) {
    checker->Expect(false, error);
    return;
  }
  const double peak_rss_mb = PeakRssMb(fleet.serve->pid());

  // Reference vectors for every text involved, straight from the replica.
  std::vector<std::string> catalogue;
  for (const auto& alarm : zoo.world().alarms()) catalogue.push_back(alarm.name);
  telekit::synth::TicketConfig tickets;
  tickets.seed = options.seed;
  const std::vector<telekit::synth::RetrievalDoc> docs =
      telekit::synth::BuildRetrievalCorpus(zoo.world(), tickets);
  std::set<std::string> unique(catalogue.begin(), catalogue.end());
  for (const auto& doc : docs) unique.insert(doc.text);
  for (const Sent& request : sent) unique.insert(request.text);
  std::map<std::string, std::vector<float>> vectors;
  if (!EncodeAll(fleet.serve_port,
                 std::vector<std::string>(unique.begin(), unique.end()),
                 &vectors, &error)) {
    checker->Expect(false, error);
    return;
  }
  fleet.Stop();

  ServeChecks checks;
  checks.Verify(sent, vectors, catalogue, docs, checker);
  checks.Finish(checker);

  result->attempted = sent.size();
  result->failed = checks.failed;
  result->Add("setup_s", fleet.setup_s, "s");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
  result->Add("ops_per_s", log.QuartileRate(), "1/s");
  result->Add("op_p50_ms", log.QuartileP50(), "ms");
  result->Note("serve_rpc.passes", log.passes());
  result->Note("serve_rpc.best_pass_rate_per_s", log.BestRate());
  result->Note("serve_rpc.best_pass_p50_ms", log.BestP50());
  result->Note("serve_rpc.requests_per_pass",
               static_cast<double>(kMixClients * kSlotsPerClient));
  result->Note("serve_rpc.mean_req_per_s", log.MeanRate());
  result->Note("serve_rpc.pooled_p50_ms", log.PooledQuantile(0.5));
  result->Note("serve_rpc.pooled_p99_ms", log.PooledQuantile(0.99));
  result->Note("serve_rpc.recall_at_10", checks.RecallAt10());
  result->Note("serve_rpc.cache_hit_ratio", checks.HitRatio());
  result->Note("serve_rpc.mean_batch_size", checks.MeanBatchSize());
}

}  // namespace perfbench
