// Shared pieces of the benchmark driver: the run result printed as the
// last stdout line, output checks, best-of-passes timing, and percentile
// helpers.
//
// Timing rule: a run repeats one fixed pass of work many times, because on
// a shared host whole-run averages drift with interference phases far
// longer than one short pass. On pretrain, where every pass does identical
// work, a rate is the highest any pass reached and a latency the lowest
// median any pass reached. On stream_replay every pass also repeats the
// same items (episodes) in the same order, so the pass is cut at each
// item's end and each item keeps the lowest time it took in any pass: the
// rate is the items over the sum of those minima, the latency the median
// of the items' lowest latencies. A slow host phase then has to cover one
// item in every pass, not one whole pass, to move the figure. On serve_rpc
// the fastest pass is a lucky phase of the batcher between the clients
// rather than of the host, so there a rate is the upper quartile of pass
// rates and a latency the lower quartile of pass medians.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding telekit_serve and telekit_router.
  std::string bin_dir;
  /// Scratch directory inside the checkout for daemon logs.
  std::string work_dir;
  /// When main() started: the cold set-up clock's origin.
  Clock::time_point process_start;
};

/// Collects output-check outcomes. Any failed check marks the run
/// incorrect; the first few messages are kept for stderr.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the operation counts, the
/// metrics, and reference figures that go to stderr only.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> reference;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value) {
    reference.emplace_back(name, value);
  }
};

/// Per-pass figures of one timed loop and the best-of-passes summary.
class PassLog {
 public:
  /// Records one pass: `ops` operations in `wall_ms`, with the pass's own
  /// per-operation latencies (may be empty).
  void Add(uint64_t ops, double wall_ms, std::vector<double> latencies_ms);

  int passes() const { return static_cast<int>(rates_.size()); }
  uint64_t ops() const { return ops_; }
  /// Highest per-pass rate (operations per second) and lowest per-pass
  /// median latency.
  double BestRate() const;
  double BestP50() const;
  /// Upper quartile of per-pass rates and lower quartile of per-pass
  /// median latencies.
  double QuartileRate() const;
  double QuartileP50() const;
  /// Whole-run mean rate, for reference only.
  double MeanRate() const;
  /// Percentile over every latency of every pass, for reference only.
  double PooledQuantile(double q) const;

 private:
  uint64_t ops_ = 0;
  double wall_ms_ = 0.0;
  std::vector<double> rates_;
  std::vector<double> p50s_;
  std::vector<double> all_latencies_;
};

/// Per-item minima over passes that repeat the same items in the same
/// order: the lowest time each item took in any pass.
class ItemMinima {
 public:
  /// Records one pass's per-item times; returns false when the pass has
  /// another item count than the first.
  bool Add(const std::vector<double>& ms);

  size_t items() const { return min_ms_.size(); }
  double SumMs() const;
  double MedianMs() const { return Median(min_ms_); }

 private:
  std::vector<double> min_ms_;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(int pid);

/// Closed-loop passes: `clients` threads each make `per_client` calls per
/// pass, each call waiting for the previous one, and a pass ends when every
/// client is done. `prepare(pass)` runs before each pass, outside the
/// timing; `call(client, i)` makes one call. The first `warmup` passes are
/// not logged; after them passes repeat until `seconds` have passed.
template <typename Prepare, typename Call>
void RunClosedLoop(int clients, int per_client, double seconds, int warmup,
                   PassLog* log, Prepare&& prepare, Call&& call) {
  std::atomic<bool> stop{false};
  std::barrier start(clients + 1);
  std::barrier done(clients + 1);
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        start.arrive_and_wait();
        if (stop.load()) return;
        std::vector<double>& mine = latencies[static_cast<size_t>(c)];
        mine.clear();
        for (int i = 0; i < per_client; ++i) {
          const Clock::time_point t0 = Clock::now();
          call(c, i);
          mine.push_back(MsBetween(t0, Clock::now()));
        }
        done.arrive_and_wait();
      }
    });
  }
  Clock::time_point timed_start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass == warmup) timed_start = Clock::now();
    if (pass > warmup && SecondsSince(timed_start) >= seconds) break;
    prepare(pass);
    start.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    done.arrive_and_wait();
    const double wall_ms = MsBetween(t0, Clock::now());
    if (pass < warmup) continue;
    std::vector<double> all;
    for (const std::vector<double>& mine : latencies) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    log->Add(static_cast<uint64_t>(clients) * per_client, wall_ms,
             std::move(all));
  }
  stop.store(true);
  start.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
}

// Workloads. Each fills `result` and records its output checks in
// `checker`.
void RunServeRpc(const RunOptions& options, Checker* checker,
                 RunResult* result);
void RunStreamReplay(const RunOptions& options, Checker* checker,
                     RunResult* result);
void RunPretrain(const RunOptions& options, Checker* checker,
                 RunResult* result);
/// The traced run: times calls into each layer's public functions on the
/// same seeded inputs and reports every per-layer metric.
void RunTraced(const RunOptions& options, Checker* checker,
               RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
