// perfbench_driver: runs one benchmark workload and prints its result as
// the last line of stdout.
//
//   perfbench_driver --workload=serve_rpc --seed=7 --seconds=10 --trace=0
//       --bin-dir=.bench_build/telekit --work-dir=.bench_build/run
//
// perfbench/run.py builds it and passes these flags.
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the traced
// measurement instead and prints the per-layer metrics. The exit code is 0
// only when every output check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/log.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Checker::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failures_;
  if (messages_.size() < 20) messages_.push_back(what);
}

void PassLog::Add(uint64_t ops, double wall_ms,
                  std::vector<double> latencies_ms) {
  ops_ += ops;
  wall_ms_ += wall_ms;
  rates_.push_back(wall_ms > 0.0 ? 1000.0 * static_cast<double>(ops) / wall_ms
                                 : 0.0);
  if (!latencies_ms.empty()) {
    p50s_.push_back(Median(latencies_ms));
    all_latencies_.insert(all_latencies_.end(), latencies_ms.begin(),
                          latencies_ms.end());
  }
}

double PassLog::BestRate() const { return Quantile(rates_, 1.0); }

double PassLog::BestP50() const { return Quantile(p50s_, 0.0); }

double PassLog::QuartileRate() const { return Quantile(rates_, 0.75); }

double PassLog::QuartileP50() const { return Quantile(p50s_, 0.25); }

double PassLog::MeanRate() const {
  return wall_ms_ > 0.0 ? 1000.0 * static_cast<double>(ops_) / wall_ms_ : 0.0;
}

double PassLog::PooledQuantile(double q) const {
  return Quantile(all_latencies_, q);
}

bool ItemMinima::Add(const std::vector<double>& ms) {
  if (min_ms_.empty()) {
    min_ms_ = ms;
    return true;
  }
  if (ms.size() != min_ms_.size()) return false;
  for (size_t i = 0; i < ms.size(); ++i) {
    min_ms_[i] = std::min(min_ms_[i], ms[i]);
  }
  return true;
}

double ItemMinima::SumMs() const {
  double sum = 0.0;
  for (double ms : min_ms_) sum += ms;
  return sum;
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

namespace {

bool TakeFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload=serve_rpc|stream_replay|"
               "pretrain --seed=N --seconds=S --trace=0|1 --bin-dir=DIR "
               "--work-dir=DIR\n";
  return 2;
}

void PrintResult(bool correct, const RunResult& result, bool trace) {
  std::cerr << "perfbench: reference figures ("
            << (trace ? "traced" : "untraced") << " run, not metrics):\n";
  for (const auto& [name, value] : result.reference) {
    std::cerr << "  " << name << " = " << value << "\n";
  }
  // Printed by hand so every value keeps all 17 significant digits.
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += (i > 0 ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.process_start = Clock::now();
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (TakeFlag(arg, "workload", &v)) {
      options.workload = v;
    } else if (TakeFlag(arg, "seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (TakeFlag(arg, "seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (TakeFlag(arg, "trace", &v)) {
      trace = v;
    } else if (TakeFlag(arg, "bin-dir", &v)) {
      options.bin_dir = v;
    } else if (TakeFlag(arg, "work-dir", &v)) {
      options.work_dir = v;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (options.bin_dir.empty() || options.work_dir.empty()) {
    return Usage("--bin-dir and --work-dir are required");
  }
  // The program logs at INFO by default; its log lines are not results.
  telekit::obs::Logger::Global().set_level(telekit::obs::LogLevel::kWarn);

  if (options.workload != "serve_rpc" && options.workload != "stream_replay" &&
      options.workload != "pretrain") {
    return Usage("unknown workload '" + options.workload + "'");
  }

  Checker checker;
  RunResult result;
  // The traced run reports the same layers whichever workload it names.
  if (options.trace) {
    RunTraced(options, &checker, &result);
  } else if (options.workload == "serve_rpc") {
    RunServeRpc(options, &checker, &result);
  } else if (options.workload == "stream_replay") {
    RunStreamReplay(options, &checker, &result);
  } else {
    RunPretrain(options, &checker, &result);
  }

  std::cerr << "perfbench: " << checker.checks() << " output checks, "
            << checker.failures() << " failed\n";
  for (const std::string& message : checker.messages()) {
    std::cerr << "  check failed: " << message << "\n";
  }
  // End-to-end metrics are never 0 when all goes well; per-layer ones may
  // be differences of two paths and read 0 or less.
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value) || (!options.trace && metric.value <= 0.0)) {
      checker.Expect(false, "metric " + metric.name + " is out of range");
      std::cerr << "  check failed: metric " << metric.name << " = "
                << metric.value << "\n";
    }
  }
  std::cerr << "perfbench: attempted " << result.attempted << ", failed "
            << result.failed << "\n";
  PrintResult(checker.ok(), result, options.trace);
  return checker.ok() ? 0 : 1;
}
