// Daemon processes and NDJSON client connections for the serve_rpc
// workload and the traced run.
#ifndef PERFBENCH_DAEMONS_H_
#define PERFBENCH_DAEMONS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/line_io.h"

namespace perfbench {

/// A child process started from a binary in the build tree. The child gets
/// SIGKILL if the driver dies first, so no daemon outlives a crashed run;
/// Stop() (also run by the destructor, on every exit path) terminates and
/// reaps it.
class Daemon {
 public:
  /// Starts `path` with `args`; stdout and stderr go to `log_path`.
  Daemon(const std::string& path, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// True while the child has not exited.
  bool Alive();
  /// SIGTERM, then SIGKILL after a grace period; always reaps.
  void Stop();
  const std::string& log_path() const { return log_path_; }

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

/// A free loopback TCP port, found by binding port 0. Ports already handed
/// out by this process are skipped.
int FreeLoopbackPort();

/// One blocking NDJSON connection.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:port; false when nothing listens. Every later
  /// Receive gives up after 10 s.
  bool Open(int port, double connect_timeout_ms);
  void Close();
  bool open() const { return fd_ >= 0; }
  bool Send(const std::string& line);
  /// Next response line; false on EOF, error or timeout.
  bool Receive(std::string* line);
  /// Send then Receive.
  bool Call(const std::string& request, std::string* response);

 private:
  int fd_ = -1;
  std::unique_ptr<telekit::serve::LineReader> reader_;
};

/// telekit_serve (the telebert model with its retrieval index, batching
/// and cache at their defaults, 2 workers, 1 compute thread) behind one
/// telekit_router, on free loopback ports.
struct Fleet {
  std::unique_ptr<Daemon> serve;
  std::unique_ptr<Daemon> router;
  int serve_port = 0;
  int router_port = 0;
  /// From spawning the daemons until the first request through the router
  /// succeeded.
  double setup_s = 0.0;
  /// Stops the router first, then the replica.
  void Stop();
  ~Fleet() { Stop(); }
};

/// Starts the fleet for `seed` from the binaries in `bin_dir`, logging to
/// `work_dir`. Set-up ends when `probe_line` sent through the router comes
/// back ok. False (with `error` set) when a daemon dies or 120 s pass.
bool StartFleet(const std::string& bin_dir, const std::string& work_dir,
                uint64_t seed, const std::string& probe_line, Fleet* fleet,
                std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMONS_H_
