#include "daemons.h"

#include "obs/json.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <set>
#include <thread>

namespace perfbench {

Daemon::Daemon(const std::string& path, const std::vector<std::string>& args,
               const std::string& log_path)
    : log_path_(log_path) {
  std::vector<std::string> storage;
  storage.push_back(path);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (null_fd >= 0) ::dup2(null_fd, 0);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  if (null_fd >= 0) ::close(null_fd);
}

Daemon::~Daemon() { Stop(); }

bool Daemon::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t done = ::waitpid(pid_, &status, WNOHANG);
  if (done == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

int FreeLoopbackPort() {
  static std::set<int> handed_out;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    int port = -1;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
    ::close(fd);
    if (port > 0 && handed_out.insert(port).second) return port;
  }
  return -1;
}

Connection::~Connection() { Close(); }

bool Connection::Open(int port, double connect_timeout_ms) {
  Close();
  fd_ = telekit::serve::ConnectTcp("127.0.0.1", port, connect_timeout_ms);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  reader_ = std::make_unique<telekit::serve::LineReader>(fd_);
  return true;
}

void Connection::Close() {
  reader_.reset();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Connection::Send(const std::string& line) {
  return fd_ >= 0 && telekit::serve::SendLine(fd_, line);
}

bool Connection::Receive(std::string* line) {
  return reader_ != nullptr && reader_->ReadLine(line);
}

bool Connection::Call(const std::string& request, std::string* response) {
  return Send(request) && Receive(response);
}

void Fleet::Stop() {
  if (router != nullptr) router->Stop();
  if (serve != nullptr) serve->Stop();
}

bool StartFleet(const std::string& bin_dir, const std::string& work_dir,
                uint64_t seed, const std::string& probe_line, Fleet* fleet,
                std::string* error) {
  fleet->serve_port = FreeLoopbackPort();
  const int admin_port = FreeLoopbackPort();
  fleet->router_port = FreeLoopbackPort();
  if (fleet->serve_port <= 0 || admin_port <= 0 || fleet->router_port <= 0) {
    *error = "no free loopback port";
    return false;
  }
  const auto started = std::chrono::steady_clock::now();
  const auto deadline = started + std::chrono::seconds(120);
  auto poll = [&](Daemon* daemon, const std::function<bool()>& ready,
                  const std::string& what) {
    while (!ready()) {
      if (!daemon->Alive()) {
        *error = what + " exited during start-up; see " + daemon->log_path();
        return false;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        *error = what + " not ready after 120 s; see " + daemon->log_path();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  };

  // The replica first: telekit_serve opens its data port only once the
  // model, index and catalogues are built, so a router started after it
  // never sees the replica unready.
  fleet->serve = std::make_unique<Daemon>(
      bin_dir + "/serve/telekit_serve",
      std::vector<std::string>{
          "--port=" + std::to_string(fleet->serve_port),
          "--admin-port=" + std::to_string(admin_port), "--workers=2",
          "--compute-threads=1", "--seed=" + std::to_string(seed),
          "--log-level=warn"},
      work_dir + "/telekit_serve.log");
  Connection probe;
  if (!poll(fleet->serve.get(),
            [&] { return probe.Open(fleet->serve_port, 200.0); },
            "telekit_serve")) {
    return false;
  }
  probe.Close();

  fleet->router = std::make_unique<Daemon>(
      bin_dir + "/route/telekit_router",
      std::vector<std::string>{
          "--port=" + std::to_string(fleet->router_port),
          "--replica=127.0.0.1:" + std::to_string(fleet->serve_port) + ":" +
              std::to_string(admin_port),
          "--log-level=warn"},
      work_dir + "/telekit_router.log");
  std::string response;
  const bool served = poll(
      fleet->router.get(),
      [&] {
        if (!probe.open() && !probe.Open(fleet->router_port, 200.0)) {
          return false;
        }
        if (!probe.Call(probe_line, &response)) {
          probe.Close();
          return false;
        }
        telekit::obs::JsonValue parsed;
        const telekit::obs::JsonValue* ok = nullptr;
        return telekit::obs::JsonValue::Parse(response, &parsed) &&
               (ok = parsed.Find("ok")) != nullptr && ok->is_bool() &&
               ok->AsBool();
      },
      "telekit_router");
  if (!served) return false;
  fleet->setup_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return true;
}

}  // namespace perfbench
