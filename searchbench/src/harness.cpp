#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/metrics.h"

extern char** environ;

namespace searchbench {

using namespace ecad;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer

void Tracer::begin_root(const std::string& name) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  root_id_ = next_id_++;
  root_index_ = spans_.size();
  const std::int64_t now = to_ns(Clock::now());
  spans_.push_back(Span{name, root_id_, 0, root_id_, now, now});
}

void Tracer::end_root() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[root_index_].end_ns = to_ns(Clock::now());
}

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, next_id_++, root_id_, root_id_, to_ns(start), to_ns(end)});
}

double Tracer::root_total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.trace == root_id_ && span.parent != 0 && span.name == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file '" + path + "'");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}%s\n",
                  span.name.c_str(), static_cast<unsigned long long>(span.trace),
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  i + 1 == spans_.size() ? "" : ",");
    out << line;
  }
  out << "]}\n";
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer), name_(name) {
  if (tracer_.enabled()) start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_.enabled()) tracer_.record(name_, start_, Clock::now());
}

// ---------------------------------------------------------------------------
// ProbeWorker

std::vector<evo::EvalOutcome> ProbeWorker::evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                          util::ThreadPool& pool) const {
  dispatched_.fetch_add(genomes.size(), std::memory_order_relaxed);
  Tracer::Scope span(tracer_, "core.dispatch");
  return inner_.evaluate_batch(genomes, pool);
}

void ProbeWorker::CacheProbe::fleet_lookup(const std::vector<evo::Genome>& genomes,
                                           std::vector<evo::EvalOutcome>& outcomes) const {
  Tracer::Scope span(owner_.tracer_, "net.fleet_lookup");
  owner_.inner_.fleet_cache()->fleet_lookup(genomes, outcomes);
}

void ProbeWorker::CacheProbe::fleet_store(const std::vector<evo::Genome>& genomes,
                                          const std::vector<evo::EvalOutcome>& outcomes) const {
  Tracer::Scope span(owner_.tracer_, "net.fleet_store");
  owner_.inner_.fleet_cache()->fleet_store(genomes, outcomes);
}

// ---------------------------------------------------------------------------
// Process readings

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t self_write_bytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  throw std::runtime_error("/proc/self/io has no wchar line");
}

// ---------------------------------------------------------------------------
// Daemon

namespace {

// Reads one line from `fd` within `timeout_ms`; empty on EOF or timeout.
std::string read_line(int fd, int timeout_ms) {
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count());
    if (::poll(&pfd, 1, std::max(left, 1)) <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return {};
    if (c == '\n') return line;
    line.push_back(c);
  }
  return {};
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start '" + binary + "': " + std::strerror(rc));
  }
  const std::string line = read_line(pipe_fds[0], 30000);
  // The daemons print nothing else on stdout; closing the read end after the
  // handshake line is safe.
  ::close(pipe_fds[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0 || port > 65535) {
    stop();
    throw std::runtime_error("'" + binary + "' did not report a port (see " + log_path + ")");
  }
  port_ = static_cast<std::uint16_t>(port);
}

Daemon::~Daemon() { stop(); }

double Daemon::cpu_seconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) throw std::runtime_error("unreadable /proc stat");
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command name start at field 3 (state); utime and stime
  // are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Daemon::Exit Daemon::stop() {
  if (stopped_ || pid_ <= 0) return exit_;
  stopped_ = true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
  pid_t reaped = 0;
  while ((reaped = ::wait4(pid_, &status, WNOHANG, &usage)) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      reaped = ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == pid_) {
    exit_.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    exit_.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return exit_;
}

net::StatsReport daemon_stats(const Daemon& daemon) {
  return net::fetch_stats("127.0.0.1", daemon.port(), "");
}

double stats_counter(const net::StatsReport& report, const std::string& name) {
  for (const net::StatsEntry& entry : report.entries) {
    if (entry.name == name) return entry.value;
  }
  throw std::runtime_error("stats report has no '" + name + "'");
}

net::StatsEntry stats_histogram(const net::StatsReport& report, const std::string& name) {
  net::StatsEntry merged;
  merged.name = name;
  merged.buckets.assign(util::Histogram::kBuckets, 0);
  for (const net::StatsEntry& entry : report.entries) {
    const bool labelled = entry.name.rfind(name + "{", 0) == 0;
    if (entry.name != name && !labelled) continue;
    merged.count += entry.count;
    merged.sum += entry.sum;
    for (std::size_t i = 0; i < entry.buckets.size() && i < merged.buckets.size(); ++i) {
      merged.buckets[i] += entry.buckets[i];
    }
  }
  return merged;
}

}  // namespace searchbench
