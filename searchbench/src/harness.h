// Measurement plumbing of the search benchmark: in-memory spans, the
// decorating worker that times calls into the library, daemon processes,
// and per-process CPU / memory readings.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/eval_pipeline.h"
#include "core/worker.h"
#include "net/stats.h"

namespace searchbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// One timed call: name, start/end on the steady clock, the span that
/// caused it (0 = root) and the root span's id shared by every span of one
/// search or replay.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span recorder.  Disabled, it records nothing and costs one branch per
/// call site; enabled, spans are kept in memory and written once by
/// write_chrome_trace() when the run ends.  Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a root span (a search or a replay) that later spans hang under
  /// until end_root().  Roots are sequential: one search runs at a time.
  void begin_root(const std::string& name);
  void end_root();

  /// Sum of the durations of the spans called `name` under the most recent
  /// root, in seconds.
  double root_total_seconds(const std::string& name) const;

  /// Chrome trace-event JSON (one complete event per span); throws on an
  /// unwritable path.
  void write_chrome_trace(const std::string& path) const;

  /// RAII span under the current root.  A no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point start_{};
  };

 private:
  void record(const char* name, Clock::time_point start, Clock::time_point end);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::size_t root_index_ = 0;  // index of the open root span in spans_
  std::uint64_t root_id_ = 0;
};

/// Decorating core::Worker: forwards evaluate_batch to the wrapped worker,
/// counting the genomes it dispatches and timing each call as a
/// "core.dispatch" span; wraps the wrapped worker's fleet cache (when it has
/// one) so every fleet_lookup / fleet_store is timed as well.  The pipeline
/// sees the same cache presence as with the bare worker, so searches through
/// the probe take the same path and produce the same records.
class ProbeWorker final : public ecad::core::Worker {
 public:
  /// `inner` and `tracer` are borrowed and must outlive the probe.
  ProbeWorker(const ecad::core::Worker& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), cache_(*this) {}

  std::string name() const override { return inner_.name(); }
  ecad::evo::EvalResult evaluate(const ecad::evo::Genome& genome) const override {
    return inner_.evaluate(genome);
  }
  std::vector<ecad::evo::EvalOutcome> evaluate_batch(const std::vector<ecad::evo::Genome>& genomes,
                                                     ecad::util::ThreadPool& pool) const override;
  const ecad::core::FleetEvalCache* fleet_cache() const override {
    return inner_.fleet_cache() == nullptr ? nullptr : &cache_;
  }

  /// Genomes handed to the wrapped worker's evaluate_batch so far.
  std::size_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }

 private:
  class CacheProbe final : public ecad::core::FleetEvalCache {
   public:
    explicit CacheProbe(const ProbeWorker& owner) : owner_(owner) {}
    void fleet_lookup(const std::vector<ecad::evo::Genome>& genomes,
                      std::vector<ecad::evo::EvalOutcome>& outcomes) const override;
    void fleet_store(const std::vector<ecad::evo::Genome>& genomes,
                     const std::vector<ecad::evo::EvalOutcome>& outcomes) const override;

   private:
    const ProbeWorker& owner_;
  };

  const ecad::core::Worker& inner_;
  Tracer& tracer_;
  CacheProbe cache_;
  mutable std::atomic<std::size_t> dispatched_{0};
};

/// CPU seconds (user + system) this process has used, all threads.
double self_cpu_seconds();
/// Peak resident set of this process, MiB.
double self_peak_rss_mib();
/// Bytes this process has passed to write-like syscalls (/proc/self/io wchar).
std::uint64_t self_write_bytes();

/// A daemon child process (ecad_workerd / ecad_searchd) launched with
/// `--port 0`; the constructor returns once it printed "LISTENING <port>".
/// Its stderr goes to `log_path`.  The destructor stops
/// a daemon still running (SIGTERM, then SIGKILL) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port_); }
  /// CPU seconds used so far (from /proc, clock-tick resolution).
  double cpu_seconds() const;

  struct Exit {
    double peak_rss_mib = 0.0;
    bool clean = false;  // exited with status 0 after SIGTERM
  };
  /// SIGTERM, wait (SIGKILL after a grace period), reap.  Idempotent: later
  /// calls return the first result.
  Exit stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  bool stopped_ = false;
  Exit exit_;
};

/// GetStats from a daemon, every metric (throws on connection failure).
ecad::net::StatsReport daemon_stats(const Daemon& daemon);

/// Value of counter `name` in `report`; throws std::runtime_error when the
/// report lacks it.
double stats_counter(const ecad::net::StatsReport& report, const std::string& name);
/// Summed count/sum/buckets of every histogram named `name` or
/// `name{...}` (labelled series) in `report`.
ecad::net::StatsEntry stats_histogram(const ecad::net::StatsReport& report,
                                      const std::string& name);

}  // namespace searchbench
