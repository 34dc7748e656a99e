// The four workloads of the search benchmark (see README.md for why each
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace searchbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tools_dir;  // holds ecad_workerd and ecad_searchd
  std::string out_dir;    // daemon logs, checkpoints, trace files
  Clock::time_point start{};  // process start: set-up is timed from here
  /// Reference-figure overrides (0 = the workload's own value): unique
  /// evaluations per search, and the wire version the master offers.
  std::size_t evaluations = 0;
  int max_protocol = 0;
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOutcome {
  std::size_t attempted = 0;  // searches submitted
  std::size_t failed = 0;     // searches that threw or came back failed
  std::size_t evaluations = 0;
  std::vector<std::string> errors;  // violated correctness checks
  std::vector<MetricValue> metrics;
};

/// Run one workload for `options.seconds` of searches; end-to-end metrics
/// when tracing is off, per-layer metrics when it is on.
RunOutcome run_workload(const RunOptions& options);

}  // namespace searchbench
