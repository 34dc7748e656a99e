// searchbench — end-to-end and per-layer benchmark of the co-design search.
//
//   searchbench --workload W --seed N --seconds S --trace 0|1
//               --tools-dir DIR --out-dir DIR [--start-ns T]
//   searchbench --self-test --out-dir DIR
//
// Prints one JSON object on stdout: whether every correctness check held,
// the searches attempted and failed, and the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1).  Progress and check failures go to
// stderr.  run.py builds this program and is the usual way to run it.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace searchbench {
int run_self_test(const std::string& out_dir);
}

namespace {

using namespace searchbench;

void print_result(const RunOutcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const MetricValue& metric = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // The process start the set-up time is measured from; run.py passes the
  // instant it launched this process (same monotonic clock) so loading the
  // binary counts too.
  RunOptions options;
  options.start = Clock::now();
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--tools-dir") {
        options.tools_dir = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--start-ns") {
        options.start = Clock::time_point(std::chrono::nanoseconds(std::stoll(value)));
      } else if (flag == "--evaluations") {
        options.evaluations = std::stoull(value);
      } else if (flag == "--max-protocol") {
        options.max_protocol = std::stoi(value);
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (options.out_dir.empty()) throw std::invalid_argument("--out-dir is required");
    std::filesystem::create_directories(options.out_dir);
    ecad::util::set_log_level(ecad::util::LogLevel::Warn);
    if (self_test) return run_self_test(options.out_dir);
    if (options.tools_dir.empty()) throw std::invalid_argument("--tools-dir is required");
    const RunOutcome outcome = run_workload(options);
    print_result(outcome);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "searchbench: %s\n", e.what());
    return 1;
  }
}
