#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "core/checkpoint.h"
#include "daemon_common.h"
#include "harness.h"

namespace searchbench {

using namespace ecad;

RecordView record_of(const evo::EvolutionResult& result) {
  return {result.history, result.best, result.stats.models_evaluated,
          result.stats.duplicates_skipped};
}

RecordView record_of(const net::SearchRecord& record) {
  return {record.history, record.best, record.models_evaluated, record.duplicates_skipped};
}

namespace {

// Line `index` of a record as tools::format_search_record renders it: one
// per candidate, then the winner, then the counters.
std::string record_line(const RecordView& record, std::size_t index) {
  char buffer[128];
  if (index < record.history.size()) {
    const evo::Candidate& candidate = record.history[index];
    std::snprintf(buffer, sizeof(buffer), " fitness=%.17g", candidate.fitness);
    return "cand " + std::to_string(index) + " " + candidate.genome.key() + buffer +
           tools::format_result_fields(candidate.result);
  }
  if (index == record.history.size()) {
    std::snprintf(buffer, sizeof(buffer), " fitness=%.17g", record.best.fitness);
    return "best " + record.best.genome.key() + buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "stats models=%llu duplicates=%llu",
                static_cast<unsigned long long>(record.models_evaluated),
                static_cast<unsigned long long>(record.duplicates_skipped));
  return buffer;
}

}  // namespace

std::string check_same_record(const RecordView& got, const RecordView& want,
                              const std::string& what) {
  const std::size_t lines = std::max(got.history.size(), want.history.size()) + 2;
  for (std::size_t i = 0; i < lines; ++i) {
    // A shorter record renders its later lines as "best"/"stats" lines, so
    // a length mismatch shows up as a differing line too.
    const std::string a = record_line(got, i);
    const std::string b = record_line(want, i);
    if (a == b) continue;
    std::size_t column = 0;
    while (column < a.size() && column < b.size() && a[column] == b[column]) ++column;
    const std::size_t from = column < 40 ? 0 : column - 40;
    return what + ": record line " + std::to_string(i + 1) + " differs at column " +
           std::to_string(column + 1) + ": got '..." + a.substr(from, 80) + "', want '..." +
           b.substr(from, 80) + "'";
  }
  return {};
}

std::string check_eval_accounting(const std::vector<net::StatsReport>& daemons, double cache_hits,
                                  std::size_t expected, const std::string& what) {
  double evaluated = 0.0;
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    try {
      evaluated += stats_counter(daemons[i], "core.evals_completed_total");
    } catch (const std::exception& e) {
      return what + ": daemon " + std::to_string(i) + ": " + e.what();
    }
  }
  if (evaluated + cache_hits != static_cast<double>(expected)) {
    std::ostringstream out;
    out << what << ": daemons evaluated " << evaluated << " + " << cache_hits
        << " fleet-cache hits != " << expected;
    return out.str();
  }
  return {};
}

double majority_rate(const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  std::map<int, std::size_t> counts;
  for (int label : labels) ++counts[label];
  std::size_t top = 0;
  for (const auto& entry : counts) top = std::max(top, entry.second);
  return static_cast<double>(top) / static_cast<double>(labels.size());
}

std::string check_accuracies(const evo::EvolutionResult& result, double majority) {
  for (const evo::Candidate& candidate : result.history) {
    const double accuracy = candidate.result.accuracy;
    if (!(accuracy >= 0.0 && accuracy <= 1.0)) {
      return "accuracy " + std::to_string(accuracy) + " of " + candidate.genome.key() +
             " is outside [0, 1]";
    }
  }
  if (!(result.best.result.accuracy > majority)) {
    return "best accuracy " + std::to_string(result.best.result.accuracy) +
           " does not beat the majority-class rate " + std::to_string(majority);
  }
  return {};
}

double gemm_flops_per_sample(const evo::Genome& genome, std::size_t inputs, std::size_t outputs) {
  std::vector<std::size_t> widths{inputs};
  widths.insert(widths.end(), genome.nna.hidden.begin(), genome.nna.hidden.end());
  widths.push_back(outputs);
  double flops = 0.0;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    flops += 2.0 * static_cast<double>(widths[l]) * static_cast<double>(widths[l + 1]);
  }
  return flops;
}

std::string check_fpga_fields(const std::vector<evo::Candidate>& history, std::size_t inputs,
                              std::size_t outputs) {
  for (const evo::Candidate& candidate : history) {
    const evo::EvalResult& r = candidate.result;
    if (!r.feasible) continue;
    if (!(r.effective_gflops <= r.potential_gflops)) {
      return candidate.genome.key() + ": effective_gflops " + std::to_string(r.effective_gflops) +
             " > potential_gflops " + std::to_string(r.potential_gflops);
    }
    const double want = gemm_flops_per_sample(candidate.genome, inputs, outputs);
    const double got = r.effective_gflops * 1e9 / r.outputs_per_second;
    if (!(std::fabs(got - want) <= 1e-9 * want)) {
      std::ostringstream out;
      out.precision(17);
      out << candidate.genome.key() << ": effective_gflops*1e9/outputs_per_second = " << got
          << ", GEMM FLOPs per sample = " << want;
      return out.str();
    }
  }
  return {};
}

std::vector<std::string> nondominated_keys(const std::vector<evo::Candidate>& history) {
  const auto dominates = [](const evo::EvalResult& a, const evo::EvalResult& b) {
    return a.accuracy >= b.accuracy && a.outputs_per_second >= b.outputs_per_second &&
           (a.accuracy > b.accuracy || a.outputs_per_second > b.outputs_per_second);
  };
  std::vector<std::string> keys;
  for (const evo::Candidate& candidate : history) {
    if (!candidate.result.feasible) continue;
    const bool dominated =
        std::any_of(history.begin(), history.end(), [&](const evo::Candidate& other) {
          return other.result.feasible && dominates(other.result, candidate.result);
        });
    if (!dominated) keys.push_back(candidate.genome.key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string check_pareto(const std::vector<evo::Candidate>& history,
                         const std::vector<evo::Candidate>& front) {
  std::vector<std::string> got;
  for (const evo::Candidate& candidate : front) got.push_back(candidate.genome.key());
  std::sort(got.begin(), got.end());
  const std::vector<std::string> want = nondominated_keys(history);
  if (got == want) return {};
  std::vector<std::string> extra;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::vector<std::string> missing;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  return "pareto front has " + std::to_string(got.size()) + " candidates, " +
         std::to_string(want.size()) + " are non-dominated" +
         (extra.empty() ? "" : "; dominated on the front: " + extra.front()) +
         (missing.empty() ? "" : "; missing: " + missing.front());
}

std::string check_checkpoint_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::exists(core::done_marker_path(dir, 1))) return dir + ": no done marker";
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename() != fs::path(core::done_marker_path(dir, 1)).filename()) {
      return dir + ": " + entry.path().filename().string() + " remains after the search";
    }
  }
  return {};
}

std::string check_write_bytes(std::uint64_t written, std::uint64_t checkpoint_bytes) {
  if (checkpoint_bytes == 0) return "no checkpoint bytes were persisted";
  if (written < checkpoint_bytes) {
    return "process wrote " + std::to_string(written) + " bytes, checkpoints need " +
           std::to_string(checkpoint_bytes);
  }
  return {};
}

}  // namespace searchbench
