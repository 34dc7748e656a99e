// Correctness checks of the search benchmark.  Each returns an empty string
// when the property holds and a one-line description of the first violation
// otherwise.  They check against computations made here, apart from the
// program (dominance, FLOP counts, majority rate), or against properties
// the method must have (determinism, exact evaluation accounting) — never
// against a stored copy of an earlier output.  self_test.cpp feeds each a
// sabotaged input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "evo/engine.h"
#include "net/wire.h"

namespace searchbench {

/// The deterministic record of a search: every candidate with every
/// non-timing result field, the winner and the counters.
struct RecordView {
  const std::vector<ecad::evo::Candidate>& history;
  const ecad::evo::Candidate& best;
  std::uint64_t models_evaluated = 0;
  std::uint64_t duplicates_skipped = 0;
};
RecordView record_of(const ecad::evo::EvolutionResult& result);
RecordView record_of(const ecad::net::SearchRecord& record);

/// Byte-for-byte equality of two records in the daemons' record format
/// (tools/daemon_common.h), compared line by line so no whole record is
/// held in memory; the message names the first differing line.
std::string check_same_record(const RecordView& got, const RecordView& want,
                              const std::string& what);

/// Evaluations the daemons report (core.evals_completed_total summed over
/// their GetStats answers) plus fleet-cache hits must equal `expected`.  A
/// report that lacks the counter is a violation, not a zero.
std::string check_eval_accounting(const std::vector<ecad::net::StatsReport>& daemons,
                                  double cache_hits, std::size_t expected,
                                  const std::string& what);

/// Fraction of the most frequent label in `labels`.
double majority_rate(const std::vector<int>& labels);

/// Every accuracy lies in [0, 1] and the winner's beats `majority`.
std::string check_accuracies(const ecad::evo::EvolutionResult& result, double majority);

/// GEMM FLOPs of one sample through the genome's MLP: 2 * fan-in * fan-out
/// summed over the layers input -> hidden... -> output.
double gemm_flops_per_sample(const ecad::evo::Genome& genome, std::size_t inputs,
                             std::size_t outputs);

/// For every feasible candidate: effective_gflops <= potential_gflops, and
/// effective_gflops * 1e9 / outputs_per_second equals the per-sample GEMM
/// FLOPs of its widths to rounding.
std::string check_fpga_fields(const std::vector<ecad::evo::Candidate>& history,
                              std::size_t inputs, std::size_t outputs);

/// Genome keys of the feasible candidates no other candidate dominates on
/// (accuracy, outputs per second), both maximized.
std::vector<std::string> nondominated_keys(const std::vector<ecad::evo::Candidate>& history);

/// `front` (as Master::pareto_candidates returns it) holds exactly the
/// candidates nondominated_keys() finds.
std::string check_pareto(const std::vector<ecad::evo::Candidate>& history,
                         const std::vector<ecad::evo::Candidate>& front);

/// A finished checkpointed search leaves its done marker and no checkpoint.
std::string check_checkpoint_dir(const std::string& dir);

/// The process wrote at least the checkpoint bytes it was asked to persist.
std::string check_write_bytes(std::uint64_t written, std::uint64_t checkpoint_bytes);

}  // namespace searchbench
