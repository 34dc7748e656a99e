// Self-test of the benchmark's correctness checks: each check must accept
// an honest input and reject a sabotaged copy of it.  Run with
// `python3 searchbench/run.py --self-test` (exit 0 = every check works).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "checks.h"
#include "core/checkpoint.h"
#include "core/master.h"
#include "daemon_common.h"
#include "data/benchmarks.h"

namespace searchbench {

using namespace ecad;

namespace {

int failures = 0;

void expect(const std::string& name, const std::string& honest, const std::string& sabotaged) {
  const bool ok = honest.empty() && !sabotaged.empty();
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", name.c_str());
  if (!honest.empty()) std::printf("  honest input rejected: %s\n", honest.c_str());
  if (sabotaged.empty()) std::printf("  sabotaged input accepted\n");
  if (ok) std::printf("  rejects: %s\n", sabotaged.c_str());
  if (!ok) ++failures;
}

net::StatsReport evals_report(double evaluations) {
  net::StatsReport report;
  net::StatsEntry entry;
  entry.name = "core.evals_completed_total";
  entry.value = evaluations;
  report.entries.push_back(entry);
  return report;
}

}  // namespace

int run_self_test(const std::string& out_dir) {
  const core::Master master;

  // Records: one altered result field must break byte equality.
  core::SearchRequest analytic;
  analytic.seed = 3;
  analytic.fitness = "accuracy_x_throughput";
  analytic.evolution.population_size = 8;
  analytic.evolution.max_evaluations = 32;
  analytic.evolution.batch_size = 4;
  const tools::AnalyticWorker worker;
  const evo::EvolutionResult local = master.search(worker, analytic);
  const evo::EvolutionResult rerun = master.search(worker, analytic);
  evo::EvolutionResult altered = local;
  altered.history[5].result.power_watts =
      std::nextafter(altered.history[5].result.power_watts, 1e9);
  expect("record: one altered result field",
         check_same_record(record_of(rerun), record_of(local), "rerun"),
         check_same_record(record_of(altered), record_of(local), "altered"));

  // Accounting: a daemon whose evaluation count is missing is a violation.
  const std::vector<net::StatsReport> honest = {evals_report(20), evals_report(12)};
  std::vector<net::StatsReport> missing = honest;
  missing[1].entries.clear();
  expect("accounting: one missing daemon evaluation count",
         check_eval_accounting(honest, 4.0, 36, "honest"),
         check_eval_accounting(missing, 4.0, 36, "missing"));
  expect("accounting: one evaluation short",
         check_eval_accounting(honest, 4.0, 36, "honest"),
         check_eval_accounting(honest, 3.0, 36, "short"));

  // A small co-design search with training for the train_search checks.
  const data::TrainTestSplit split =
      data::load_benchmark_split(data::Benchmark::Har, 0.1, 5, 0.2);
  nn::TrainOptions train;
  train.epochs = 1;
  const core::FpgaHardwareDatabaseWorker fpga(split, train, 42, hw::arria10_gx1150());
  core::SearchRequest codesign = analytic;
  codesign.evolution.max_evaluations = 24;
  codesign.space.width_choices = {8, 16, 32};
  const evo::EvolutionResult trained = master.search(fpga, codesign);
  const std::vector<evo::Metric> metrics = {evo::Metric::Accuracy, evo::Metric::Throughput};
  const std::vector<evo::Candidate> front = core::Master::pareto_candidates(trained.history, metrics);

  // Pareto: a dominated candidate placed on the front must be caught.
  std::vector<evo::Candidate> padded = front;
  for (const evo::Candidate& candidate : trained.history) {
    const bool on_front = std::any_of(front.begin(), front.end(), [&](const evo::Candidate& f) {
      return f.genome.key() == candidate.genome.key();
    });
    if (candidate.result.feasible && !on_front) {
      padded.push_back(candidate);
      break;
    }
  }
  expect("pareto: one dominated candidate placed on the front",
         check_pareto(trained.history, front), check_pareto(trained.history, padded));

  // FPGA fields: effective GFLOP/s that no longer matches the FLOP count.
  std::vector<evo::Candidate> skewed = trained.history;
  for (evo::Candidate& candidate : skewed) {
    if (candidate.result.feasible) {
      candidate.result.effective_gflops *= 1.000001;
      break;
    }
  }
  const std::size_t inputs = split.train.num_features();
  const std::size_t classes = split.train.num_classes;
  expect("fpga: effective GFLOP/s off the per-sample GEMM FLOPs",
         check_fpga_fields(trained.history, inputs, classes),
         check_fpga_fields(skewed, inputs, classes));

  // Accuracy: outside [0, 1], and a winner no better than the majority class.
  const double majority = majority_rate(split.test.labels);
  evo::EvolutionResult impossible = trained;
  impossible.history[0].result.accuracy = 1.5;
  expect("accuracy: one accuracy above 1", check_accuracies(trained, majority),
         check_accuracies(impossible, majority));
  expect("accuracy: winner at the majority-class rate", check_accuracies(trained, majority),
         check_accuracies(trained, trained.best.result.accuracy));

  // Checkpoint directory: a checkpoint left behind after the done marker.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(out_dir) / "self_test_checkpoints";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(core::done_marker_path(dir.string(), 1)).put('\n');
  const std::string clean = check_checkpoint_dir(dir.string());
  std::ofstream(core::checkpoint_path(dir.string(), 1)).put('\n');
  expect("checkpoint: a checkpoint file remains", clean, check_checkpoint_dir(dir.string()));
  fs::remove_all(dir);

  expect("checkpoint: fewer bytes written than persisted", check_write_bytes(4096, 4000),
         check_write_bytes(3999, 4000));

  std::printf("%s: %d check(s) did not behave\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace searchbench
