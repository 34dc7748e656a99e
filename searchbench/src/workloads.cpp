#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "checks.h"
#include "core/checkpoint.h"
#include "core/master.h"
#include "daemon_common.h"
#include "data/benchmarks.h"
#include "hwmodel/fpga_model.h"
#include "hwmodel/resource_model.h"
#include "linalg/gemm.h"
#include "net/fleet_cache.h"
#include "net/remote_worker.h"
#include "net/search_client.h"
#include "nn/trainer.h"
#include "util/metrics.h"

namespace searchbench {

using namespace ecad;

namespace {

// ---------------------------------------------------------------------------
// Workload make-up.  Every search uses the paper's co-design fitness and a
// fixed offspring batch, so its trajectory does not depend on core count.

// train_search: the HAR surrogate (561 features, 6 classes) at a quarter of
// its default 2060 samples, 3 epochs per candidate, Arria 10 hardware model.
constexpr double kHarScale = 0.125;
constexpr std::size_t kTrainEpochs = 1;
constexpr std::size_t kTrainPopulation = 60;
constexpr std::size_t kTrainEvaluations = 72;
constexpr std::size_t kTrainBatch = 6;
constexpr std::size_t kTrainThreads = 3;
constexpr std::uint64_t kEvalSeed = 42;
const std::vector<std::size_t> kTrainWidths = {32, 64, 128, 256, 512};
constexpr std::size_t kTrainMaxLayers = 3;
// Genomes replayed layer by layer in a traced run (from its first search).
constexpr std::size_t kReplayGenomes = 16;

// The analytic workloads.  A wire search is a chain of loopback round trips
// and thread hand-offs whose wake-up latency depends on how busy the shared
// 4-vCPU host is, so the wire workloads ship large batches: at batches of 8
// or 32, evals/s moved 10-28% between identical runs.  The served search
// hands each generation across more threads and processes than the fleet
// search and moved most, so it ships the largest batch.  The checkpointed
// search keeps the batch of 8 its quadratic cost was first measured at.
// Pool widths keep the busy threads of master and daemons within four.
constexpr std::size_t kFleetPopulation = 64;
constexpr std::size_t kFleetBatch = 64;
constexpr std::size_t kServedPopulation = 128;
constexpr std::size_t kServedBatch = 128;
constexpr std::size_t kCheckpointPopulation = 16;
constexpr std::size_t kCheckpointBatch = 8;
constexpr std::size_t kFleetEvaluations = 8192;
constexpr std::size_t kServedEvaluations = 4096;
constexpr std::size_t kCheckpointEvaluations = 4096;
constexpr std::size_t kMasterThreads = 2;
constexpr std::size_t kCheckpointThreads = 1;
// 8 MiB of 256-byte entries: eight searches' worth.  The tier fills early in
// a run and then evicts least-recently-used entries, so its memory does not
// grow with the number of searches a run completes; a rerun follows its
// fresh search directly and always finds all of its entries.
constexpr const char* kServedCacheBytes = "8388608";

const std::vector<evo::Metric> kParetoMetrics = {evo::Metric::Accuracy, evo::Metric::Throughput};

// Per-layer metrics, in the order BENCHMARK.json lists them.  A layer a
// workload does not pass through reads 0 (README.md lists which apply).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"linalg.gemm_gflops", "GFLOP/s"},
    {"nn.train_ms_per_eval", "ms"},
    {"nn.train_gflops", "GFLOP/s"},
    {"nn.infer_ms_per_eval", "ms"},
    {"hwmodel.model_us_per_eval", "us"},
    {"core.dispatch_us_per_eval", "us"},
    {"evo.engine_us_per_eval", "us"},
    {"evo.duplicates_skipped", "count"},
    {"net.fleet_lookup_us_per_eval", "us"},
    {"net.fleet_store_us_per_eval", "us"},
    {"net.fleet_hit_ratio", "ratio"},
    {"net.item_rtt_p50_us", "us"},
    {"net.remote_eval_us_per_eval", "us"},
    {"core.gate_wait_ms", "ms"},
    {"core.checkpoint_us_per_eval", "us"},
    {"core.checkpoint_bytes_per_eval", "bytes"},
    {"bench.traced_evals_per_s", "evals/s"},
};

std::uint64_t search_seed(std::uint64_t run_seed, std::size_t index) {
  return run_seed * 1000 + index + 1;
}

core::SearchRequest make_request(std::uint64_t seed, std::size_t population,
                                 std::size_t evaluations, std::size_t batch,
                                 std::size_t threads) {
  core::SearchRequest request;
  request.seed = seed;
  request.fitness = "accuracy_x_throughput";
  request.evolution.population_size = population;
  request.evolution.max_evaluations = evaluations;
  request.evolution.batch_size = batch;
  request.threads = threads;
  return request;
}

/// The fleet-cache identity ecad_searchd derives for a default analytic
/// worker spec (all daemons here run one).
std::string analytic_cache_config() {
  const tools::WorkerConfig config;
  net::EvalConfigId id;
  id.worker_kind = config.kind;
  id.data_seed = config.data_seed;
  id.data_samples = config.data_samples;
  id.data_features = config.data_features;
  id.data_classes = config.data_classes;
  id.train_epochs = config.train_epochs;
  id.eval_seed = config.eval_seed;
  return id.to_string();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// One timed search (or, in served_rerun, one fresh + rerun pair).
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // this process only
  std::size_t evaluations = 0;
  std::size_t duplicates = 0;
  // Time inside the benchmark's probes during the search (traced runs).
  double dispatch_s = 0.0;
  double lookup_s = 0.0;
  double store_s = 0.0;
  double checkpoint_s = 0.0;
};

/// Everything a workload accumulates over its run.
class Run {
 public:
  explicit Run(const RunOptions& options) : options_(options), tracer_(options.trace) {}

  Tracer& tracer() { return tracer_; }
  const RunOptions& options() const { return options_; }

  void mark_setup_done() { setup_s_ = seconds_since(options_.start); }

  /// Rounds back to back until the run's seconds are spent (at least one).
  void rounds(const std::function<void(std::size_t)>& round) {
    const Clock::time_point start = Clock::now();
    std::size_t index = 0;
    do {
      round(index++);
    } while (seconds_since(start) < options_.seconds);
  }

  /// Time `search` as one sample; false (and a failed operation) when it
  /// throws.
  bool timed_search(const std::function<evo::EvolutionResult()>& search,
                    evo::EvolutionResult& result) {
    ++outcome_.attempted;
    tracer_.begin_root("search");
    const double cpu_start = self_cpu_seconds();
    const Clock::time_point start = Clock::now();
    try {
      result = search();
    } catch (const std::exception& e) {
      tracer_.end_root();
      ++outcome_.failed;
      std::fprintf(stderr, "search failed: %s\n", e.what());
      return false;
    }
    Sample sample;
    sample.wall_s = seconds_since(start);
    sample.cpu_s = self_cpu_seconds() - cpu_start;
    tracer_.end_root();
    sample.evaluations = result.stats.models_evaluated;
    sample.duplicates = result.stats.duplicates_skipped;
    sample.dispatch_s = tracer_.root_total_seconds("core.dispatch");
    sample.lookup_s = tracer_.root_total_seconds("net.fleet_lookup");
    sample.store_s = tracer_.root_total_seconds("net.fleet_store");
    sample.checkpoint_s = tracer_.root_total_seconds("core.checkpoint_write");
    add_sample(sample);
    return true;
  }

  void add_sample(const Sample& sample) {
    std::fprintf(stderr, "  sample %zu: %zu evaluations in %.4f s (%.1f evals/s), cpu %.4f s\n",
                 samples_.size(), sample.evaluations, sample.wall_s,
                 static_cast<double>(sample.evaluations) / sample.wall_s, sample.cpu_s);
    samples_.push_back(sample);
    outcome_.evaluations += sample.evaluations;
  }
  void count_attempt() { ++outcome_.attempted; }
  void count_failure() { ++outcome_.failed; }

  void check(const std::string& error) {
    if (error.empty()) return;
    if (outcome_.errors.size() < 8) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
    outcome_.errors.push_back(error);
  }

  void set_layer(const std::string& name, double value) { layers_[name] = value; }

  std::size_t evaluations() const { return outcome_.evaluations; }

  /// Engine-side layer split from the samples' probe totals.
  void set_engine_layers(bool engine_measured) {
    double dispatch = 0.0, lookup = 0.0, store = 0.0, checkpoint = 0.0, engine = 0.0;
    double duplicates = 0.0;
    for (const Sample& s : samples_) {
      dispatch += s.dispatch_s;
      lookup += s.lookup_s;
      store += s.store_s;
      checkpoint += s.checkpoint_s;
      engine += s.wall_s - s.dispatch_s - s.lookup_s - s.store_s - s.checkpoint_s;
      duplicates += static_cast<double>(s.duplicates);
    }
    const double per_eval_us = 1e6 / std::max<double>(1.0, static_cast<double>(evaluations()));
    set_layer("core.dispatch_us_per_eval", dispatch * per_eval_us);
    set_layer("net.fleet_lookup_us_per_eval", lookup * per_eval_us);
    set_layer("net.fleet_store_us_per_eval", store * per_eval_us);
    set_layer("core.checkpoint_us_per_eval", checkpoint * per_eval_us);
    if (engine_measured) set_layer("evo.engine_us_per_eval", engine * per_eval_us);
    const std::size_t searches = outcome_.attempted - outcome_.failed;
    set_layer("evo.duplicates_skipped",
              duplicates / std::max<double>(1.0, static_cast<double>(searches)));
  }

  /// The run's result: end-to-end metrics untraced, per-layer traced.
  /// `other_cpu_s` is the daemons' CPU over the timed rounds, `peak_rss_mib`
  /// the largest daemon peak.
  RunOutcome finish(double other_cpu_s, double daemon_peak_rss_mib) {
    std::vector<double> rates;
    double cpu = other_cpu_s;
    for (const Sample& s : samples_) {
      rates.push_back(static_cast<double>(s.evaluations) / s.wall_s);
      cpu += s.cpu_s;
    }
    const double evals_per_s = median(rates);
    std::fprintf(stderr, "%s seed %llu: %zu searches, %zu evaluations, %.1f evals/s, setup %.4f s\n",
                 options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                 outcome_.attempted, outcome_.evaluations, evals_per_s, setup_s_);
    if (options_.trace) {
      set_layer("bench.traced_evals_per_s", evals_per_s);
      for (const auto& [name, unit] : kLayerMetrics) {
        const auto it = layers_.find(name);
        outcome_.metrics.push_back({name, unit, it == layers_.end() ? 0.0 : it->second});
      }
      const std::string path = options_.out_dir + "/trace_" + options_.workload + "_seed" +
                               std::to_string(options_.seed) + ".json";
      tracer_.write_chrome_trace(path);
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    } else {
      const double evals = std::max<double>(1.0, static_cast<double>(outcome_.evaluations));
      outcome_.metrics.push_back({"evals_per_s", "evals/s", evals_per_s});
      outcome_.metrics.push_back({"setup_s", "s", setup_s_});
      outcome_.metrics.push_back({"cpu_ms_per_eval", "ms", cpu * 1e3 / evals});
      outcome_.metrics.push_back(
          {"peak_rss_mb", "MiB", std::max(self_peak_rss_mib(), daemon_peak_rss_mib)});
    }
    return outcome_;
  }

 private:
  const RunOptions& options_;
  Tracer tracer_;
  RunOutcome outcome_;
  std::vector<Sample> samples_;
  std::map<std::string, double> layers_;
  double setup_s_ = 0.0;
};

std::string log_path(const RunOptions& options, const std::string& name) {
  return options.out_dir + "/" + options.workload + "_seed" + std::to_string(options.seed) + "_" +
         name + ".log";
}

std::unique_ptr<Daemon> start_workerd(const RunOptions& options, const std::string& name,
                                      const std::vector<std::string>& extra) {
  std::vector<std::string> args = {"--port", "0", "--threads", "1", "--worker", "analytic",
                                   "--log-level", "warn"};
  args.insert(args.end(), extra.begin(), extra.end());
  return std::make_unique<Daemon>(options.tools_dir + "/ecad_workerd", args,
                                  log_path(options, name));
}

double registry_counter(const std::string& name) {
  return static_cast<double>(util::metrics().counter(name).value());
}

double hit_ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

double p50_us(const net::StatsEntry& histogram) {
  return util::quantile_from_buckets(histogram.buckets, 0.5) * 1e6;
}

// ---------------------------------------------------------------------------
// train_search

/// Useful training FLOPs of one sample through `spec` for one epoch: the
/// forward GEMM, the weight-gradient GEMM, and the input-gradient GEMM of
/// every layer but the first (no gradient flows into the data).
double train_flops_per_sample(const nn::MlpSpec& spec) {
  const std::vector<std::size_t> dims = spec.layer_dims();
  double flops = 0.0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const double gemm = 2.0 * static_cast<double>(dims[l]) * static_cast<double>(dims[l + 1]);
    flops += gemm * (l == 0 ? 2.0 : 3.0);
  }
  return flops;
}

/// Replays the layers below the worker on the genomes a search evaluated:
/// nn::train and nn::evaluate_accuracy, hw::evaluate_fpga +
/// hw::estimate_physical, and linalg::gemm on each trained layer's
/// minibatch x fan-in x fan-out shape.
void replay_layers(Run& run, const std::vector<evo::Candidate>& history,
                   const data::TrainTestSplit& split, const nn::TrainOptions& train_options,
                   const hw::FpgaDevice& device) {
  Tracer& tracer = run.tracer();
  const std::size_t inputs = split.train.num_features();
  const std::size_t outputs = split.train.num_classes;
  double train_s = 0.0, infer_s = 0.0, train_flops = 0.0, model_s = 0.0;
  double gemm_s = 0.0, gemm_flops = 0.0;
  std::size_t replayed = 0;
  std::size_t modelled = 0;
  constexpr std::size_t kModelRepeats = 200;
  for (const evo::Candidate& candidate : history) {
    if (replayed == kReplayGenomes) break;
    if (!candidate.result.feasible) continue;
    const nn::MlpSpec spec = candidate.genome.nna.to_mlp_spec(inputs, outputs);
    tracer.begin_root("replay");
    {
      util::Rng rng(run.options().seed * 7919 + replayed);
      nn::Mlp mlp(spec, rng);
      const Clock::time_point t0 = Clock::now();
      nn::TrainResult trained;
      {
        Tracer::Scope span(tracer, "nn.train");
        trained = nn::train(mlp, split.train, nullptr, train_options, rng);
      }
      const Clock::time_point t1 = Clock::now();
      {
        Tracer::Scope span(tracer, "nn.infer");
        const double accuracy = nn::evaluate_accuracy(mlp, split.test);
        if (!(accuracy >= 0.0 && accuracy <= 1.0)) run.check("replayed accuracy out of range");
      }
      infer_s += seconds_since(t1);
      train_s += std::chrono::duration<double>(t1 - t0).count();
      train_flops += train_flops_per_sample(spec) *
                     static_cast<double>(split.train.num_samples()) *
                     static_cast<double>(trained.epochs_run);
    }
    {
      Tracer::Scope span(tracer, "hwmodel.evaluate");
      const Clock::time_point t0 = Clock::now();
      double sink = 0.0;
      for (std::size_t r = 0; r < kModelRepeats; ++r) {
        sink += hw::evaluate_fpga(spec, 256, candidate.genome.grid, device).outputs_per_second;
        sink += hw::estimate_physical(candidate.genome.grid, device).power_watts;
      }
      model_s += seconds_since(t0);
      modelled += kModelRepeats;
      if (!(sink > 0.0)) run.check("hardware model replay returned no throughput");
    }
    {
      Tracer::Scope span(tracer, "linalg.gemm");
      const std::vector<std::size_t> dims = spec.layer_dims();
      for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        const linalg::Matrix a(train_options.batch_size, dims[l], 0.5f);
        const linalg::Matrix b(dims[l], dims[l + 1], 0.25f);
        linalg::Matrix c(train_options.batch_size, dims[l + 1]);
        const double flops =
            static_cast<double>(linalg::gemm_flops(train_options.batch_size, dims[l], dims[l + 1]));
        // At least 4 MFLOP per shape, so small layers are timed well above
        // the clock's resolution.
        const std::size_t repeats = std::max<std::size_t>(1, static_cast<std::size_t>(4e6 / flops));
        const Clock::time_point t0 = Clock::now();
        for (std::size_t r = 0; r < repeats; ++r) linalg::gemm_blocked(a, b, c);
        gemm_s += seconds_since(t0);
        gemm_flops += flops * static_cast<double>(repeats);
      }
    }
    tracer.end_root();
    ++replayed;
  }
  if (replayed == 0) {
    run.check("no feasible candidate to replay");
    return;
  }
  const double n = static_cast<double>(replayed);
  run.set_layer("nn.train_ms_per_eval", train_s * 1e3 / n);
  run.set_layer("nn.train_gflops", train_flops / train_s / 1e9);
  run.set_layer("nn.infer_ms_per_eval", infer_s * 1e3 / n);
  run.set_layer("hwmodel.model_us_per_eval", model_s * 1e6 / static_cast<double>(modelled));
  run.set_layer("linalg.gemm_gflops", gemm_flops / gemm_s / 1e9);
}

RunOutcome train_search(const RunOptions& options) {
  Run run(options);
  const data::TrainTestSplit split =
      data::load_benchmark_split(data::Benchmark::Har, kHarScale, options.seed, 0.2);
  nn::TrainOptions train_options;
  train_options.epochs = kTrainEpochs;
  const hw::FpgaDevice device = hw::arria10_gx1150();
  const core::FpgaHardwareDatabaseWorker worker(split, train_options, kEvalSeed, device);
  const ProbeWorker probe(worker, run.tracer());
  const core::Master master;
  const double majority = majority_rate(split.test.labels);
  const std::size_t evaluations = options.evaluations ? options.evaluations : kTrainEvaluations;
  std::vector<evo::Candidate> first_history;
  run.mark_setup_done();

  run.rounds([&](std::size_t index) {
    core::SearchRequest request = make_request(search_seed(options.seed, index),
                                               kTrainPopulation, evaluations, kTrainBatch,
                                               kTrainThreads);
    request.space.width_choices = kTrainWidths;
    request.space.max_hidden_layers = kTrainMaxLayers;
    evo::EvolutionResult result;
    if (!run.timed_search([&] { return master.search(probe, request); }, result)) return;
    const std::string what = "train_search seed " + std::to_string(request.seed);
    run.check(check_accuracies(result, majority));
    run.check(check_fpga_fields(result.history, split.train.num_features(),
                                split.train.num_classes));
    run.check(check_pareto(result.history,
                           core::Master::pareto_candidates(result.history, kParetoMetrics)));
    run.check(probe.dispatched() == run.evaluations()
                  ? std::string()
                  : what + ": the worker was asked for " + std::to_string(probe.dispatched()) +
                        " evaluations, the records hold " + std::to_string(run.evaluations()));
    if (index == 0 && options.trace) {
      // The traced record must equal the untraced one.
      Tracer off(false);
      const ProbeWorker plain(worker, off);
      const evo::EvolutionResult untraced = master.search(plain, request);
      run.check(check_same_record(record_of(result), record_of(untraced),
                                  what + " traced vs untraced"));
    }
    if (index == 0) first_history = result.history;
  });

  if (options.trace) {
    run.set_engine_layers(true);
    replay_layers(run, first_history, split, train_options, device);
  }
  return run.finish(0.0, 0.0);
}

// ---------------------------------------------------------------------------
// fleet_search

RunOutcome fleet_search(const RunOptions& options) {
  Run run(options);
  std::vector<std::unique_ptr<Daemon>> daemons;
  daemons.push_back(start_workerd(options, "workerd0", {}));
  daemons.push_back(start_workerd(options, "workerd1", {}));
  net::RemoteWorkerOptions remote_options;
  for (const auto& daemon : daemons) {
    remote_options.endpoints.push_back(net::parse_endpoint(daemon->endpoint()));
  }
  remote_options.cache_config = analytic_cache_config();
  if (options.max_protocol > 0) {
    remote_options.max_protocol = static_cast<std::uint16_t>(options.max_protocol);
  }
  auto remote = std::make_unique<net::RemoteWorker>(remote_options);
  if (remote->ping_all() != daemons.size()) throw std::runtime_error("a worker daemon is not up");
  const ProbeWorker probe(*remote, run.tracer());
  const tools::AnalyticWorker local;
  const core::Master master;
  const std::size_t evaluations = options.evaluations ? options.evaluations : kFleetEvaluations;
  run.mark_setup_done();

  double daemon_cpu = 0.0;
  for (const auto& daemon : daemons) daemon_cpu -= daemon->cpu_seconds();
  run.rounds([&](std::size_t index) {
    const core::SearchRequest request =
        make_request(search_seed(options.seed, index), kFleetPopulation, evaluations,
                     kFleetBatch, kMasterThreads);
    evo::EvolutionResult result;
    if (!run.timed_search([&] { return master.search(probe, request); }, result)) return;
    const evo::EvolutionResult reference = master.search(local, request);
    run.check(check_same_record(record_of(result), record_of(reference),
                                "fleet_search seed " + std::to_string(request.seed) +
                                    " vs the same search in-process"));
  });
  for (const auto& daemon : daemons) daemon_cpu += daemon->cpu_seconds();

  std::vector<net::StatsReport> stats;
  for (const auto& daemon : daemons) stats.push_back(daemon_stats(*daemon));
  run.check(check_eval_accounting(stats, 0.0, probe.dispatched(),
                                  "fleet_search: evaluations the probe dispatched"));
  run.check(probe.dispatched() == run.evaluations()
                ? std::string()
                : "fleet_search: probe dispatched " + std::to_string(probe.dispatched()) +
                      ", records hold " + std::to_string(run.evaluations()));

  if (options.trace) {
    run.set_engine_layers(true);
    const net::StatsReport own = net::snapshot_stats_report("");
    run.set_layer("net.fleet_hit_ratio", hit_ratio(registry_counter("net.fleet_cache_hits_total"),
                                                   registry_counter("net.fleet_cache_misses_total")));
    run.set_layer("net.item_rtt_p50_us", p50_us(stats_histogram(own, "net.item_latency_seconds")));
    double remote_eval_s = 0.0;
    for (const auto& report : stats) remote_eval_s += stats_histogram(report, "core.eval_seconds").sum;
    run.set_layer("net.remote_eval_us_per_eval",
                  remote_eval_s * 1e6 / std::max<double>(1.0, static_cast<double>(run.evaluations())));
  }

  remote.reset();
  double peak = 0.0;
  for (const auto& daemon : daemons) {
    const Daemon::Exit exit = daemon->stop();
    if (!exit.clean) run.check("a worker daemon did not exit cleanly");
    peak = std::max(peak, exit.peak_rss_mib);
  }
  return run.finish(daemon_cpu, peak);
}

// ---------------------------------------------------------------------------
// served_rerun

RunOutcome served_rerun(const RunOptions& options) {
  Run run(options);
  std::vector<std::unique_ptr<Daemon>> workers;
  workers.push_back(start_workerd(options, "workerd0", {"--cache-bytes", kServedCacheBytes}));
  workers.push_back(start_workerd(options, "workerd1", {"--cache-bytes", kServedCacheBytes}));
  std::vector<std::string> searchd_args = {
      "--serve", "--port", "0", "--log-level", "warn",
      "--workers", workers[0]->endpoint() + "," + workers[1]->endpoint()};
  if (options.max_protocol > 0) {
    searchd_args.push_back("--max-protocol");
    searchd_args.push_back(std::to_string(options.max_protocol));
  }
  auto searchd = std::make_unique<Daemon>(options.tools_dir + "/ecad_searchd", searchd_args,
                                          log_path(options, "searchd"));
  {
    net::RemoteWorkerOptions ping_options;
    for (const auto& worker : workers) {
      ping_options.endpoints.push_back(net::parse_endpoint(worker->endpoint()));
    }
    if (net::RemoteWorker(ping_options).ping_all() != workers.size()) {
      throw std::runtime_error("a worker daemon is not up");
    }
  }
  net::SearchClientOptions client_options;
  client_options.port = searchd->port();
  net::SearchClient client(client_options);
  client.connect();
  const tools::AnalyticWorker local;
  const core::Master master;
  const std::size_t evaluations = options.evaluations ? options.evaluations : kServedEvaluations;
  run.mark_setup_done();

  // One served search: submit, stream to its end, return the record.
  const auto serve = [&](const core::SearchRequest& request, Sample& sample,
                         net::SearchRecord& record) {
    run.count_attempt();
    const double cpu_start = self_cpu_seconds();
    const Clock::time_point start = Clock::now();
    try {
      const net::SearchDone done = client.stream(client.submit(request), nullptr);
      sample.wall_s += seconds_since(start);
      sample.cpu_s += self_cpu_seconds() - cpu_start;
      if (done.status != net::SearchDone::Status::Completed) {
        run.count_failure();
        std::fprintf(stderr, "served search failed: %s\n", done.message.c_str());
        return false;
      }
      sample.evaluations += static_cast<std::size_t>(done.record.models_evaluated);
      sample.duplicates += static_cast<std::size_t>(done.record.duplicates_skipped);
      record = done.record;
      return true;
    } catch (const std::exception& e) {
      run.count_failure();
      std::fprintf(stderr, "served search failed: %s\n", e.what());
      return false;
    }
  };

  // In stopping order: searchd drains before its workers go away.
  const std::vector<Daemon*> all = {searchd.get(), workers[0].get(), workers[1].get()};
  double daemon_cpu = 0.0;
  for (Daemon* daemon : all) daemon_cpu -= daemon->cpu_seconds();
  std::size_t pairs = 0;
  run.rounds([&](std::size_t index) {
    // A fresh seed writes the fleet-cache tier; the same seed again reads it.
    const core::SearchRequest request =
        make_request(search_seed(options.seed, index), kServedPopulation, evaluations,
                     kServedBatch, kMasterThreads);
    Sample pair;
    net::SearchRecord fresh;
    net::SearchRecord rerun;
    run.tracer().begin_root("served_pair");
    const bool ok = serve(request, pair, fresh) && serve(request, pair, rerun);
    run.tracer().end_root();
    if (!ok) return;
    run.add_sample(pair);
    ++pairs;
    const std::string what = "served_rerun seed " + std::to_string(request.seed);
    const evo::EvolutionResult reference = master.search(local, request);
    run.check(check_same_record(record_of(fresh), record_of(reference),
                                what + " vs the same search in-process"));
    run.check(check_same_record(record_of(rerun), record_of(fresh),
                                what + " rerun vs first submission"));
  });
  for (Daemon* daemon : all) daemon_cpu += daemon->cpu_seconds();

  std::vector<net::StatsReport> worker_stats;
  for (const auto& worker : workers) worker_stats.push_back(daemon_stats(*worker));
  const net::StatsReport searchd_stats = daemon_stats(*searchd);
  // Below wire version 6 the master has no fleet cache and never registers
  // its counters; at the default they must be there.
  const bool cache_tier = options.max_protocol == 0 || options.max_protocol >= 6;
  double hits = 0.0;
  double misses = 0.0;
  try {
    if (cache_tier) {
      hits = stats_counter(searchd_stats, "net.fleet_cache_hits_total");
      misses = stats_counter(searchd_stats, "net.fleet_cache_misses_total");
    }
  } catch (const std::exception& e) {
    run.check(std::string("served_rerun: ecad_searchd: ") + e.what());
  }
  run.check(check_eval_accounting(worker_stats, hits, run.evaluations(),
                                  "served_rerun: unique evaluations in the records"));

  if (options.trace) {
    run.set_engine_layers(false);
    run.set_layer("net.fleet_hit_ratio", hit_ratio(hits, misses));
    run.set_layer("net.item_rtt_p50_us",
                  p50_us(stats_histogram(searchd_stats, "net.item_latency_seconds")));
    double remote_eval_s = 0.0;
    for (const auto& report : worker_stats) {
      remote_eval_s += stats_histogram(report, "core.eval_seconds").sum;
    }
    run.set_layer("net.remote_eval_us_per_eval",
                  remote_eval_s * 1e6 / std::max<double>(1.0, static_cast<double>(run.evaluations())));
    run.set_layer("core.gate_wait_ms",
                  stats_histogram(searchd_stats, "scheduler.gate_wait_seconds").sum * 1e3 /
                      std::max<double>(1.0, 2.0 * static_cast<double>(pairs)));
  }

  client.close();
  double peak = 0.0;
  for (Daemon* daemon : all) {
    const Daemon::Exit exit = daemon->stop();
    if (!exit.clean) run.check("a daemon did not exit cleanly");
    peak = std::max(peak, exit.peak_rss_mib);
  }
  return run.finish(daemon_cpu, peak);
}

// ---------------------------------------------------------------------------
// checkpoint_search

RunOutcome checkpoint_search(const RunOptions& options) {
  namespace fs = std::filesystem;
  Run run(options);
  const tools::AnalyticWorker local;
  const ProbeWorker probe(local, run.tracer());
  core::Master master;
  const std::string base =
      options.out_dir + "/checkpoints_seed" + std::to_string(options.seed);
  fs::remove_all(base);
  core::ensure_checkpoint_dir(base);
  const std::size_t evaluations =
      options.evaluations ? options.evaluations : kCheckpointEvaluations;
  run.mark_setup_done();

  std::uint64_t total_bytes = 0;
  run.rounds([&](std::size_t index) {
    const core::SearchRequest request =
        make_request(search_seed(options.seed, index), kCheckpointPopulation, evaluations,
                     kCheckpointBatch, kCheckpointThreads);
    const std::string dir = base + "/search_" + std::to_string(index);
    core::ensure_checkpoint_dir(dir);
    const std::string checkpoint_file = core::checkpoint_path(dir, 1);
    std::uint64_t bytes = 0;
    const std::uint64_t written_before = self_write_bytes();
    evo::EvolutionResult result;
    // Master::search with checkpointing, spelled out so the sink around
    // CheckpointWriter::write can be timed and the persisted sizes summed.
    const bool ok = run.timed_search(
        [&] {
          evo::EvolutionEngine engine(request.space, request.evolution,
                                      core::make_search_evaluator(probe),
                                      master.registry().get(request.fitness));
          core::CheckpointWriter writer(dir, 1, request, 1);
          engine.set_checkpoint_sink([&](const evo::EngineSnapshot& snapshot) {
            {
              Tracer::Scope span(run.tracer(), "core.checkpoint_write");
              writer.write(snapshot);
            }
            bytes += fs::file_size(checkpoint_file);
          });
          util::Rng rng(request.seed);
          util::ThreadPool pool(request.threads);
          evo::EvolutionResult out = engine.run(rng, pool);
          writer.mark_done();
          return out;
        },
        result);
    if (!ok) return;
    const std::uint64_t written = self_write_bytes() - written_before;
    total_bytes += bytes;
    const std::string what = "checkpoint_search seed " + std::to_string(request.seed);
    run.check(check_checkpoint_dir(dir));
    run.check(check_write_bytes(written, bytes));
    const evo::EvolutionResult reference = master.search(local, request);
    run.check(check_same_record(record_of(result), record_of(reference),
                                what + " vs the same search without checkpoints"));
    fs::remove_all(dir);
  });
  fs::remove_all(base);

  if (options.trace) {
    run.set_engine_layers(true);
    run.set_layer("core.checkpoint_bytes_per_eval",
                  static_cast<double>(total_bytes) /
                      std::max<double>(1.0, static_cast<double>(run.evaluations())));
  }
  return run.finish(0.0, 0.0);
}

}  // namespace

RunOutcome run_workload(const RunOptions& options) {
  if (options.workload == "train_search") return train_search(options);
  if (options.workload == "fleet_search") return fleet_search(options);
  if (options.workload == "served_rerun") return served_rerun(options);
  if (options.workload == "checkpoint_search") return checkpoint_search(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace searchbench
