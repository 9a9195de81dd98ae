// Ablation of the torus construction (§IV-A design choices, not a paper
// table): on the Iris benchmark over 10 QPUs,
//  1. sweep the number of sub-tori (1 = one big pool .. 5),
//  2. compare the DFT-period wrap against a naive partition that chunks
//     QPUs *contiguously along the behavioral axis* — which packs
//     similar devices together and should compensate noise worse.
// Each partition's sampled inference runs under every one of the
// kSchedulerSeeds; rows print the mean and the sample standard
// deviation across seeds of the mean test loss, so a difference smaller
// than that spread is stream noise, not a property of the partition.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>

#include "bench_util.hpp"

#include "arbiterq/core/scheduler.hpp"
#include "arbiterq/core/torus.hpp"
#include "arbiterq/math/stats.hpp"

namespace {

using namespace arbiterq;

core::TorusPartition contiguous_partition(core::TorusPartition base,
                                          int num_tori) {
  // Re-chunk by raw behavioral coordinate instead of wrapped phase.
  const std::size_t n = base.behavioral_coords.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return base.behavioral_coords[static_cast<std::size_t>(a)] <
           base.behavioral_coords[static_cast<std::size_t>(b)];
  });
  base.tori.assign(static_cast<std::size_t>(num_tori), {});
  std::size_t cursor = 0;
  for (int t = 0; t < num_tori; ++t) {
    const std::size_t remaining = static_cast<std::size_t>(num_tori - t);
    const std::size_t chunk = (n - cursor + remaining - 1) / remaining;
    for (std::size_t k = 0; k < chunk; ++k) {
      base.tori[static_cast<std::size_t>(t)].push_back(order[cursor++]);
    }
  }
  return base;
}

struct SeedSweep {
  double loss_mean = 0.0;     ///< mean over seeds of the mean task loss
  double loss_spread = 0.0;   ///< its standard deviation across seeds
  double stddev_mean = 0.0;   ///< mean over seeds of the task-loss stddev
  double imbalance_mean = 0.0;
};

/// Sampled inference on `partition` under every scheduler seed.
SeedSweep sweep_seeds(const core::DistributedTrainer& trainer,
                      const std::vector<std::vector<double>>& weights,
                      const core::TorusPartition& partition,
                      const std::vector<core::InferenceTask>& tasks) {
  std::vector<double> loss, stddev, imbalance;
  for (const std::uint64_t seed : bench::kSchedulerSeeds) {
    core::ScheduleConfig sc;
    sc.shots_per_task = 256;
    sc.warmup_shots = 32;
    sc.trajectories = 16;
    sc.seed = seed;
    const core::ShotOrientedScheduler scheduler(trainer.executors(), weights,
                                                partition, sc);
    const auto r = scheduler.run(tasks);
    loss.push_back(r.mean_loss);
    stddev.push_back(r.loss_stddev);
    imbalance.push_back(r.workload_imbalance);
  }
  return {math::mean(loss), math::stddev(loss), math::mean(stddev),
          math::mean(imbalance)};
}

}  // namespace

int main() {
  const data::BenchmarkCase bc{"iris", 2, 2};
  const data::EncodedSplit split = data::prepare_case(bc);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);

  core::TrainConfig cfg;
  cfg.epochs = 40;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet(bc.num_qubits), cfg);
  const auto arbiter = trainer.train(core::Strategy::kArbiterQ, split);
  const auto tasks =
      core::make_tasks(split.test_features, split.test_labels);

  std::printf("Ablation: number of sub-tori (10 QPUs, Iris; mean +/- "
              "spread over %zu scheduler seeds)\n",
              std::size(bench::kSchedulerSeeds));
  for (int tori = 1; tori <= 5; ++tori) {
    const auto partition = core::build_torus_partition(
        trainer.behavioral_vectors(), arbiter.weights, tori);
    const SeedSweep r =
        sweep_seeds(trainer, arbiter.weights, partition, tasks);
    std::printf("  %d tori: loss %.4f +/- %.4f  stddev %.4f  imbalance "
                "%.2f\n",
                tori, r.loss_mean, r.loss_spread, r.stddev_mean,
                r.imbalance_mean);
  }

  std::printf("\nAblation: DFT-period wrap vs contiguous behavioral "
              "chunks (3 tori)\n");
  const auto wrapped = core::build_torus_partition(
      trainer.behavioral_vectors(), arbiter.weights, 3);
  const auto naive = contiguous_partition(wrapped, 3);
  for (const auto* p : {&wrapped, &naive}) {
    const SeedSweep r = sweep_seeds(trainer, arbiter.weights, *p, tasks);
    std::printf("  %-18s loss %.4f +/- %.4f  stddev %.4f  tori:",
                p == &wrapped ? "DFT-period wrap" : "contiguous chunks",
                r.loss_mean, r.loss_spread, r.stddev_mean);
    for (const auto& t : p->tori) {
      std::printf(" {");
      for (std::size_t k = 0; k < t.size(); ++k) {
        std::printf("%s%d", k ? "," : "", t[k] + 1);
      }
      std::printf("}");
    }
    std::printf("\n");
  }
  return 0;
}
