// Regenerates Table IV: shot-oriented inference on QPU tori vs EQC's
// batch-based inference, for QPU subsets {6, 8, 10} of the Table III
// fleet on the Iris and Wine benchmarks. For each configuration it
// prints the DFT cycle period T, the torus composition after equidistant
// partition, and both schedulers' test loss and the loss reduction under
// each of the kSchedulerSeeds, then the cell's mean reduction.
//
// Shape targets (paper): ArbiterQ's loss is below EQC's in every cell
// (24.71% mean reduction), and ArbiterQ improves with more QPUs (more
// tori with diverse preferences).
//
// Exits 1 unless the EXPERIMENTS.md verdict holds on the per-cell mean
// reductions: their mean is above 0 and at least 5 of the 6 cells
// reduce the loss (wine on 8 QPUs is known deviation 4).

#include <iterator>

#include "bench_util.hpp"

#include "arbiterq/core/scheduler.hpp"
#include "arbiterq/core/torus.hpp"

namespace {

using namespace arbiterq;

void run_dataset(const data::BenchmarkCase& bc, qnn::Backbone backbone,
                 int epochs, double* total_reduction, int* cells,
                 int* improved) {
  const data::EncodedSplit split = data::prepare_case(bc);
  const qnn::QnnModel model(backbone, bc.num_qubits, bc.num_layers);

  std::printf("%s:\n", bc.dataset.c_str());
  for (int fleet_size : {6, 8, 10}) {
    core::TrainConfig cfg;
    cfg.epochs = epochs;
    const core::DistributedTrainer trainer(
        model, device::table3_fleet_subset(fleet_size, bc.num_qubits),
        cfg);
    const core::TrainResult arbiter =
        trainer.train(core::Strategy::kArbiterQ, split);
    const core::TrainResult eqc = trainer.train(core::Strategy::kEqc,
                                                split);

    const auto partition = core::build_torus_partition(
        trainer.behavioral_vectors(), arbiter.weights);

    std::printf("  %2d QPUs | cycle T %.4g | tori:", fleet_size,
                partition.cycle_period);
    for (const auto& torus : partition.tori) {
      std::printf(" {");
      for (std::size_t k = 0; k < torus.size(); ++k) {
        std::printf("%s%d", k ? "," : "", torus[k] + 1);
      }
      std::printf("}");
    }
    std::printf("\n");

    const auto tasks =
        core::make_tasks(split.test_features, split.test_labels);
    double reduction = 0.0;
    for (const std::uint64_t seed : bench::kSchedulerSeeds) {
      core::ScheduleConfig sc;
      sc.shots_per_task = 256;
      sc.warmup_shots = 32;
      sc.trajectories = 16;
      sc.seed = seed;
      const core::ShotOrientedScheduler scheduler(
          trainer.executors(), arbiter.weights, partition, sc);
      const auto shot_report = scheduler.run(tasks);
      // "EQC adopts batch-based inference" (paper §V-C): its central
      // model deployed everywhere, one QPU per task.
      const auto batch_report = core::batch_based_inference(
          trainer.executors(), eqc.weights, tasks, sc);
      const double r = (batch_report.mean_loss - shot_report.mean_loss) /
                       batch_report.mean_loss;
      std::printf("          | seed %3llu | ArbiterQ loss %.4f | EQC loss "
                  "%.4f | reduction %.2f%%\n",
                  static_cast<unsigned long long>(seed),
                  shot_report.mean_loss, batch_report.mean_loss, 100.0 * r);
      reduction += r;
    }
    reduction /= static_cast<double>(std::size(bench::kSchedulerSeeds));
    std::printf("          | mean reduction %.2f%%\n", 100.0 * reduction);
    *total_reduction += reduction;
    ++*cells;
    if (reduction > 0.0) ++*improved;
  }
}

}  // namespace

int main() {
  std::printf("Table IV: shot-oriented inference on QPU tori "
              "(ArbiterQ) vs batch-based inference (EQC)\n\n");
  double total_reduction = 0.0;
  int cells = 0;
  int improved = 0;
  run_dataset({"iris", 2, 2}, qnn::Backbone::kCRz, 40, &total_reduction,
              &cells, &improved);
  run_dataset({"wine", 4, 2}, qnn::Backbone::kCRz, 100, &total_reduction,
              &cells, &improved);
  const double mean = total_reduction / cells;
  std::printf("\nmean loss reduction %.2f%% over cells and %zu scheduler "
              "seeds (paper reports 24.71%%)\n",
              100.0 * mean, std::size(bench::kSchedulerSeeds));
  const bool holds = mean > 0.0 && improved >= cells - 1;
  std::printf("check: %d of %d cells reduce the loss on the seed mean, "
              "mean %s 0: %s\n",
              improved, cells, mean > 0.0 ? ">" : "<=",
              holds ? "pass" : "FAIL");
  return holds ? 0 : 1;
}
