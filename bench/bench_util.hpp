#pragma once
// Shared plumbing for the evaluation binaries: run the four training
// strategies on one benchmark case and collect the Table I metrics.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <cstdlib>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/report/csv.hpp"
#include "arbiterq/telemetry/export.hpp"

namespace arbiterq::bench {

constexpr core::Strategy kAllStrategies[] = {
    core::Strategy::kSingleNode, core::Strategy::kAllSharing,
    core::Strategy::kEqc, core::Strategy::kArbiterQ};

/// Scheduler seeds the sampled-inference benches average over (99 is
/// ScheduleConfig's default). One seed's 256-shot losses move by several
/// points when only the sampler's random stream changes, so a verdict
/// read from a single seed can flip on stream noise alone.
constexpr std::uint64_t kSchedulerSeeds[] = {99, 100, 101, 102, 103};

struct StrategyOutcome {
  core::Strategy strategy;
  core::TrainResult result;
};

/// Truncate the test split to at most `max_test` samples (used to bound
/// the per-epoch evaluation cost of the largest benchmark).
inline data::EncodedSplit limit_test(data::EncodedSplit split,
                                     std::size_t max_test) {
  if (split.test_features.size() > max_test) {
    split.test_features.resize(max_test);
    split.test_labels.resize(max_test);
  }
  return split;
}

inline std::vector<StrategyOutcome> run_all_strategies(
    const core::DistributedTrainer& trainer,
    const data::EncodedSplit& split) {
  std::vector<StrategyOutcome> out;
  for (core::Strategy s : kAllStrategies) {
    out.push_back({s, trainer.train(s, split)});
  }
  return out;
}

inline const core::TrainResult& find(
    const std::vector<StrategyOutcome>& outcomes, core::Strategy s) {
  for (const auto& o : outcomes) {
    if (o.strategy == s) return o.result;
  }
  throw std::logic_error("find: strategy not run");
}

/// Write `table` into $ARBITERQ_CSV_DIR/<filename> when that directory
/// is configured; silent no-op otherwise.
inline void maybe_write_csv(const std::string& filename,
                            const report::CsvTable& table) {
  const char* dir = std::getenv("ARBITERQ_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + filename;
  table.write(path);
  std::printf("(wrote %s)\n", path.c_str());
}

inline void maybe_write_curves(
    const std::string& filename,
    const std::vector<StrategyOutcome>& outcomes) {
  if (std::getenv("ARBITERQ_CSV_DIR") == nullptr) return;
  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (const auto& o : outcomes) {
    series.emplace_back(core::strategy_name(o.strategy),
                        o.result.epoch_test_loss);
  }
  maybe_write_csv(filename, report::loss_curves_table(series));
}

/// Open $ARBITERQ_CSV_DIR/<filename> as a JSONL telemetry sink when
/// that directory is configured; nullptr otherwise. Pass the raw
/// pointer to train()/run() — a null sink is a no-op there. Call
/// write_global_state() + close() before dropping the handle.
inline std::unique_ptr<telemetry::JsonlExporter> maybe_telemetry(
    const std::string& filename) {
  const char* dir = std::getenv("ARBITERQ_CSV_DIR");
  if (dir == nullptr) return nullptr;
  return std::make_unique<telemetry::JsonlExporter>(std::string(dir) + "/" +
                                                    filename);
}

inline void print_series(const char* label,
                         const std::vector<double>& series,
                         std::size_t stride) {
  std::printf("%-12s", label);
  for (std::size_t e = 0; e < series.size(); e += stride) {
    std::printf(" %.4f", series[e]);
  }
  std::printf("\n");
}

}  // namespace arbiterq::bench
