// AnomalyWatchdog: the three windowed detectors (rate z-score, queue
// saturation slope, drift velocity), closed-window/judge-once semantics,
// forwarding into FleetHealthMonitor, and the JSONL event log.

#include "arbiterq/monitor/watchdog.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arbiterq/monitor/health.hpp"
#include "arbiterq/telemetry/timeseries.hpp"

namespace arbiterq::monitor {
namespace {

constexpr double kWindowUs = 1000.0;

telemetry::TimeSeriesConfig test_config() {
  telemetry::TimeSeriesConfig cfg;
  cfg.window_us = kWindowUs;
  cfg.max_windows = 256;
  return cfg;
}

// Put `events` unit events into window `w` of an event series (the rate
// detector judges event series exactly like counter series).
void fill_rate_window(telemetry::TimeSeriesStore& ts, const std::string& name,
                      int w, int events) {
  for (int i = 0; i < events; ++i) {
    ts.observe(name, w * kWindowUs + 1.0, 1.0);
  }
}

void set_gauge_window(telemetry::TimeSeriesStore& ts, const std::string& name,
                      int w, double value) {
  telemetry::MetricsSnapshot snap;
  snap.gauges.push_back({name, value});
  ts.sample(snap, (w + 0.5) * kWindowUs);
}

TEST(Watchdog, SteadyRateNeverFlags) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  for (int w = 0; w < 20; ++w) {
    fill_rate_window(ts, "serve.admitted", w, 50);
    EXPECT_TRUE(dog.poll(ts).empty());
  }
  EXPECT_EQ(dog.anomaly_count(), 0U);
}

TEST(Watchdog, RateSpikeFlagsAfterWarmup) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  int w = 0;
  for (; w < 8; ++w) {
    fill_rate_window(ts, "serve.admitted", w, 50);
    dog.poll(ts);
  }
  ASSERT_EQ(dog.anomaly_count(), 0U);
  // 10x the steady rate in one window, then a filler window so the spike
  // window is closed when polled.
  fill_rate_window(ts, "serve.admitted", w, 500);
  fill_rate_window(ts, "serve.admitted", w + 1, 50);
  const auto events = dog.poll(ts);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, AnomalyKind::kRateSpike);
  EXPECT_EQ(events[0].series, "serve.admitted");
  EXPECT_EQ(events[0].window, w);
  EXPECT_GT(events[0].score, 4.0);
}

TEST(Watchdog, RateCollapseFlags) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  int w = 0;
  for (; w < 8; ++w) {
    fill_rate_window(ts, "serve.admitted", w, 200);
    dog.poll(ts);
  }
  fill_rate_window(ts, "serve.admitted", w, 1);  // throughput falls off
  fill_rate_window(ts, "serve.admitted", w + 1, 200);
  const auto events = dog.poll(ts);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, AnomalyKind::kRateCollapse);
  EXPECT_EQ(events[0].window, w);
}

TEST(Watchdog, NewestWindowIsNeverJudgedAndEachWindowJudgedOnce) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  for (int w = 0; w < 8; ++w) fill_rate_window(ts, "s", w, 50);
  fill_rate_window(ts, "s", 8, 5000);  // spike sits in the newest window
  EXPECT_TRUE(dog.poll(ts).empty());
  EXPECT_TRUE(dog.poll(ts).empty());  // still filling; nothing re-judged
  fill_rate_window(ts, "s", 9, 50);   // closes the spike window
  EXPECT_FALSE(dog.poll(ts).empty());
  EXPECT_TRUE(dog.poll(ts).empty());  // judged exactly once
  EXPECT_EQ(dog.anomaly_count(), 1U);
}

TEST(Watchdog, QueueSaturationRampFlagsWithinTwoWindows) {
  // A queue-saturation ramp: steady depth, then the depth doubles every
  // window starting at `ramp_start`; the watchdog must flag it within
  // two windows of the ramp start.
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  const int ramp_start = 6;
  double depth = 100.0;
  int flagged_at = -1;
  for (int w = 0; w < 12; ++w) {
    if (w >= ramp_start) depth *= 2.0;
    set_gauge_window(ts, "serve.queue.depth", w, depth);
    for (const AnomalyEvent& e : dog.poll(ts)) {
      if (e.kind == AnomalyKind::kQueueSaturation && flagged_at < 0) {
        flagged_at = static_cast<int>(e.window);
      }
    }
  }
  ASSERT_GE(flagged_at, ramp_start);
  EXPECT_LT(flagged_at - ramp_start, 2);
}

TEST(Watchdog, SteadyQueueDepthNeverFlags) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  for (int w = 0; w < 16; ++w) {
    set_gauge_window(ts, "serve.queue.depth", w, 500.0 + (w % 2) * 10.0);
    EXPECT_TRUE(dog.poll(ts).empty());
  }
}

TEST(Watchdog, GaugeWithoutQueueDepthNameUsesNoSlopeDetector) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  double v = 1.0;
  for (int w = 0; w < 10; ++w) {
    set_gauge_window(ts, "serve.some.level", w, v);
    v *= 4.0;
    EXPECT_TRUE(dog.poll(ts).empty());
  }
}

TEST(Watchdog, DriftVelocityFlagsAcceleratingDrift) {
  telemetry::TimeSeriesStore ts(test_config());
  AnomalyWatchdog dog;
  for (int w = 0; w < 6; ++w) {
    set_gauge_window(ts, "monitor.qpu3.drift", w, 0.01);
    EXPECT_TRUE(dog.poll(ts).empty());
  }
  set_gauge_window(ts, "monitor.qpu3.drift", 6, 0.02);  // +1e-2 >> 1e-4
  set_gauge_window(ts, "monitor.qpu3.drift", 7, 0.02);
  const auto events = dog.poll(ts);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, AnomalyKind::kDriftVelocity);
  EXPECT_EQ(events[0].series, "monitor.qpu3.drift");
  EXPECT_NEAR(events[0].score, 0.01, 1e-9);
}

TEST(Watchdog, ForwardsIntoFleetHealthMonitor) {
  telemetry::TimeSeriesStore ts(test_config());
  FleetHealthMonitor mon(2);
  AnomalyWatchdog dog(WatchdogConfig{}, &mon);
  const int ramp_start = 4;
  double depth = 100.0;
  for (int w = 0; w < 10; ++w) {
    if (w >= ramp_start) depth *= 2.0;
    set_gauge_window(ts, "serve.queue.depth", w, depth);
    dog.poll(ts);
  }
  ASSERT_GE(dog.anomaly_count(), 1U);
  const FleetHealthReport rep = mon.report();
  EXPECT_EQ(rep.anomalies, dog.anomaly_count());
  EXPECT_NE(rep.worst_anomaly.find("serve.queue.depth"), std::string::npos);
  EXPECT_NE(rep.worst_anomaly.find("queue_saturation"), std::string::npos);
  EXPECT_GT(rep.worst_anomaly_score, 0.0);
}

TEST(Watchdog, EventLogAndJsonl) {
  telemetry::TimeSeriesStore ts(test_config());
  WatchdogConfig cfg;
  cfg.max_events = 2;
  AnomalyWatchdog dog(cfg);
  double depth = 10.0;
  for (int w = 0; w < 12; ++w) {
    depth *= 2.0;  // saturating from the start: one event per judged window
    set_gauge_window(ts, "serve.queue.depth", w, depth);
    dog.poll(ts);
  }
  EXPECT_EQ(dog.events().size(), 2U);  // retention cap, oldest dropped
  EXPECT_GT(dog.events()[0].window, 1);
  const std::string jsonl = dog.to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"anomaly\""), std::string::npos);
  EXPECT_NE(jsonl.find("queue_saturation"), std::string::npos);
  EXPECT_FALSE(dog.events()[0].to_string().empty());
}

}  // namespace
}  // namespace arbiterq::monitor
