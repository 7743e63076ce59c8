// Self-tests of the benchmark's own logic: the percentile rule, the sample
// accounting behind failed_ratio and the output check, seed handling, and
// the per-layer self-time attribution of the traced run.
#include <gtest/gtest.h>

#include <cmath>

#include "inputs.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "trace_report.hpp"

namespace e2ebench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);  // median leaves 9
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);  // p90 leaves 9
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(200000), 99.99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(9999), 99.0);
}

TEST(PercentileRule, SummaryNamesPercentileAndCount) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  const std::string s = tail_summary(h);
  EXPECT_NE(s.find("p99="), std::string::npos) << s;
  EXPECT_NE(s.find("n=1000"), std::string::npos) << s;
  LogHistogram tiny;
  tiny.record(1.0);
  EXPECT_NE(tail_summary(tiny).find("none (n=1)"), std::string::npos);
}

TEST(LogHistogram, QuantilesWithinBucketResolution) {
  LogHistogram h;
  for (int i = 1; i <= 100000; ++i) h.record(i * 0.01);  // 0.01 .. 1000
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.005);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.005);
  EXPECT_NEAR(h.quantile(1.0), 1000.0, 1000.0 * 0.005);
  EXPECT_LE(h.quantile(1.0), 1000.0);  // never beyond the largest value
  EXPECT_TRUE(std::isnan(LogHistogram().quantile(0.5)));
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Ledger, EachFailureKindCountsOnce) {
  SampleLedger ledger(6);
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 1) {
      ledger.shed(i);  // refused at the ring
    } else {
      ledger.accepted(i);
    }
  }
  ledger.delivered(0, true);
  ledger.delivered(3, true);
  ledger.delivered(5, true);
  // Samples 2 and 4 were accepted and never popped; the server reports one
  // completion drop, so the other is undelivered at the drain deadline.
  ledger.close(1);
  const LedgerTally t = ledger.tally();
  EXPECT_EQ(t.attempted, 6u);
  EXPECT_EQ(t.delivered, 3u);
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.completion_dropped, 1u);
  EXPECT_EQ(t.undelivered, 1u);
  EXPECT_EQ(t.wrong, 0u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.5);
  EXPECT_EQ(t.delivered + t.failed(), t.attempted);
  EXPECT_TRUE(t.correct());  // failures are counted, not wrong outputs
}

TEST(Ledger, WrongVerdictFailsTheCheck) {
  SampleLedger ledger(3);
  for (std::size_t i = 0; i < 3; ++i) ledger.accepted(i);
  ledger.delivered(0, true);
  ledger.delivered(1, false);  // popped, but differs from the reference
  ledger.delivered(2, true);
  ledger.mark_wrong(2);        // found wrong by the in-order replay
  ledger.close(0);
  const LedgerTally t = ledger.tally();
  EXPECT_EQ(t.wrong, 2u);
  EXPECT_EQ(t.delivered, 1u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_EQ(t.delivered + t.failed(), t.attempted);
  EXPECT_FALSE(t.correct());
}

TEST(Ledger, DoubleCountsAreViolations) {
  SampleLedger ledger(2);
  ledger.accepted(0);
  ledger.delivered(0, true);
  ledger.delivered(0, true);  // the same sample twice
  ledger.delivered(1, true);  // never accepted
  ledger.shed(1);
  ledger.close(0);
  const LedgerTally t = ledger.tally();
  EXPECT_EQ(t.violations, 2u);
  EXPECT_FALSE(t.correct());
}

TEST(Ledger, CompletionDropsAboveMissingAreViolations) {
  SampleLedger ledger(1);
  ledger.accepted(0);
  ledger.delivered(0, true);
  ledger.close(1);  // the server claims a drop the client received
  EXPECT_FALSE(ledger.tally().correct());
}

TEST(Ledger, UnsettledSamplesAreViolations) {
  SampleLedger ledger(1);  // attempted, but never shed or accepted
  EXPECT_FALSE(ledger.tally().correct());
}

drlhmd::obs::TraceEvent event(const char* name, const char* category,
                              std::uint32_t tid, double start_us,
                              double dur_us) {
  drlhmd::obs::TraceEvent e;
  e.name = name;
  e.category = category;
  e.tid = tid;
  e.start_us = start_us;
  e.dur_us = dur_us;
  e.open = false;
  return e;
}

TEST(TraceReport, SelfTimeIsDurationMinusNestedChildrenPerThread) {
  const std::vector<drlhmd::obs::TraceEvent> events = {
      event("harness.window", "bench", 0, 0.0, 100.0),
      event("pipeline.acquire", "phase", 0, 10.0, 50.0),
      event("parallel.corpus_shard.apps", "parallel", 0, 20.0, 20.0),
      event("corpus_shard.apps.chunk0", "parallel", 0, 25.0, 10.0),
      // Another thread's chunk overlaps in time but nests in nothing.
      event("corpus_shard.apps.chunk1", "parallel", 1, 20.0, 15.0),
      event("serve.flush", "serve", 2, 0.0, 30.0),
      event("runtime.batch_score.chunk0", "parallel", 2, 5.0, 20.0),
  };
  const auto self = layer_self_seconds(events);
  EXPECT_NEAR(self.at("harness"), 50e-6, 1e-12);  // 100 - 50
  EXPECT_NEAR(self.at("sim"), 30e-6 + 10e-6 + 15e-6, 1e-12);
  EXPECT_NEAR(self.at("util"), 10e-6, 1e-12);    // region minus its chunk
  EXPECT_NEAR(self.at("serve"), 10e-6, 1e-12);
  EXPECT_NEAR(self.at("core"), 20e-6, 1e-12);
}

const RowMix kMix{100, 20, 0.25};

TEST(Seeds, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 5000.0, 0.5, 64, kMix);
  const auto b = poisson_schedule(7, 5000.0, 0.5, 64, kMix);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset_ns, b[i].offset_ns);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].row, b[i].row);
  }
}

TEST(Seeds, DifferentSeedDifferentSchedule) {
  const auto a = poisson_schedule(7, 5000.0, 0.5, 64, kMix);
  const auto b = poisson_schedule(8, 5000.0, 0.5, 64, kMix);
  std::size_t same = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    same += a[i].offset_ns == b[i].offset_ns && a[i].row == b[i].row;
  EXPECT_LT(same, n / 10);
}

TEST(Seeds, ScheduleMatchesRateAndMix) {
  const auto a = poisson_schedule(3, 20000.0, 2.0, 2048, kMix);
  EXPECT_NEAR(static_cast<double>(a.size()), 40000.0, 1000.0);
  std::size_t adversarial = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(a[i].host, 2048u);
    EXPECT_LT(a[i].row, 120u);
    if (i > 0) {
      EXPECT_GE(a[i].offset_ns, a[i - 1].offset_ns);
    }
    adversarial += kMix.is_adversarial(a[i].row);
  }
  EXPECT_NEAR(static_cast<double>(adversarial) / a.size(), 0.25, 0.01);
}

}  // namespace
}  // namespace e2ebench
