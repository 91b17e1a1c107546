// Copyright 2026 The obtree Authors.
//
// Tests of the benchmark's own code: percentile selection, outcome and
// failed_op_share counting, the model checks (a planted wrong value and a
// planted lost insert must fail them), the watchdog (a planted stall must
// fire it), and a short run of each in-memory workload end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "bench_util.h"
#include "check.h"
#include "runner.h"
#include "watchdog.h"

namespace perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0);  // fewer than 10 above the median
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(99), 50);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_EQ(TailPercentile(1000000), 99.999);
  EXPECT_EQ(TailPercentile(1000, 20), 90);  // asks for 20 beyond
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.Percentile(50), 500, 1.5);
  EXPECT_NEAR(h.Percentile(99), 990, 1.5);

  LatencyHistogram big;
  for (uint64_t v = 1; v <= 100000; ++v) big.Add(v * 1000);  // 1 us .. 100 ms
  EXPECT_NEAR(big.Percentile(50) / 50'000'000.0, 1.0, 0.005);
  EXPECT_NEAR(big.Percentile(99) / 99'000'000.0, 1.0, 0.005);

  LatencyHistogram merged;
  merged.Merge(h);
  merged.Merge(h);
  EXPECT_EQ(merged.count(), 2000u);
  EXPECT_NEAR(merged.Percentile(50), 500, 1.5);
  EXPECT_EQ(LatencyHistogram().Percentile(50), 0);
}

TEST(OutcomeTest, MissesAreOutcomesUnlessTheModelRulesThemOut) {
  const obtree::Status ok = obtree::Status::OK();
  const obtree::Status nf = obtree::Status::NotFound();
  const obtree::Status exists = obtree::Status::AlreadyExists();
  const obtree::Status internal = obtree::Status::Internal("boom");
  EXPECT_EQ(Classify(ok, Expect::kSuccess), Outcome::kOk);
  EXPECT_EQ(Classify(ok, Expect::kEither), Outcome::kOk);
  EXPECT_EQ(Classify(ok, Expect::kMiss), Outcome::kWrong);
  EXPECT_EQ(Classify(nf, Expect::kEither), Outcome::kMiss);
  EXPECT_EQ(Classify(exists, Expect::kMiss), Outcome::kMiss);
  EXPECT_EQ(Classify(nf, Expect::kSuccess), Outcome::kWrong);
  EXPECT_EQ(Classify(internal, Expect::kEither), Outcome::kError);
  EXPECT_EQ(Classify(obtree::Status::Unavailable(), Expect::kSuccess), Outcome::kError);
}

TEST(OutcomeTest, FailedOpShareCountsWrongErrorsAndStuck) {
  RunCounters c;
  for (Outcome o : {Outcome::kOk, Outcome::kMiss, Outcome::kWrong, Outcome::kError,
                    Outcome::kOk, Outcome::kMiss, Outcome::kOk, Outcome::kOk}) {
    c.attempted.fetch_add(1);
    c.Record(o);
  }
  c.attempted.fetch_add(2);  // two requests still running at the deadline
  EXPECT_EQ(c.attempted.load(), 10u);
  EXPECT_EQ(c.failed.load(), 2u);  // the wrong value and the error
  EXPECT_DOUBLE_EQ(FailedShare(c.attempted.load(), c.failed.load()), 0.2);
  EXPECT_DOUBLE_EQ(FailedShare(c.attempted.load(), c.failed.load(), 2), 0.4);
  EXPECT_DOUBLE_EQ(FailedShare(0, 0), 0);
}

class FinalStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obtree::MapOptions options;
    options.compression = obtree::CompressionMode::kNone;
    map_ = std::make_unique<obtree::ConcurrentMap>(options);
    for (Key k = 1; k <= kKeys; ++k) ASSERT_TRUE(map_->Insert(k, ValueFor(k)).ok());
  }
  static bool InModel(Key k) { return k >= 1 && k <= kKeys; }

  static constexpr Key kKeys = 1000;
  std::unique_ptr<obtree::ConcurrentMap> map_;
};

TEST_F(FinalStateTest, PassesOnAMatchingMap) {
  EXPECT_EQ(CheckFinalState(*map_, kKeys, InModel), "");
}

TEST_F(FinalStateTest, CatchesAPlantedWrongValue) {
  ASSERT_TRUE(map_->Upsert(500, ValueFor(500) + 1).ok());
  const std::string err = CheckFinalState(*map_, kKeys, InModel);
  EXPECT_NE(err.find("wrong value"), std::string::npos) << err;
  EXPECT_NE(err.find("500"), std::string::npos) << err;
}

TEST_F(FinalStateTest, CatchesAPlantedLostInsert) {
  // The model counts one more successful insert than the map holds.
  const std::string err =
      CheckFinalState(*map_, kKeys + 1, [](Key k) { return k >= 1 && k <= kKeys + 1; });
  EXPECT_NE(err.find("Size()"), std::string::npos) << err;
}

TEST_F(FinalStateTest, CatchesALostKeyHiddenBySize) {
  // Size() still matches, but key 10 was lost and an unknown key appeared.
  ASSERT_TRUE(map_->Erase(10).ok());
  ASSERT_TRUE(map_->Insert(5000, ValueFor(5000)).ok());
  const std::string err = CheckFinalState(*map_, kKeys, InModel);
  EXPECT_NE(err.find("model says is absent"), std::string::npos) << err;
}

std::vector<std::pair<Key, Value>> Pairs(std::initializer_list<Key> keys) {
  std::vector<std::pair<Key, Value>> out;
  for (Key k : keys) out.emplace_back(k, ValueFor(k));
  return out;
}

TEST(WindowScanTest, AcceptsCompleteAndInFlightAndRejectsLostKeys) {
  EXPECT_EQ(CheckWindowScan(Pairs({10, 11, 12, 13}), 10, 13, 0, {}, 0), "");
  // 12 is missing: fine while its insert is in flight, or while one
  // unannounced insert could own it, or once erased; lost otherwise.
  EXPECT_EQ(CheckWindowScan(Pairs({10, 11, 13}), 10, 13, 0, {12}, 0), "");
  EXPECT_EQ(CheckWindowScan(Pairs({10, 11, 13}), 10, 13, 0, {}, 1), "");
  EXPECT_EQ(CheckWindowScan(Pairs({13}), 10, 13, 13, {}, 0), "");
  EXPECT_NE(CheckWindowScan(Pairs({10, 11, 13}), 10, 13, 0, {}, 0).find("lost"),
            std::string::npos);
  EXPECT_NE(CheckWindowScan(Pairs({10, 13}), 10, 13, 0, {}, 1).find("lost"), std::string::npos);

  auto wrong = Pairs({10, 11, 12, 13});
  wrong[2].second ^= 1;
  EXPECT_NE(CheckWindowScan(wrong, 10, 13, 0, {}, 0).find("wrong value"), std::string::npos);
  EXPECT_NE(CheckWindowScan(Pairs({10, 11, 14}), 10, 13, 0, {12, 13}, 0).find("range"),
            std::string::npos);
  EXPECT_NE(CheckWindowScan(Pairs({11, 10}), 10, 13, 0, {12, 13}, 2).find("order"),
            std::string::npos);
}

TEST(WatchdogTest, FiresOnAPlantedStallAndNamesTheCall) {
  Watchdog wd(2);
  wd.slot(0)->owner = "client 0";
  wd.slot(1)->owner = "client 1";
  std::promise<std::vector<StuckOp>> fired;
  wd.Start([&fired](const std::vector<StuckOp>& stuck) { fired.set_value(stuck); }, 5);

  // Client 1 finishes quickly; client 0 stalls past its 50 ms limit.
  std::thread quick([&wd] {
    BindThread(wd.slot(1));
    BeginOp(wd.slot(1), "ConcurrentMap::Get", 50'000'000, NowNs());
    EndOp(wd.slot(1));
  });
  quick.join();
  std::thread stall([&wd] {
    BindThread(wd.slot(0));
    BeginOp(wd.slot(0), "ConcurrentMap::MultiGet", 50'000'000, NowNs());
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EndOp(wd.slot(0));
  });
  auto future = fired.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const std::vector<StuckOp> stuck = future.get();
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0].owner, "client 0");
  EXPECT_EQ(stuck[0].call, "ConcurrentMap::MultiGet");
  EXPECT_GT(stuck[0].running_s, 0.04);
  EXPECT_NE(stuck[0].thread_state, "");
  EXPECT_EQ(wd.InFlight(), 1u);
  stall.join();
  EXPECT_EQ(wd.InFlight(), 0u);
  wd.Stop();
}

TEST(WatchdogTest, QuietWhileCallsFinishInTime) {
  Watchdog wd(1);
  EXPECT_TRUE(wd.Overdue(NowNs()).empty());
  BeginOp(wd.slot(0), "ConcurrentMap::Insert", 1'000'000'000, NowNs());
  EXPECT_TRUE(wd.Overdue(NowNs()).empty());
  EXPECT_EQ(wd.Overdue(NowNs() + 2'000'000'000).size(), 1u);
  EndOp(wd.slot(0));
  EXPECT_TRUE(wd.Overdue(NowNs() + 2'000'000'000).empty());
}

RunConfig SmallRun(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 0.3;
  cfg.warmup_s = 0.1;
  cfg.trace = trace;
  cfg.keys = 20000;
  cfg.workdir = ".";  // ctest runs the tests in the build directory
  return cfg;
}

TEST(RunTest, MixedUniformPassesItsChecks) {
  EXPECT_EQ(RunBenchmark(SmallRun("mixed-uniform", false), "test"), kExitOk);
}

TEST(RunTest, IngestWindowTracedPassesItsChecks) {
  EXPECT_EQ(RunBenchmark(SmallRun("ingest-window", true), "test"), kExitOk);
}

TEST(RunTest, UnknownWorkloadIsAUsageError) {
  EXPECT_EQ(RunBenchmark(SmallRun("no-such-workload", false), "test"), kExitUsage);
}

TEST(PermutationTest, IsASeededBijection) {
  for (uint64_t n : {1, 2, 1000, 1025, 65536}) {
    const Permutation p(n, 3);
    std::vector<bool> seen(n, false);
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t x = p(i);
      ASSERT_LT(x, n);
      ASSERT_FALSE(seen[x]) << "n=" << n << " i=" << i;
      seen[x] = true;
    }
  }
  const Permutation a(1000, 1), b(1000, 2);
  int same = 0;
  for (uint64_t i = 0; i < 1000; ++i) same += a(i) == b(i);
  EXPECT_LT(same, 20);
}

TEST(ZipfTest, RanksAreSkewedAndInRange) {
  Zipf zipf(1000, 0.99);
  Rng rng(1);
  uint64_t zero = 0;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_LT(r, 1000u);
    zero += r == 0;
  }
  // Rank 0 holds 1/zeta(1000, 0.99) ~ 13% of the mass.
  EXPECT_GT(zero, 10000u);
  EXPECT_LT(zero, 16000u);
}

}  // namespace
}  // namespace perfbench
