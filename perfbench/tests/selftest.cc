// Self-tests of the benchmark: its statistics helpers, the layer
// decorators (transparent to the engine, and counting what the engine
// counts), and the agreement between the metrics it prints and the
// names BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "apps/wordcount.h"
#include "probe.h"
#include "run.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mr = bmr::mr;

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(v, n=4).
  Quartiles a = PyQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(a.q1, 0.75);
  EXPECT_DOUBLE_EQ(a.q2, 1.5);
  EXPECT_DOUBLE_EQ(a.q3, 2.25);
  Quartiles b = PyQuartiles({3, 1, 4, 1, 5, 9, 2, 6});
  EXPECT_DOUBLE_EQ(b.q1, 1.25);
  EXPECT_DOUBLE_EQ(b.q2, 3.5);
  EXPECT_DOUBLE_EQ(b.q3, 5.75);
  Quartiles c = PyQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(c.q1, 2.75);
  EXPECT_DOUBLE_EQ(c.q2, 5.5);
  EXPECT_DOUBLE_EQ(c.q3, 8.25);
  Quartiles one = PyQuartiles({4});
  EXPECT_DOUBLE_EQ(one.q1, 4);
  EXPECT_DOUBLE_EQ(one.q3, 4);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(StatsTest, TailIsHighestPercentileWithTenSamplesBeyond) {
  Tail t100 = TailPercentile(Range(100));
  EXPECT_DOUBLE_EQ(t100.percentile, 90);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_NEAR(t100.value, 90.1, 1e-9);

  Tail t1000 = TailPercentile(Range(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_NEAR(t1000.value, 990.01, 1e-9);

  Tail t200 = TailPercentile(Range(200));
  EXPECT_DOUBLE_EQ(t200.percentile, 95);
  EXPECT_EQ(t200.beyond, 10u);

  // Too few samples for any rung: the maximum, with nothing beyond.
  Tail t99 = TailPercentile(Range(99));
  EXPECT_DOUBLE_EQ(t99.percentile, 100);
  EXPECT_EQ(t99.beyond, 0u);
  EXPECT_DOUBLE_EQ(t99.value, 99);
  EXPECT_EQ(t99.n, 99u);
  EXPECT_EQ(TailPercentile({}).n, 0u);
}

/// A smoke-size instance of `name`, with its oracle ready.
std::unique_ptr<Workload> Smoke(const std::string& name) {
  auto shape = Workload::Shape(name, /*smoke=*/true);
  EXPECT_TRUE(shape.ok());
  auto w = Workload::Create(*shape, /*seed=*/3, /*smoke=*/true,
                            PB_TEST_SCRATCH);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_TRUE((*w)->PrepareOracle().ok());
  return std::move(*w);
}

mr::JobResult RunJob(Workload* w, const mr::JobSpec& spec) {
  mr::JobResult result = mr::JobRunner(w->cluster()).Run(spec);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  return result;
}

/// Unwrapped, then wrapped, in both modes: the oracle holds the first
/// output and CheckAndDelete requires every later one to be
/// byte-identical to it, so the decorators cannot change a byte.  The
/// decorators must also count exactly what the engine counts.
void ExpectTransparentAndCounted(const std::string& name,
                                 bool with_combiner) {
  std::unique_ptr<Workload> w = Smoke(name);
  for (bool barrierless : {true, false}) {
    mr::JobSpec plain = w->MakeJob(barrierless);
    if (with_combiner) {
      bmr::apps::AppOptions options;
      options.extra.SetBool("wordcount.use_combiner", true);
      plain.combiner = bmr::apps::MakeWordCountJob(options).combiner;
    }
    mr::JobResult unwrapped = RunJob(w.get(), plain);
    EXPECT_TRUE(w->CheckAndDelete(unwrapped).ok());

    mr::JobSpec again = w->MakeJob(barrierless);
    again.combiner = plain.combiner;
    auto probe = std::make_shared<JobProbe>();
    mr::JobResult wrapped = RunJob(w.get(), Instrument(again, probe));
    bmr::Status same = w->CheckAndDelete(wrapped);
    EXPECT_TRUE(same.ok()) << name << ": " << same.ToString();

    ProbeTotals t = probe->Totals();
    EXPECT_EQ(t.map_calls, wrapped.counters.Get(mr::kCtrMapInputRecords));
    EXPECT_EQ(t.reduce_records(),
              wrapped.counters.Get(mr::kCtrReduceInputRecords));
    if (with_combiner) {
      EXPECT_EQ(t.emits, wrapped.counters.Get(mr::kCtrCombineInputRecords));
      EXPECT_GT(t.combine_ns, 0);
    } else {
      EXPECT_EQ(t.emits, wrapped.counters.Get(mr::kCtrMapOutputRecords));
    }
    EXPECT_GT(t.map_tasks, 0u);
    EXPECT_GT(t.reduce_calls(), 0u);
    EXPECT_GT(t.map_ns, 0);
  }
}

TEST(DecoratorTest, WordCountOutputUnchangedAndCountsMatchEngine) {
  ExpectTransparentAndCounted("wordcount", false);
}

TEST(DecoratorTest, CombinerIsTimedAndOutputUnchanged) {
  ExpectTransparentAndCounted("wordcount", true);
}

TEST(DecoratorTest, SortOverTcpOutputUnchangedAndCountsMatchEngine) {
  ExpectTransparentAndCounted("sort-tcp", false);
}

TEST(DecoratorTest, BarrierReduceFinishesAfterLastMapCommit) {
  std::unique_ptr<Workload> w = Smoke("wordcount");
  auto probe = std::make_shared<JobProbe>();
  mr::JobResult r = RunJob(w.get(), Instrument(w->MakeJob(false), probe));
  ProbeTotals t = probe->Totals();
  // No barrier Reduce call can finish before the last map commits.
  EXPECT_EQ(t.FractionFinishedBy(JobClockToNs(t, r, r.last_map_done)), 0.0);
  EXPECT_DOUBLE_EQ(t.FractionFinishedBy(INT64_MAX), 1.0);
}

TEST(DecoratorTest, CheckpointsCountCallsFinishedByATime) {
  ReduceTaskTotals r;
  r.calls = 30;
  r.checkpoints = {{100, 10}, {200, 20}, {300, 30}};
  EXPECT_EQ(r.CallsFinishedBy(50), 0u);
  EXPECT_EQ(r.CallsFinishedBy(100), 10u);
  EXPECT_EQ(r.CallsFinishedBy(250), 20u);
  EXPECT_EQ(r.CallsFinishedBy(1000), 30u);
}

/// Names inside the JSON array that follows `key` in BENCHMARK.json.
std::set<std::string> DeclaredNames(const std::string& json,
                                    const std::string& key) {
  size_t start = json.find("\"" + key + "\"");
  EXPECT_NE(start, std::string::npos) << key;
  size_t open = json.find('[', start);
  size_t close = json.find(']', open);
  std::string section = json.substr(open, close - open);
  std::set<std::string> names;
  std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(section.begin(), section.end(), name_re), end;
       it != end; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(NamesTest, PrintedMetricsAreExactlyThoseBenchmarkJsonDeclares) {
  std::ifstream f(PB_BENCHMARK_JSON);
  ASSERT_TRUE(f.good()) << PB_BENCHMARK_JSON;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  std::set<std::string> e2e, layers;
  for (const auto& [name, unit] : EndToEndMetrics()) e2e.insert(name);
  for (const auto& [name, unit] : PerLayerMetrics()) layers.insert(name);
  EXPECT_EQ(e2e, DeclaredNames(json, "end_to_end"));
  EXPECT_EQ(layers, DeclaredNames(json, "per_layer"));
  std::set<std::string> workloads = DeclaredNames(json, "workloads");
  EXPECT_FALSE(workloads.empty());
  for (const std::string& name : workloads) {
    EXPECT_TRUE(Workload::Shape(name, false).ok()) << name;
  }
}

}  // namespace
}  // namespace perfbench
