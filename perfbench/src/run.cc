#include "run.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "common/histogram.h"
#include "mr/timeline.h"
#include "obs/metric_names.h"
#include "probe.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace mr = bmr::mr;

namespace {

/// One job as the driver thread saw it.
struct JobRecord {
  bool barrierless = true;
  bool traced = false;
  bool ok = false;
  double latency_s = 0;     ///< submit to Wait's return
  double queue_wait_s = 0;  ///< service: submit to start
  double run_s = 0;         ///< service: start to end
  int64_t submit_ns = 0;
  // Traced jobs only.
  std::shared_ptr<JobProbe> probe;
  TransportStats net;  ///< this job's calls alone
  mr::JobResult result;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Restarts the process's peak-RSS accounting (VmHWM) from its
/// current RSS, so VmHWM then reports the peak since this call.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// A memory figure of this process from /proc/self/status, MiB:
/// "VmHWM:" (peak resident set) or "VmRSS:" (resident set now).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

/// peak_rss_mb covers this many measured jobs.  The process's resident
/// set grows with every job the service has run, so a peak over all
/// the jobs a run fits into its seconds would depend on how fast they
/// ran.
constexpr size_t kRssJobs = 8;

/// Prepares one job, decorated and with obs.trace on when traced.
mr::JobSpec PrepareJob(Workload* w, JobRecord* rec) {
  mr::JobSpec spec = w->MakeJob(rec->barrierless);
  if (rec->traced) {
    rec->probe = std::make_shared<JobProbe>();
    spec = Instrument(std::move(spec), rec->probe);
    spec.config.SetBool("obs.trace", true);
  }
  return spec;
}

/// Fills the service-side timings of `rec` and keeps what a traced
/// job's layer metrics need.  The span log is dropped: histograms,
/// counters and task events carry everything used below.
void TakeOutcome(bmr::service::JobOutcome outcome, JobRecord* rec) {
  rec->queue_wait_s = outcome.queue_wait_seconds;
  rec->run_s = outcome.latency_seconds - outcome.queue_wait_seconds;
  if (rec->traced) {
    rec->result = std::move(outcome.result);
    rec->result.trace = bmr::obs::TraceLog();
  }
}

class Runner {
 public:
  Runner(Workload* w, RunResult* out) : w_(w), out_(out) {}

  /// Closed loop: one job at a time, modes (and, traced, untraced and
  /// traced copies) rotated in an order that reverses every round so
  /// no configuration always runs first.
  void ClosedLoop(double seconds, bool trace) {
    struct Config {
      bool barrierless;
      bool traced;
    };
    std::vector<Config> configs = {{true, false}, {false, false}};
    if (trace) {
      configs.push_back({true, true});
      configs.push_back({false, true});
    }
    ResetPeakRss();
    rss_start_mb_ = StatusMb("VmRSS:");
    const int64_t start = NowNs();
    for (int round = 0;; ++round) {
      if (round > 0 && Seconds(NowNs() - start) >= seconds) break;
      for (size_t k = 0; k < configs.size(); ++k) {
        const Config& c =
            configs[round % 2 == 0 ? k : configs.size() - 1 - k];
        JobRecord rec;
        rec.barrierless = c.barrierless;
        rec.traced = c.traced;
        RunClosed(&rec);
        records_.push_back(std::move(rec));
        if (records_.size() == kRssJobs) peak_rss_mb_ = StatusMb("VmHWM:");
      }
    }
    if (records_.size() < kRssJobs) peak_rss_mb_ = StatusMb("VmHWM:");
    rss_end_mb_ = StatusMb("VmRSS:");
  }

  /// A backlog for the service: two jobs of each mode submitted at
  /// once, barrier-less first, into the 1-slot service.  The first
  /// starts at once; the pool tree then picks among the other three,
  /// so queueing and the fair-share choice are the service's own.
  /// Outputs are checked once every job is in, so no check overlaps a
  /// running job.
  void Backlog() {
    std::vector<JobRecord> recs(4);
    std::vector<bmr::StatusOr<bmr::service::JobTicket>> tickets;
    for (size_t i = 0; i < recs.size(); ++i) {
      recs[i].barrierless = i < recs.size() / 2;
      tickets.push_back(w_->service()->Submit(
          Workload::PoolFor(recs[i].barrierless),
          w_->MakeJob(recs[i].barrierless)));
    }
    std::vector<bmr::service::JobOutcome> outcomes(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      if (tickets[i].ok()) {
        outcomes[i] = w_->service()->Wait(*tickets[i]);
      } else {
        outcomes[i].status = tickets[i].status();
      }
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      recs[i].ok = Verify(outcomes[i]);
      TakeOutcome(std::move(outcomes[i]), &recs[i]);
      backlog_.push_back(std::move(recs[i]));
    }
  }

  /// One small barrier-less job (the first input file) that brings up
  /// thread pools, connections and allocator state before timing.
  /// Counted in set-up time; a failure counts as a failed job.
  void WarmUp() {
    mr::JobSpec spec = w_->MakeJob(true);
    spec.input_files.resize(1);
    bmr::service::JobOutcome outcome =
        SubmitAndWait(Workload::PoolFor(true), spec);
    bmr::Status st = outcome.status.ok()
                         ? w_->DeleteOutput(outcome.result)
                         : outcome.status;
    if (!st.ok()) {
      Note("warm-up failed: " + st.ToString());
      ++warmup_failures_;
    }
  }

  uint64_t warmup_failures() const { return warmup_failures_; }
  const std::vector<JobRecord>& records() const { return records_; }
  const std::vector<JobRecord>& backlog() const { return backlog_; }
  /// Process peak resident set over the first kRssJobs closed-loop jobs.
  double peak_rss_mb() const { return peak_rss_mb_; }
  /// Resident set when the closed loop started and when it ended.
  double rss_start_mb() const { return rss_start_mb_; }
  double rss_end_mb() const { return rss_end_mb_; }

 private:
  void Note(const std::string& line) { out_->notes.push_back(line); }

  /// Closed-loop submission: a rejection becomes the outcome's status.
  bmr::service::JobOutcome SubmitAndWait(const std::string& pool,
                                         const mr::JobSpec& spec) {
    auto ticket = w_->service()->Submit(pool, spec);
    if (!ticket.ok()) {
      bmr::service::JobOutcome rejected;
      rejected.status = ticket.status();
      return rejected;
    }
    return w_->service()->Wait(*ticket);
  }

  /// The job ran, succeeded, and wrote the right output.
  bool Verify(const bmr::service::JobOutcome& outcome) {
    if (!outcome.status.ok()) {
      Note("job failed or rejected: " + outcome.status.ToString());
      return false;
    }
    bmr::Status st = w_->CheckAndDelete(outcome.result);
    if (!st.ok()) Note("wrong output: " + st.ToString());
    return st.ok();
  }

  /// Submit, wait, check.
  void RunClosed(JobRecord* rec) {
    mr::JobSpec spec = PrepareJob(w_, rec);
    if (rec->traced) {
      w_->transport()->TakeStats();
      w_->transport()->SetTiming(true);
    }
    rec->submit_ns = NowNs();
    bmr::service::JobOutcome outcome =
        SubmitAndWait(Workload::PoolFor(rec->barrierless), spec);
    const int64_t done = NowNs();
    if (rec->traced) {
      rec->net = w_->transport()->TakeStats();
      w_->transport()->SetTiming(false);
    }
    rec->latency_s = Seconds(done - rec->submit_ns);
    rec->ok = Verify(outcome);
    TakeOutcome(std::move(outcome), rec);
  }

  Workload* w_;
  RunResult* out_;
  std::vector<JobRecord> records_;
  std::vector<JobRecord> backlog_;
  double peak_rss_mb_ = 0;
  double rss_start_mb_ = 0;
  double rss_end_mb_ = 0;
  uint64_t warmup_failures_ = 0;
};

std::vector<double> Latencies(const std::vector<JobRecord>& records,
                              bool barrierless, bool traced) {
  std::vector<double> v;
  for (const JobRecord& r : records) {
    if (r.ok && r.barrierless == barrierless && r.traced == traced) {
      v.push_back(r.latency_s);
    }
  }
  return v;
}

/// Largest task duration of `phase` (the time it adds to the slowest
/// task), 0 when the phase did not occur.
double MaxPhaseSeconds(const mr::JobResult& r, mr::Phase phase) {
  double best = 0;
  for (const mr::TaskEvent& e : r.events) {
    if (e.phase == phase) best = std::max(best, e.end - e.start);
  }
  return best;
}

/// The engine's latency histograms behind per-layer metrics, pooled
/// over jobs before the mean is taken: the store histograms hold whole
/// microseconds, so a fast store's ops read 0 and only a large pool
/// holds the slow ops that move the mean.
const std::vector<std::pair<std::string, const char*>>& PooledHistograms() {
  static const std::vector<std::pair<std::string, const char*>> names = {
      {"shuffle.push_wait_us_mean", bmr::obs::kHShuffleQueuePushWaitUs},
      {"shuffle.queue_wait_us_mean", bmr::obs::kHShuffleQueueWaitUs},
      {"core.store_get_us_mean", bmr::obs::kHStoreGetUs},
      {"core.store_put_us_mean", bmr::obs::kHStorePutUs},
  };
  return names;
}

/// Layer metrics of one traced job.
std::map<std::string, double> JobLayers(const JobRecord& rec) {
  std::map<std::string, double> m;
  const ProbeTotals p = rec.probe->Totals();
  const mr::JobResult& r = rec.result;

  double map_task_s = 0;
  for (const mr::TaskEvent& e : r.events) {
    if (e.phase == mr::Phase::kMap) map_task_s += e.end - e.start;
  }
  const int64_t last_commit_ns = JobClockToNs(p, r, r.last_map_done);
  const int64_t run_start_ns =
      rec.submit_ns + static_cast<int64_t>(rec.queue_wait_s * 1e9);
  // Map task time after Cleanup: map-side sort, combine, serialize.
  const double map_finish_s =
      std::max(0.0, map_task_s - Seconds(p.map_body_ns));

  m["apps.map_fn_s"] = Seconds(p.map_ns - p.emit_ns);
  m["apps.reduce_fn_s"] = Seconds(p.reduce_fn_ns());
  m["apps.map_records"] = static_cast<double>(p.map_calls);
  m["apps.reduce_records"] = static_cast<double>(p.reduce_records());
  m["mr.collect_s"] = Seconds(p.emit_ns + p.combine_ns) + map_finish_s;
  m["mr.input_gap_s"] = Seconds(p.input_gap_ns);
  m["mr.map_phase_s"] = r.last_map_done;
  m["mr.reduce_tail_s"] = r.elapsed_seconds - r.last_map_done;
  m["mr.sort_merge_s"] = MaxPhaseSeconds(r, mr::Phase::kSortMerge);
  m["mr.overlap_fraction"] = p.FractionFinishedBy(last_commit_ns);
  m["mr.task_launch_s"] = Seconds(p.first_map_start_ns - run_start_ns);
  m["mr.codec_raw_bytes"] = static_cast<double>(r.data_plane.codec_raw_bytes);
  m["mr.codec_wire_bytes"] =
      static_cast<double>(r.data_plane.codec_wire_bytes);
  const TransportStats& net = rec.net;
  m["net.fetch_calls"] = static_cast<double>(net.fetch.calls);
  m["net.fetch_rtt_p50_us"] = Median(net.fetch.rtt_us);
  m["net.fetch_rtt_tail_us"] = TailPercentile(net.fetch.rtt_us).value;
  m["net.fetch_busy_s"] = Seconds(net.fetch.busy_ns);
  m["net.dfs_calls"] = static_cast<double>(net.dfs.calls);
  m["net.dfs_busy_s"] = Seconds(net.dfs.busy_ns);
  m["net.wire_bytes"] = static_cast<double>(net.wire_bytes);
  m["core.driver_gap_s"] = Seconds(p.reduce_gap_ns());
  m["core.spills"] = static_cast<double>(r.counters.Get(mr::kCtrSpills));
  m["core.spilled_bytes"] =
      static_cast<double>(r.counters.Get(mr::kCtrSpilledBytes));
  std::map<int, uint64_t> heap_peak;
  for (const mr::MemorySample& s : r.memory_samples) {
    heap_peak[s.reducer] = std::max(heap_peak[s.reducer], s.bytes);
  }
  double heap = 0;
  for (const auto& [reducer, bytes] : heap_peak) heap += bytes;
  m["core.heap_peak_mb"] = heap / (1 << 20);
  m["dfs.output_s"] = MaxPhaseSeconds(r, mr::Phase::kOutput);
  return m;
}

/// Median over jobs of each layer metric.
std::map<std::string, double> MedianLayers(
    const std::vector<std::map<std::string, double>>& jobs) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& job : jobs) {
    for (const auto& [name, v] : job) columns[name].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : columns) out[name] = Median(values);
  return out;
}

std::string StampJson(const RunOptions& o, const WorkloadShape& s) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr ? v : "unknown");
  };
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"stamp\": {\"size\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
      "\"build_type\": \"%s\", \"opt_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"nodes\": %d, \"map_slots\": %d, \"reduce_slots\": %d, "
      "\"reducers\": %d, \"block_bytes\": %llu, \"transport\": \"%s\", "
      "\"codec\": \"%s\", \"store\": \"%s\", \"input\": \"%s\"}}",
      o.smoke ? "smoke" : "full", s.name.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), PB_BUILD_TYPE, PB_OPT_FLAGS,
      PB_COMPILER, env("PB_GIT_COMMIT").c_str(),
      env("PB_SOURCE_DIGEST").c_str(), s.slaves + 1, s.map_slots,
      s.reduce_slots, s.reducers,
      static_cast<unsigned long long>(s.block_bytes), s.transport.c_str(),
      s.codec.c_str(), s.store.c_str(), s.input.c_str());
  return buf;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"job_s", "s"},       {"barrier_job_s", "s"}, {"job_tail_s", "s"},
      {"peak_rss_mb", "MB"}, {"setup_s", "s"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"apps.map_fn_s", "s"},
      {"apps.reduce_fn_s", "s"},
      {"apps.map_records", "count"},
      {"apps.reduce_records", "count"},
      {"mr.collect_s", "s"},
      {"mr.input_gap_s", "s"},
      {"mr.map_phase_s", "s"},
      {"mr.reduce_tail_s", "s"},
      {"mr.sort_merge_s", "s"},
      {"mr.overlap_fraction", "fraction"},
      {"mr.overlap_fraction_barrier", "fraction"},
      {"mr.task_launch_s", "s"},
      {"mr.codec_raw_bytes", "bytes"},
      {"mr.codec_wire_bytes", "bytes"},
      {"net.fetch_calls", "count"},
      {"net.fetch_rtt_p50_us", "us"},
      {"net.fetch_rtt_tail_us", "us"},
      {"net.fetch_busy_s", "s"},
      {"net.dfs_calls", "count"},
      {"net.dfs_busy_s", "s"},
      {"net.wire_bytes", "bytes"},
      {"shuffle.push_wait_us_mean", "us"},
      {"shuffle.queue_wait_us_mean", "us"},
      {"core.driver_gap_s", "s"},
      {"core.store_get_us_mean", "us"},
      {"core.store_put_us_mean", "us"},
      {"core.spills", "count"},
      {"core.spilled_bytes", "bytes"},
      {"core.heap_peak_mb", "MB"},
      {"dfs.output_s", "s"},
      {"service.queue_wait_s_p50", "s"},
      {"service.run_s_p50", "s"},
      {"service.fair_share_min_fraction", "fraction"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return names;
}

RunResult RunBenchmark(const RunOptions& options) {
  RunResult out;
  auto shape = Workload::Shape(options.workload, options.smoke);
  if (!shape.ok()) {
    out.notes.push_back(shape.status().ToString());
    return out;
  }
  out.stamp_json = StampJson(options, *shape);

  // Set-up: cluster, service, input and a warm-up job, repeated; the
  // last instance is the one measured.  The oracle is
  // computed once, untimed, and handed on: every instance holds the
  // same seeded input.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Runner> runner;
  // Set up at least three times and until two seconds have gone into
  // it, so cheap set-ups still get a stable median; a smoke run sets up
  // once.
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 25;
  constexpr double kSetupBudgetS = 2.0;
  double setup_total_s = 0;
  for (int k = 0;; ++k) {
    if (options.smoke ? k >= 1
                      : k >= kMaxSetups || (k >= kMinSetups &&
                                            setup_total_s >= kSetupBudgetS)) {
      break;
    }
    Workload::Oracle oracle;
    if (w != nullptr) oracle = w->TakeOracle();
    runner.reset();
    w.reset();  // tear the previous instance down before timing the next
    int64_t t0 = NowNs();
    auto created = Workload::Create(*shape, options.seed, options.smoke,
                                    options.scratch_dir);
    if (!created.ok()) {
      out.notes.push_back("set-up failed: " + created.status().ToString());
      return out;
    }
    w = std::move(*created);
    double untimed_s = 0;
    if (k == 0) {
      const int64_t o0 = NowNs();
      bmr::Status st = w->PrepareOracle();
      if (!st.ok()) {
        out.notes.push_back("oracle failed: " + st.ToString());
        return out;
      }
      untimed_s = Seconds(NowNs() - o0);
    } else {
      w->SetOracle(std::move(oracle));
    }
    runner = std::make_unique<Runner>(w.get(), &out);
    runner->WarmUp();
    setup_s.push_back(Seconds(NowNs() - t0) - untimed_s);
    setup_total_s += setup_s.back();
  }

  // Hand the memory the torn-down set-ups left free in the allocator
  // back to the system, so peak_rss_mb does not depend on how many
  // set-ups ran before the measured jobs.
  malloc_trim(0);
  runner->ClosedLoop(options.seconds, options.trace);
  if (options.trace) runner->Backlog();

  const std::vector<JobRecord>& records = runner->records();
  const std::vector<JobRecord>& backlog = runner->backlog();
  out.attempted = records.size() + backlog.size();
  for (const std::vector<JobRecord>* jobs : {&records, &backlog}) {
    for (const JobRecord& r : *jobs) out.failed += r.ok ? 0 : 1;
  }
  out.failed += runner->warmup_failures();
  out.attempted += runner->warmup_failures();
  out.correct = out.failed == 0;
  out.notes.push_back(
      "failed_ratio " +
      Fmt("%.4f", out.attempted ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0) +
      " ratio (" + std::to_string(out.failed) + " of " +
      std::to_string(out.attempted) + " jobs failed, were rejected or wrong)");

  std::vector<double> bl = Latencies(records, true, false);
  std::vector<double> b = Latencies(records, false, false);
  const double job_s = Median(bl);
  const double barrier_job_s = Median(b);
  auto describe = [&](const char* name, const std::vector<double>& v) {
    Quartiles q = PyQuartiles(v);
    out.notes.push_back(std::string(name) + " n=" + std::to_string(v.size()) +
                        " q1=" + Fmt("%.4f", q.q1) +
                        " median=" + Fmt("%.4f", q.q2) +
                        " q3=" + Fmt("%.4f", q.q3));
  };
  std::string order = "closed-loop jobs in run order (B = barrier-less, W = "
                      "with barrier, * = traced):";
  for (const JobRecord& rec : records) {
    order += std::string(" ") + (rec.barrierless ? "B" : "W") +
             (rec.traced ? "*" : "") + Fmt("%.3f", rec.latency_s);
  }
  out.notes.push_back(order);
  describe("job_s", bl);
  describe("barrier_job_s", b);
  if (job_s > 0) {
    out.notes.push_back("barrier-less speed-up (barrier_job_s / job_s) " +
                        Fmt("%.3f", barrier_job_s / job_s) +
                        " (informational, not a metric)");
  }

  if (!options.trace) {
    Tail tail = TailPercentile(bl);
    out.notes.push_back("job_tail_s is p" + Fmt("%g", tail.percentile) +
                        " of n=" + std::to_string(tail.n) + " with " +
                        std::to_string(tail.beyond) + " samples beyond it");
    describe("setup_s", setup_s);
    out.notes.push_back(
        "peak_rss_mb is the process peak over the first " +
        std::to_string(std::min(kRssJobs, records.size())) +
        " jobs; resident set " + Fmt("%.0f", runner->rss_start_mb()) +
        " MB when the loop started, " + Fmt("%.0f", runner->rss_end_mb()) +
        " MB after its " + std::to_string(records.size()) + " jobs");
    std::map<std::string, double> e2e = {
        {"job_s", job_s},
        {"barrier_job_s", barrier_job_s},
        {"job_tail_s", tail.value},
        {"peak_rss_mb", runner->peak_rss_mb()},
        {"setup_s", Median(setup_s)},
    };
    for (const auto& [name, unit] : EndToEndMetrics()) {
      out.metrics[name] = {e2e[name], unit};
    }
    return out;
  }

  // Traced run: per-layer metrics from the traced jobs.  Per-job
  // metrics take the median over jobs; histogram means pool the jobs.
  std::vector<std::map<std::string, double>> bl_layers;
  std::vector<std::map<std::string, double>> b_layers;
  std::map<std::string, bmr::LogHistogram> pooled;
  for (const JobRecord& r : records) {
    if (!r.traced || !r.ok) continue;
    (r.barrierless ? bl_layers : b_layers).push_back(JobLayers(r));
    if (!r.barrierless) continue;
    for (const auto& [metric, histogram] : PooledHistograms()) {
      auto it = r.result.histograms.find(histogram);
      if (it != r.result.histograms.end()) pooled[metric].Merge(it->second);
    }
  }
  std::map<std::string, double> layers = MedianLayers(bl_layers);
  for (const auto& [metric, histogram] : PooledHistograms()) {
    layers[metric] = pooled[metric].mean();
  }
  std::map<std::string, double> barrier_layers = MedianLayers(b_layers);
  layers["mr.sort_merge_s"] = barrier_layers["mr.sort_merge_s"];
  layers["mr.overlap_fraction_barrier"] =
      barrier_layers["mr.overlap_fraction"];
  // Service metrics from the backlog, which completed last.  The
  // first half of its completions shows whose job the pool tree
  // started when both pools had work queued.
  std::vector<double> queue_wait;
  std::vector<double> run_s;
  for (const JobRecord& r : backlog) {
    if (!r.ok) continue;
    queue_wait.push_back(r.queue_wait_s);
    run_s.push_back(r.run_s);
  }
  layers["service.queue_wait_s_p50"] = Median(queue_wait);
  layers["service.run_s_p50"] = Median(run_s);
  std::vector<std::string> completed = w->service()->CompletionOrder();
  const size_t half = std::min(completed.size(), backlog.size()) / 2;
  std::string dispatched;
  std::map<std::string, double> first_half = {
      {Workload::PoolFor(true), 0}, {Workload::PoolFor(false), 0}};
  for (size_t i = completed.size() - 2 * half; i < completed.size(); ++i) {
    dispatched += " " + completed[i];
    if (i < completed.size() - half) first_half[completed[i]] += 1;
  }
  double min_share = 1;
  for (const auto& [pool, n] : first_half) {
    min_share = std::min(min_share, half > 0 ? n / half : 0.0);
  }
  layers["service.fair_share_min_fraction"] = min_share;
  out.notes.push_back("backlog completion order:" + dispatched);
  const double traced_job_s = Median(Latencies(records, true, true));
  layers["obs.trace_overhead_ratio"] = job_s > 0 ? traced_job_s / job_s : 0;
  out.notes.push_back("per-layer metrics: medians over " +
                      std::to_string(bl_layers.size()) +
                      " traced barrier-less and " +
                      std::to_string(b_layers.size()) +
                      " traced barrier jobs; traced job_s " +
                      Fmt("%.4f", traced_job_s) + " vs untraced " +
                      Fmt("%.4f", job_s));
  for (const auto& [name, unit] : PerLayerMetrics()) {
    out.metrics[name] = {layers[name], unit};
  }
  return out;
}

}  // namespace perfbench
