#include "probe.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

using bmr::Slice;
namespace mr = bmr::mr;

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

uint64_t ReduceTaskTotals::CallsFinishedBy(int64_t t_ns) const {
  auto it = std::upper_bound(
      checkpoints.begin(), checkpoints.end(), t_ns,
      [](int64_t t, const std::pair<int64_t, uint64_t>& c) {
        return t < c.first;
      });
  return it == checkpoints.begin() ? 0 : std::prev(it)->second;
}

uint64_t ProbeTotals::reduce_calls() const {
  uint64_t n = 0;
  for (const auto& r : reducers) n += r.calls;
  return n;
}

uint64_t ProbeTotals::reduce_records() const {
  uint64_t n = 0;
  for (const auto& r : reducers) n += r.records;
  return n;
}

int64_t ProbeTotals::reduce_fn_ns() const {
  int64_t n = 0;
  for (const auto& r : reducers) n += r.fn_ns;
  return n;
}

int64_t ProbeTotals::reduce_gap_ns() const {
  int64_t n = 0;
  for (const auto& r : reducers) n += r.gap_ns;
  return n;
}

double ProbeTotals::FractionFinishedBy(int64_t t_ns) const {
  uint64_t total = reduce_calls();
  if (total == 0) return 0;
  uint64_t before = 0;
  for (const auto& r : reducers) before += r.CallsFinishedBy(t_ns);
  return static_cast<double>(before) / static_cast<double>(total);
}

void JobProbe::AddMapTask(const MapTaskTotals& m) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.map_tasks += 1;
  totals_.map_calls += m.calls;
  totals_.emits += m.emits;
  totals_.map_ns += m.map_ns;
  totals_.emit_ns += m.emit_ns;
  totals_.input_gap_ns += m.input_gap_ns;
  totals_.map_body_ns += m.body_ns;
  totals_.first_map_start_ns =
      std::min(totals_.first_map_start_ns, m.start_ns);
}

void JobProbe::AddReduceTask(ReduceTaskTotals totals) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.reducers.push_back(std::move(totals));
}

void JobProbe::AddCombineNs(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.combine_ns += ns;
}

ProbeTotals JobProbe::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

int64_t JobClockToNs(const ProbeTotals& totals, const mr::JobResult& r,
                     double job_s) {
  double first_map_start = 0;
  bool found = false;
  for (const mr::TaskEvent& e : r.events) {
    if (e.phase != mr::Phase::kMap) continue;
    first_map_start = found ? std::min(first_map_start, e.start) : e.start;
    found = true;
  }
  return totals.first_map_start_ns +
         static_cast<int64_t>((job_s - first_map_start) * 1e9);
}

namespace {

constexpr int64_t kCheckpointNs = 50'000;

/// Times every Emit the wrapped mapper makes.
class TimedMapContext final : public mr::MapContext {
 public:
  void Bind(mr::MapContext* inner) { inner_ = inner; }

  void Emit(Slice key, Slice value) override {
    int64_t t0 = NowNs();
    inner_->Emit(key, value);
    emit_ns += NowNs() - t0;
    ++emits;
  }
  const bmr::Config& config() const override { return inner_->config(); }
  mr::Counters* counters() override { return inner_->counters(); }

  int64_t emit_ns = 0;
  uint64_t emits = 0;

 private:
  mr::MapContext* inner_ = nullptr;
};

class TimedMapper final : public mr::Mapper {
 public:
  TimedMapper(std::unique_ptr<mr::Mapper> inner,
              std::shared_ptr<JobProbe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {
    totals_.start_ns = NowNs();
    last_end_ns_ = totals_.start_ns;
  }
  TimedMapper(const TimedMapper&) = delete;
  TimedMapper& operator=(const TimedMapper&) = delete;

  ~TimedMapper() override {
    totals_.emit_ns = ctx_.emit_ns;
    totals_.emits = ctx_.emits;
    if (totals_.body_ns == 0) totals_.body_ns = NowNs() - totals_.start_ns;
    probe_->AddMapTask(totals_);
  }

  void Setup(mr::MapContext* ctx) override {
    ctx_.Bind(ctx);
    inner_->Setup(&ctx_);
  }

  void Map(Slice key, Slice value, mr::MapContext* ctx) override {
    int64_t t0 = NowNs();
    totals_.input_gap_ns += t0 - last_end_ns_;
    ctx_.Bind(ctx);
    inner_->Map(key, value, &ctx_);
    int64_t t1 = NowNs();
    totals_.map_ns += t1 - t0;
    ++totals_.calls;
    last_end_ns_ = t1;
  }

  void Cleanup(mr::MapContext* ctx) override {
    ctx_.Bind(ctx);
    inner_->Cleanup(&ctx_);
    totals_.body_ns = NowNs() - totals_.start_ns;
  }

 private:
  std::unique_ptr<mr::Mapper> inner_;
  std::shared_ptr<JobProbe> probe_;
  TimedMapContext ctx_;
  MapTaskTotals totals_;
  int64_t last_end_ns_ = 0;
};

class TimedCombiner final : public mr::Combiner {
 public:
  TimedCombiner(std::unique_ptr<mr::Combiner> inner,
                std::shared_ptr<JobProbe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}
  TimedCombiner(const TimedCombiner&) = delete;
  TimedCombiner& operator=(const TimedCombiner&) = delete;
  ~TimedCombiner() override { probe_->AddCombineNs(ns_); }

  void Combine(Slice key, const std::vector<Slice>& values,
               mr::MapEmitter* out) override {
    int64_t t0 = NowNs();
    inner_->Combine(key, values, out);
    ns_ += NowNs() - t0;
  }

 private:
  std::unique_ptr<mr::Combiner> inner_;
  std::shared_ptr<JobProbe> probe_;
  int64_t ns_ = 0;
};

/// Shared bookkeeping of the two reduce-side decorators.
class ReduceClock {
 public:
  explicit ReduceClock(std::shared_ptr<JobProbe> probe)
      : probe_(std::move(probe)) {}
  ReduceClock(const ReduceClock&) = delete;
  ReduceClock& operator=(const ReduceClock&) = delete;
  ~ReduceClock() { probe_->AddReduceTask(std::move(totals_)); }

  int64_t Start() {
    int64_t t0 = NowNs();
    if (totals_.calls > 0) totals_.gap_ns += t0 - last_end_ns_;
    return t0;
  }
  void End(int64_t t0, int64_t excluded_ns, uint64_t records) {
    int64_t t1 = NowNs();
    totals_.fn_ns += t1 - t0 - excluded_ns;
    totals_.records += records;
    ++totals_.calls;
    last_end_ns_ = t1;
    if (totals_.checkpoints.empty() ||
        t1 - totals_.checkpoints.back().first >= kCheckpointNs) {
      totals_.checkpoints.emplace_back(t1, totals_.calls);
    } else {
      totals_.checkpoints.back().second = totals_.calls;
    }
  }

 private:
  std::shared_ptr<JobProbe> probe_;
  ReduceTaskTotals totals_;
  int64_t last_end_ns_ = 0;
};

/// Counts the values a barrier Reduce consumes and the framework time
/// spent producing them (grouping compare + iteration).
class TimedValues final : public mr::ValuesIterator {
 public:
  explicit TimedValues(mr::ValuesIterator* inner) : inner_(inner) {}
  bool Next(Slice* value) override {
    int64_t t0 = NowNs();
    bool has = inner_->Next(value);
    next_ns += NowNs() - t0;
    if (has) ++records;
    return has;
  }
  int64_t next_ns = 0;
  uint64_t records = 0;

 private:
  mr::ValuesIterator* inner_;
};

class TimedReducer final : public mr::Reducer {
 public:
  TimedReducer(std::unique_ptr<mr::Reducer> inner,
               std::shared_ptr<JobProbe> probe)
      : inner_(std::move(inner)), clock_(std::move(probe)) {}

  void Setup(mr::ReduceContext* ctx) override { inner_->Setup(ctx); }
  void Reduce(Slice key, mr::ValuesIterator* values,
              mr::ReduceContext* ctx) override {
    TimedValues timed(values);
    int64_t t0 = clock_.Start();
    inner_->Reduce(key, &timed, ctx);
    clock_.End(t0, timed.next_ns, timed.records);
  }
  void Cleanup(mr::ReduceContext* ctx) override { inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  ReduceClock clock_;
};

class TimedIncremental final : public bmr::core::IncrementalReducer {
 public:
  TimedIncremental(std::unique_ptr<bmr::core::IncrementalReducer> inner,
                   std::shared_ptr<JobProbe> probe)
      : inner_(std::move(inner)), clock_(std::move(probe)) {}

  void Setup(const bmr::Config& config) override { inner_->Setup(config); }
  bool UsesStore() const override { return inner_->UsesStore(); }
  std::string InitPartial(Slice key) override {
    return inner_->InitPartial(key);
  }
  void Update(Slice key, Slice value, std::string* partial,
              mr::ReduceEmitter* out) override {
    int64_t t0 = clock_.Start();
    inner_->Update(key, value, partial, out);
    clock_.End(t0, 0, 1);
  }
  std::string MergePartials(Slice key, Slice a, Slice b) override {
    return inner_->MergePartials(key, a, b);
  }
  void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) override {
    inner_->Finish(key, partial, out);
  }
  void Flush(mr::ReduceEmitter* out) override { inner_->Flush(out); }

 private:
  std::unique_ptr<bmr::core::IncrementalReducer> inner_;
  ReduceClock clock_;
};

}  // namespace

mr::JobSpec Instrument(mr::JobSpec spec, std::shared_ptr<JobProbe> probe) {
  if (spec.mapper) {
    spec.mapper = [inner = spec.mapper, probe] {
      return std::make_unique<TimedMapper>(inner(), probe);
    };
  }
  if (spec.combiner) {
    spec.combiner = [inner = spec.combiner, probe] {
      return std::make_unique<TimedCombiner>(inner(), probe);
    };
  }
  if (spec.reducer) {
    spec.reducer = [inner = spec.reducer, probe] {
      return std::make_unique<TimedReducer>(inner(), probe);
    };
  }
  if (spec.incremental) {
    spec.incremental = [inner = spec.incremental, probe] {
      return std::make_unique<TimedIncremental>(inner(), probe);
    };
  }
  return spec;
}

}  // namespace perfbench
