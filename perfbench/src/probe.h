// Layer probes for the traced run.  The benchmark wraps the user code
// it hands the engine — Mapper, the MapContext that Map emits through,
// Combiner, the barrier Reducer and its ValuesIterator, and the
// barrier-less IncrementalReducer — in timing decorators, so the time
// of each layer is measured at the engine's public interfaces from the
// benchmark's own files, with no instrumentation inside src/.
//
// Each decorated object is used by one task thread; it accumulates in
// plain fields and folds its totals into the job's JobProbe once, when
// the engine destroys it.  An untraced run hands the engine the
// undecorated spec, so it pays nothing for the probes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mr/engine.h"
#include "mr/job.h"

namespace perfbench {

/// Monotonic nanoseconds since a process-wide epoch (steady_clock).
int64_t NowNs();

/// One map-side decorator's totals (one map task attempt).
struct MapTaskTotals {
  uint64_t calls = 0;        ///< Map() calls
  uint64_t emits = 0;
  int64_t map_ns = 0;        ///< Map() wall, Emit included
  int64_t emit_ns = 0;       ///< inside MapContext::Emit
  int64_t input_gap_ns = 0;  ///< task start -> first Map, and between Maps
  int64_t body_ns = 0;       ///< decorator creation -> Cleanup end
  int64_t start_ns = 0;      ///< decorator creation (task start)
};

/// One reduce-side decorator's totals (one reduce task attempt).
struct ReduceTaskTotals {
  uint64_t calls = 0;    ///< Update calls, or Reduce calls (key groups)
  uint64_t records = 0;  ///< values consumed by the reduce function
  int64_t fn_ns = 0;     ///< Update / Reduce self time
  int64_t gap_ns = 0;    ///< between one call's return and the next start
  /// (time, calls finished by then), appended at most every 50 us, so
  /// "calls finished before T" is a binary search after the job.
  std::vector<std::pair<int64_t, uint64_t>> checkpoints;

  /// Calls that had finished at time `t_ns` (to checkpoint resolution).
  uint64_t CallsFinishedBy(int64_t t_ns) const;
};

/// Everything the decorators of one job measured.
struct ProbeTotals {
  // Map side, summed over map tasks.
  uint64_t map_tasks = 0;
  uint64_t map_calls = 0;
  uint64_t emits = 0;
  int64_t map_ns = 0;
  int64_t emit_ns = 0;
  int64_t input_gap_ns = 0;
  int64_t map_body_ns = 0;
  int64_t combine_ns = 0;
  int64_t first_map_start_ns = INT64_MAX;  ///< earliest mapper creation
  // Reduce side, one entry per reduce task.
  std::vector<ReduceTaskTotals> reducers;

  uint64_t reduce_calls() const;
  uint64_t reduce_records() const;
  int64_t reduce_fn_ns() const;
  int64_t reduce_gap_ns() const;
  /// Fraction of reduce-function calls finished by `t_ns`.
  double FractionFinishedBy(int64_t t_ns) const;
};

/// Per-job sink the decorators fold into.  Thread-safe.
class JobProbe {
 public:
  void AddMapTask(const MapTaskTotals& task);
  void AddReduceTask(ReduceTaskTotals totals);
  void AddCombineNs(int64_t ns);
  ProbeTotals Totals() const;

 private:
  mutable std::mutex mu_;
  ProbeTotals totals_;
};

/// The benchmark-clock time (NowNs) of `job_s` seconds on the job's own
/// clock, the one TaskEvents and last_map_done use.  That clock starts
/// just before map tasks are submitted, and each mapper is created
/// right after its task's kMap event opens, so the earliest mapper
/// creation pins the offset between the two clocks.
int64_t JobClockToNs(const ProbeTotals& totals, const bmr::mr::JobResult& r,
                     double job_s);

/// Returns `spec` with its mapper, combiner, reducer and incremental
/// reducer factories decorated to report into `probe`.
bmr::mr::JobSpec Instrument(bmr::mr::JobSpec spec,
                            std::shared_ptr<JobProbe> probe);

}  // namespace perfbench
