// The benchmark's three workloads.  Each builds its own cluster around
// a TimedTransport, generates its input from the seed, reads that
// input back through the DFS to compute the expected output on its own
// (the oracle), and checks every job's output against it.
//
//   wordcount     Zipf text, in-process transport, no codec, in-memory
//                 store: ~7M reduce records folding onto 50k keys, so
//                 the per-record reduce path and the reducer FIFO are
//                 the bottleneck while the transport costs little.
//   sort-tcp      2M uniform integers over TCP with the lz4 codec and a
//                 spill-merge store with an 8 MB threshold: every
//                 record becomes a new stored key (write-heavy), and
//                 TCP fetch, framing, codec, spill I/O and output write
//                 all do real work.
//   blackscholes  8 compute-bound Monte Carlo map units feeding one
//                 key: the workload with mapper slack, where the
//                 paper's mechanism should win.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mr/engine.h"
#include "service/job_service.h"
#include "timed_transport.h"

namespace perfbench {

/// Static description of a workload, printed with every result.
struct WorkloadShape {
  std::string name;
  int slaves = 4;
  int map_slots = 2;
  int reduce_slots = 2;
  int reducers = 4;
  uint64_t block_bytes = 2 << 20;
  std::string transport = "inproc";
  std::string codec = "none";
  std::string store = "mem";
  std::string input;  ///< human-readable input description
};

/// One set-up instance of a workload: cluster, service, input, oracle.
class Workload {
 public:
  /// Shape of `name` at full or smoke size; NotFound for other names.
  static bmr::StatusOr<WorkloadShape> Shape(const std::string& name,
                                            bool smoke);

  /// Expected output, computed independently of the engine, plus the
  /// first verified output every later job is compared with.
  struct Oracle {
    std::unordered_map<std::string, int64_t> counts;  ///< wordcount
    std::string sorted;  ///< sort-tcp: framed records of the sorted input
    uint64_t samples = 0;  ///< blackscholes: Monte Carlo sample count
    bool have_reference = false;
    std::string reference_output;  ///< raw bytes of the first output
    double reference_mean = 0;     ///< blackscholes
    double reference_stddev = 0;
  };

  /// Builds the cluster (with the timed transport), the job service
  /// (one job at a time) with one pool per mode, and writes the seeded input into the DFS.
  static bmr::StatusOr<std::unique_ptr<Workload>> Create(
      const WorkloadShape& shape, uint64_t seed, bool smoke,
      const std::string& scratch_dir);

  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Reads the input back through the DFS and computes the oracle.
  [[nodiscard]] bmr::Status PrepareOracle();
  /// Hands the oracle to another instance built from the same seed.
  Oracle TakeOracle() { return std::move(oracle_); }
  void SetOracle(Oracle oracle) { oracle_ = std::move(oracle); }

  /// A fresh job of this workload writing to a unique output path.
  bmr::mr::JobSpec MakeJob(bool barrierless);

  /// Verifies a finished job's output (against the oracle, and byte for
  /// byte against every earlier job of the run, whatever its mode),
  /// then deletes it.
  [[nodiscard]] bmr::Status CheckAndDelete(const bmr::mr::JobResult& result);

  /// Deletes a finished job's output without checking it.
  [[nodiscard]] bmr::Status DeleteOutput(const bmr::mr::JobResult& result);

  const WorkloadShape& shape() const { return shape_; }
  bmr::mr::ClusterContext* cluster() { return cluster_.get(); }
  TimedTransport* transport() { return transport_; }
  bmr::service::JobService* service() { return service_.get(); }
  /// Pool a job of the given mode is submitted to.
  static std::string PoolFor(bool barrierless) {
    return barrierless ? "barrierless" : "barrier";
  }

 private:
  enum class App { kWordCount, kSort, kBlackScholes };

  Workload(WorkloadShape shape, uint64_t seed, bool smoke,
           std::string scratch_dir);
  [[nodiscard]] bmr::Status GenerateInput();
  [[nodiscard]] bmr::StatusOr<std::string> ReadOutput(
      const bmr::mr::JobResult& result);
  [[nodiscard]] bmr::Status CheckFirstOutput(const std::string& bytes);

  WorkloadShape shape_;
  App app_;
  uint64_t seed_;
  bool smoke_;
  std::string scratch_dir_;
  std::unique_ptr<bmr::mr::ClusterContext> cluster_;
  TimedTransport* transport_ = nullptr;  // owned by cluster_
  std::vector<std::string> inputs_;
  uint64_t next_job_ = 0;

  Oracle oracle_;

  // Last: stopped before the cluster it runs jobs on.
  std::unique_ptr<bmr::service::JobService> service_;
};

}  // namespace perfbench
