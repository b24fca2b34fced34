#include "workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "apps/blackscholes.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/serde.h"
#include "mr/input.h"
#include "mr/map_output.h"
#include "workload/generators.h"

namespace perfbench {

namespace mr = bmr::mr;
using bmr::Slice;
using bmr::Status;
using bmr::StatusOr;

namespace {

// Full-size inputs.  Smoke sizes (--smoke) shrink them for self-tests
// and are labelled as such in every result.
constexpr uint64_t kWordCountBytes = 32ull << 20;
constexpr uint64_t kWordCountVocabulary = 50000;
constexpr uint64_t kSortCount = 2000000;
constexpr int64_t kSortMax = 1000000000;  // >> count: nearly all keys new
constexpr uint64_t kSortSpillBytes = 8ull << 20;
constexpr int kBsMappers = 8;
constexpr uint64_t kBsIterations = 250000;  // per mapper

uint64_t Size(uint64_t full, bool smoke, uint64_t divisor) {
  return smoke ? std::max<uint64_t>(1, full / divisor) : full;
}

}  // namespace

StatusOr<WorkloadShape> Workload::Shape(const std::string& name,
                                        bool smoke) {
  WorkloadShape s;
  s.name = name;
  if (name == "wordcount") {
    s.input = "zipf text " +
              std::to_string(Size(kWordCountBytes, smoke, 64) >> 10) +
              " KiB, vocabulary " + std::to_string(kWordCountVocabulary);
  } else if (name == "sort-tcp") {
    s.transport = "tcp";
    s.codec = "lz4";
    s.store = "spill";
    s.input = std::to_string(Size(kSortCount, smoke, 64)) +
              " uniform ints in [0, " + std::to_string(kSortMax) + "]";
  } else if (name == "blackscholes") {
    s.reducers = 1;
    s.input = std::to_string(kBsMappers) + " units x " +
              std::to_string(Size(kBsIterations, smoke, 64)) +
              " Monte Carlo iterations";
  } else {
    return Status::NotFound("unknown workload: " + name);
  }
  return s;
}

Workload::Workload(WorkloadShape shape, uint64_t seed, bool smoke,
                   std::string scratch_dir)
    : shape_(std::move(shape)),
      app_(shape_.name == "sort-tcp"       ? App::kSort
           : shape_.name == "blackscholes" ? App::kBlackScholes
                                           : App::kWordCount),
      seed_(seed),
      smoke_(smoke),
      scratch_dir_(std::move(scratch_dir)) {}

Workload::~Workload() = default;

StatusOr<std::unique_ptr<Workload>> Workload::Create(
    const WorkloadShape& shape, uint64_t seed, bool smoke,
    const std::string& scratch_dir) {
  std::unique_ptr<Workload> w(new Workload(shape, seed, smoke, scratch_dir));

  // ClusterContext::Create, with the timed decorator between the
  // engine and the transport.
  auto cluster = std::make_unique<mr::ClusterContext>();
  cluster->spec = bmr::cluster::SmallCluster(shape.slaves, shape.map_slots,
                                             shape.reduce_slots);
  cluster->spec.dfs_block_bytes = shape.block_bytes;
  cluster->spec.transport = shape.transport;
  int n = static_cast<int>(cluster->spec.nodes.size());
  BMR_ASSIGN_OR_RETURN(std::unique_ptr<bmr::net::Transport> inner,
                       bmr::net::CreateTransport(shape.transport, n));
  auto timed = std::make_unique<TimedTransport>(std::move(inner));
  w->transport_ = timed.get();
  cluster->transport = std::move(timed);
  cluster->dfs = std::make_unique<bmr::dfs::Dfs>(
      cluster->transport.get(), cluster->spec.dfs_replication,
      cluster->spec.dfs_block_bytes);
  cluster->clients.resize(n);
  for (int i = 0; i < n; ++i) {
    cluster->clients[i] =
        std::make_unique<bmr::dfs::DfsClient>(cluster->dfs.get(), i);
  }
  w->cluster_ = std::move(cluster);

  bmr::service::JobService::Options options;
  options.max_running_jobs = 1;
  options.max_queued_jobs = 4096;
  w->service_ = std::make_unique<bmr::service::JobService>(w->cluster_.get(),
                                                           options);
  for (bool barrierless : {true, false}) {
    bmr::service::PoolConfig config;
    config.name = PoolFor(barrierless);
    config.weight = 1.0;
    config.queue_limit = 4096;
    BMR_RETURN_IF_ERROR(w->service_->AddPool(config));
  }
  BMR_RETURN_IF_ERROR(w->GenerateInput());
  return w;
}

Status Workload::GenerateInput() {
  switch (app_) {
    case App::kWordCount: {
      bmr::workload::TextGenOptions gen;
      gen.total_bytes = Size(kWordCountBytes, smoke_, 64);
      gen.num_files = 4;
      gen.vocabulary = kWordCountVocabulary;
      gen.seed = seed_;
      BMR_ASSIGN_OR_RETURN(inputs_, bmr::workload::GenerateZipfText(
                                        cluster_.get(), "/in", gen));
      return Status::Ok();
    }
    case App::kSort: {
      bmr::workload::IntGenOptions gen;
      gen.count = Size(kSortCount, smoke_, 64);
      gen.num_files = 4;
      gen.min_value = 0;
      gen.max_value = kSortMax;
      gen.seed = seed_;
      BMR_ASSIGN_OR_RETURN(inputs_, bmr::workload::GenerateRandomInts(
                                        cluster_.get(), "/in", gen));
      return Status::Ok();
    }
    case App::kBlackScholes: {
      bmr::workload::BlackScholesGenOptions gen;
      gen.num_mappers = kBsMappers;
      gen.iterations_per_mapper = Size(kBsIterations, smoke_, 64);
      gen.seed = seed_;
      BMR_ASSIGN_OR_RETURN(inputs_,
                           bmr::workload::GenerateBlackScholesUnits(
                               cluster_.get(), "/in", gen));
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status Workload::PrepareOracle() {
  bmr::dfs::DfsClient* client = cluster_->client(0);
  if (app_ == App::kBlackScholes) {
    // The mean is checked against the closed form; the count is exact.
    oracle_.samples = Size(kBsIterations, smoke_, 64) * kBsMappers;
    return Status::Ok();
  }
  std::vector<int64_t> values;
  for (const std::string& path : inputs_) {
    BMR_ASSIGN_OR_RETURN(std::string text, client->ReadAll(path));
    std::string_view rest(text);
    while (!rest.empty()) {
      size_t end = rest.find_first_of(" \n");
      if (end == std::string_view::npos) end = rest.size();
      std::string_view token = rest.substr(0, end);
      if (!token.empty()) {
        if (app_ == App::kWordCount) {
          ++oracle_.counts[std::string(token)];
        } else {
          int64_t v = 0;
          std::from_chars(token.data(), token.data() + token.size(), v);
          values.push_back(v);
        }
      }
      rest.remove_prefix(std::min(end + 1, rest.size()));
    }
  }
  if (app_ == App::kSort) {
    std::sort(values.begin(), values.end());
    bmr::ByteBuffer buf;
    for (int64_t v : values) {
      std::string key = bmr::EncodeOrderedI64(v);
      mr::AppendFramedRecord(&buf, Slice(key), Slice());
    }
    oracle_.sorted = buf.ToString();
  }
  return Status::Ok();
}

mr::JobSpec Workload::MakeJob(bool barrierless) {
  bmr::apps::AppOptions options;
  options.input_files = inputs_;
  options.output_path = "/out/" + std::to_string(next_job_++);
  options.num_reducers = shape_.reducers;
  options.barrierless = barrierless;
  options.store.scratch_dir = scratch_dir_;
  if (shape_.store == "spill") {
    options.store.type = bmr::core::StoreType::kSpillMerge;
    options.store.spill_threshold_bytes = kSortSpillBytes;
  }
  options.extra.Set("shuffle.codec", shape_.codec);
  switch (app_) {
    case App::kWordCount:
      return bmr::apps::MakeWordCountJob(options);
    case App::kSort:
      options.extra.SetInt("sort.min", 0);
      options.extra.SetInt("sort.max", kSortMax);
      return bmr::apps::MakeSortJob(options);
    case App::kBlackScholes:
      return bmr::apps::MakeBlackScholesJob(options);
  }
  return mr::JobSpec();
}

StatusOr<std::string> Workload::ReadOutput(const mr::JobResult& result) {
  std::vector<std::string> files = result.output_files;
  std::sort(files.begin(), files.end());
  std::string bytes;
  for (const std::string& file : files) {
    BMR_ASSIGN_OR_RETURN(std::string part, cluster_->client(0)->ReadAll(file));
    bytes += part;
  }
  BMR_RETURN_IF_ERROR(DeleteOutput(result));
  return bytes;
}

Status Workload::DeleteOutput(const mr::JobResult& result) {
  for (const std::string& file : result.output_files) {
    BMR_RETURN_IF_ERROR(cluster_->client(0)->Delete(file));
  }
  return Status::Ok();
}

Status Workload::CheckFirstOutput(const std::string& bytes) {
  switch (app_) {
    case App::kWordCount: {
      std::vector<mr::Record> records;
      BMR_RETURN_IF_ERROR(mr::DecodeSegment(Slice(bytes), &records));
      if (records.size() != oracle_.counts.size()) {
        return Status::DataLoss("wordcount: " + std::to_string(records.size()) +
                                " keys, expected " +
                                std::to_string(oracle_.counts.size()));
      }
      for (const mr::Record& r : records) {
        auto it = oracle_.counts.find(r.key);
        if (it == oracle_.counts.end() ||
            it->second != bmr::apps::DecodeCount(Slice(r.value))) {
          return Status::DataLoss("wordcount: wrong count for " + r.key);
        }
      }
      return Status::Ok();
    }
    case App::kSort:
      if (bytes != oracle_.sorted) {
        return Status::DataLoss("sort: output differs from the sorted input");
      }
      return Status::Ok();
    case App::kBlackScholes: {
      std::vector<mr::Record> records;
      BMR_RETURN_IF_ERROR(mr::DecodeSegment(Slice(bytes), &records));
      bmr::apps::BsSummary s;
      if (records.size() != 1 ||
          !bmr::apps::DecodeBsSummary(Slice(records[0].value), &s)) {
        return Status::DataLoss("blackscholes: malformed output");
      }
      if (static_cast<uint64_t>(s.count) != oracle_.samples) {
        return Status::DataLoss("blackscholes: count " +
                                std::to_string(s.count) + ", expected " +
                                std::to_string(oracle_.samples));
      }
      // Default option: S=100, K=100, r=5%, sigma=20%, T=1y.
      double price =
          bmr::apps::BlackScholesCallPrice(100.0, 100.0, 0.05, 0.2, 1.0);
      double tolerance = 6.0 * s.stddev / std::sqrt(static_cast<double>(s.count));
      if (std::fabs(s.mean - price) > tolerance) {
        return Status::DataLoss("blackscholes: mean " + std::to_string(s.mean) +
                                " vs closed form " + std::to_string(price));
      }
      oracle_.reference_mean = s.mean;
      oracle_.reference_stddev = s.stddev;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status Workload::CheckAndDelete(const mr::JobResult& result) {
  BMR_ASSIGN_OR_RETURN(std::string bytes, ReadOutput(result));
  if (!oracle_.have_reference) {
    BMR_RETURN_IF_ERROR(CheckFirstOutput(bytes));
    oracle_.reference_output = std::move(bytes);
    oracle_.have_reference = true;
    return Status::Ok();
  }
  if (app_ != App::kBlackScholes) {
    // Same input, so every job of the run, in either mode, must write
    // byte-identical output.
    if (bytes != oracle_.reference_output) {
      return Status::DataLoss(shape_.name +
                              ": output differs from the first job's");
    }
    return Status::Ok();
  }
  // Floating-point sums fold in arrival order, so the modes agree to 9
  // significant digits rather than bit for bit.
  std::vector<mr::Record> records;
  BMR_RETURN_IF_ERROR(mr::DecodeSegment(Slice(bytes), &records));
  bmr::apps::BsSummary s;
  if (records.size() != 1 ||
      !bmr::apps::DecodeBsSummary(Slice(records[0].value), &s)) {
    return Status::DataLoss("blackscholes: malformed output");
  }
  auto agree = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
  };
  if (static_cast<uint64_t>(s.count) != oracle_.samples ||
      !agree(s.mean, oracle_.reference_mean) || !agree(s.stddev, oracle_.reference_stddev)) {
    return Status::DataLoss("blackscholes: result differs from the first job's");
  }
  return Status::Ok();
}

}  // namespace perfbench
