// Real-engine benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--scratch DIR]
//
// Prints one line per metric ("name value unit"), context lines, a
// JSON stamp line, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits non-zero, with
// no result line, when the workload cannot be set up.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "run.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--scratch DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(argv[0]);
    if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--scratch") {
      options.scratch_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || options.seconds <= 0) return Usage(argv[0]);
  if (!options.scratch_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.scratch_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   options.scratch_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  perfbench::RunResult r = perfbench::RunBenchmark(options);
  if (r.metrics.empty()) {
    for (const std::string& note : r.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    return 1;
  }
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("%s\n", r.stamp_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
