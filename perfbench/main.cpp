// SecureStore benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>] [--spans-out <file>]
//
// Stands up a real n=4, b=1 deployment on the wall-clock transports, drives
// one workload, checks every result, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1). The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// correctness violation exits non-zero.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

const char* cpu_model_line() {
  static std::string model = [] {
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    std::string out = "unknown";
    if (f == nullptr) return out;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
      if (std::strncmp(buf, "model name", 10) == 0) {
        const char* colon = std::strchr(buf, ':');
        out = colon != nullptr ? colon + 2 : buf;
        if (!out.empty() && out.back() == '\n') out.pop_back();
        break;
      }
    }
    std::fclose(f);
    return out;
  }();
  return model.c_str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--data-dir <dir>] [--spans-out <file>]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::RunArgs;
  RunArgs args;
  args.data_dir = "perfbench-data";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds >= 1 && args.seconds <= 600)) usage("--seconds must be in [1, 600]");
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());

  // Build guard: numbers from an unoptimised or instrumented build are not
  // comparable to anything, so they are never reported.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (kSanitized || kAsserts || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build%s%s\n", build_type.c_str(),
                 kSanitized ? " with sanitizers" : "", kAsserts ? " with assertions" : "");
    return 3;
  }

  // Run stamp.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("  nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model_line(), PERFBENCH_COMPILER,
              build_type.c_str());
  std::printf("  n=4 b=1 %s %s principals=%u %s=%s value=%zuB items=%zu read_frac=%.2f zipf=%.2f "
              "engine=%s stale_replica=%d\n",
              spec->tcp ? "tcp-pair" : "thread-transport(200+-100us)",
              spec->open_loop ? "open-loop" : "closed-loop", spec->principals,
              spec->open_loop ? "rate_per_s" : "in_flight",
              spec->open_loop ? std::to_string(spec->rate_per_s).c_str()
                              : std::to_string(spec->in_flight).c_str(),
              spec->value_bytes, spec->items, spec->read_frac, spec->zipf_s,
              spec->lsm ? "lsm+wal(interval 5ms)" : "memory", spec->stale_replica ? 1 : 0);
  std::printf("  why: %s\n", spec->why.c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", error.what());
    return 1;
  }

  for (const auto& note : result.notes) std::printf("  %s\n", note.c_str());
  for (const auto& m : result.metrics) {
    if (!perfbench::valid_metric_name(m.name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n", m.name.c_str());
      return 1;
    }
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& v : result.violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
