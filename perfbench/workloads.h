// The benchmark's three workloads and the run that drives one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed parameters of one workload (everything but the seed).
struct WorkloadSpec {
  std::string name;
  std::string why;
  bool tcp = false;          // TcpTransport pair over loopback, else ThreadTransport
  bool open_loop = false;    // Poisson arrivals at rate_per_s, else closed loop
  bool multi_writer = false; // MRC with P6 quorums, Byzantine clients, no stability
                             // certificates; else P3/P4 (MRC)
  bool lsm = false;          // kLsm engine + WAL (group commit), else in-memory, no WAL
  std::size_t memtable_budget = 0;
  std::uint32_t principals = 4;
  std::uint32_t in_flight = 8;    // closed loop, per principal
  std::size_t value_bytes = 256;
  std::size_t items = 256;        // single-writer: split evenly among principals
  double read_frac = 0.0;
  double zipf_s = 0.0;            // 0 = uniform item choice
  bool stale_replica = false;     // server 3 is a FaultyServer{kStaleData}
  unsigned max_read_rounds = 3;   // client read escalation rounds (its default)
  double rate_per_s = 0.0;        // open loop
  std::uint32_t readback_rounds = 1;  // final read-back passes over every item
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(const std::string& name);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   // per-run scratch space for WALs/SSTs (inside the checkout)
  std::string spans_out;  // traced run: where the span CSV goes (empty = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  std::vector<std::string> notes;  // human-readable lines (run stamp, sample counts)
};

/// Runs one workload end to end. Throws std::runtime_error when the run
/// cannot be completed at all (set-up failed, a sample set too small for a
/// reported percentile).
RunResult run_workload(const RunArgs& args);

}  // namespace perfbench
