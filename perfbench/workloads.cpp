#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/client.h"
#include "core/server.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "crypto/keys.h"
#include "faults/faulty_server.h"
#include "ledger.h"
#include "net/tcp_transport.h"
#include "net/thread_transport.h"
#include "stats.h"
#include "timing_transport.h"

namespace perfbench {

using namespace securestore;
namespace fs = std::filesystem;

namespace {

constexpr GroupId kGroup{1};
constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kB = 1;
constexpr std::uint32_t kClientNodeBase = 1000;
/// Set-ups per run, before and after the load (a host's speed drifts over
/// a run, so both ends are sampled); setup_s is their median. The last one
/// before the load carries it.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;
/// Load before the timed window, so lazy state and caches settle.
constexpr double kWarmupS = 1.0;
/// Traced run: the window alternates untraced and traced slices this long.
constexpr double kSliceS = 0.5;
/// Open loop: arrivals beyond this many outstanding ops are not issued.
constexpr std::int64_t kMaxOutstanding = 4096;
constexpr auto kDispatcherWait = std::chrono::seconds(60);

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec p3;
    p3.name = "p3_write_sat";
    p3.why = "signature-bound hot path: client sign, batched server verify, gossip re-verify; "
             "storage nearly free";
    p3.principals = 4;
    p3.in_flight = 8;
    p3.value_bytes = 256;
    p3.items = 4 * 64;
    p3.read_frac = 0.0;
    p3.readback_rounds = 40;  // ~10k reads: its read latencies come from here
    out.push_back(p3);

    WorkloadSpec p6;
    p6.name = "p6_mixed_lsm";
    p6.why = "storage-heavy: LSM flush/compaction and WAL group commit beside MRC reads on P6 "
             "quorums, with a stale replica forcing the out-voting path";
    p6.multi_writer = true;
    p6.lsm = true;
    p6.memtable_budget = 64u << 10;
    p6.principals = 4;
    p6.in_flight = 4;
    p6.value_bytes = 1024;
    p6.items = 512;
    p6.read_frac = 0.5;
    p6.zipf_s = 0.99;
    p6.stale_replica = true;
    // A P6 read needs b+1 logs agreeing at or above the reader's context,
    // which the stale replica and concurrent writes to hot zipf items can
    // deny for a few rounds. With the client's default three rounds, one
    // timed op in ~300k failed; the extra rounds back off 80-640 ms more,
    // so gossip can settle.
    p6.max_read_rounds = 6;
    out.push_back(p6);

    WorkloadSpec p4;
    p4.name = "p4_read_open_tcp";
    p4.why = "open-loop Poisson arrivals over loopback TCP: queueing shows in p99, reads pay "
             "client verify but no sign";
    p4.tcp = true;
    p4.open_loop = true;
    p4.principals = 8;
    p4.in_flight = 8;  // set-up and read-back only
    p4.value_bytes = 256;
    p4.items = 1024;
    p4.read_frac = 0.9;
    // About half the seed's capacity on this mix while the host is slow: the
    // same deployment run closed-loop (8 principals x 8 in flight) completed
    // ~3080 ops/s on an idle 4-core 2 GHz Xeon and ~2000 when it was
    // contended. At 1500/s the open-loop tail followed the host's load.
    p4.rate_per_s = 1000;
    out.push_back(p4);
    return out;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

core::GroupPolicy policy_for(const WorkloadSpec& spec) {
  if (spec.multi_writer) {
    return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC,
                             core::SharingMode::kMultiWriter, core::ClientTrust::kByzantine};
  }
  return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC, core::SharingMode::kSingleWriter,
                           core::ClientTrust::kHonest};
}

template <typename Fn>
auto run_on(net::Transport& inner, Fn fn) -> decltype(fn()) {
  using R = decltype(fn());
  auto promise = std::make_shared<std::promise<R>>();
  auto future = promise->get_future();
  inner.schedule(0, [promise, fn = std::move(fn)]() mutable {
    if constexpr (std::is_void_v<R>) {
      fn();
      promise->set_value();
    } else {
      promise->set_value(fn());
    }
  });
  if (future.wait_for(kDispatcherWait) != std::future_status::ready) {
    throw std::runtime_error("dispatcher did not run a probe within 60 s");
  }
  return future.get();
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// One stood-up deployment: n=4 servers and the principals' clients on a
/// ThreadTransport (injected 200±100 µs links) or on a same-process TCP
/// pair (servers on one transport, clients on the other).
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::uint64_t seed, bool traced, fs::path dir)
      : dir_(std::move(dir)), registry_(std::make_shared<obs::Registry>()) {
    if (spec.tcp) {
      tcp_server_ = std::make_unique<net::TcpTransport>(0, std::map<NodeId, net::TcpEndpoint>{},
                                                        registry_);
      tcp_client_ = std::make_unique<net::TcpTransport>(0, std::map<NodeId, net::TcpEndpoint>{},
                                                        registry_);
      for (std::uint32_t i = 0; i < kN; ++i) {
        tcp_client_->set_endpoint(NodeId{i}, net::TcpEndpoint{"127.0.0.1", tcp_server_->port()});
      }
      for (std::uint32_t c = 1; c <= spec.principals; ++c) {
        tcp_server_->set_endpoint(NodeId{kClientNodeBase + c},
                                  net::TcpEndpoint{"127.0.0.1", tcp_client_->port()});
      }
      server_inner_ = tcp_server_.get();
      client_inner_ = tcp_client_.get();
    } else {
      thread_ = std::make_unique<net::ThreadTransport>(
          sim::NetworkModel(Rng(seed ^ 0x6e6574ULL),
                            sim::LinkProfile{microseconds(200), microseconds(100), 0}),
          registry_);
      server_inner_ = client_inner_ = thread_.get();
    }
    if (traced) {
      for (net::Transport* inner : {server_inner_, client_inner_}) inner->events().set_sample_every(8);
      server_tracer_ = std::make_unique<TimingTransport>(*server_inner_, kClientNodeBase);
      if (client_inner_ != server_inner_) {
        client_tracer_ = std::make_unique<TimingTransport>(*client_inner_, kClientNodeBase);
      }
    }

    core::StoreConfig config;
    config.n = kN;
    config.b = kB;
    if (spec.lsm) {
      config.engine.kind = core::StorageEngineKind::kLsm;
      config.engine.memtable_budget_bytes = spec.memtable_budget;
    }
    Rng rng(seed);
    for (std::uint32_t c = 1; c <= spec.principals; ++c) {
      client_keys.push_back(crypto::KeyPair::generate(rng));
      config.client_keys[c] = client_keys.back().public_key;
    }
    std::vector<crypto::KeyPair> server_keys;
    for (std::uint32_t i = 0; i < kN; ++i) {
      config.servers.push_back(NodeId{i});
      server_keys.push_back(crypto::KeyPair::generate(rng));
      config.server_keys[NodeId{i}] = server_keys.back().public_key;
    }
    const core::GroupPolicy policy = policy_for(spec);
    for (std::uint32_t i = 0; i < kN; ++i) {
      core::SecureStoreServer::Options options;
      options.gossip.period = milliseconds(200);
      options.group_policies = {policy};
      if (spec.lsm) {
        core::SecureStoreServer::DurabilityOptions durability;
        durability.wal_dir = (dir_ / ("s" + std::to_string(i)) / "wal").string();
        durability.data_dir = (dir_ / ("s" + std::to_string(i)) / "lsm").string();
        durability.fsync = storage::FsyncPolicy::kInterval;
        durability.flush_interval = milliseconds(5);
        options.durability = durability;
      }
      if (spec.stale_replica && i == kN - 1) {
        servers.push_back(std::make_unique<faults::FaultyServer>(
            server_net(), NodeId{i}, config, server_keys[i], options, rng.fork(),
            std::set<faults::ServerFault>{faults::ServerFault::kStaleData}));
      } else {
        servers.push_back(std::make_unique<core::SecureStoreServer>(
            server_net(), NodeId{i}, config, server_keys[i], options, rng.fork()));
      }
      servers.back()->set_group_policy(policy);
    }
    for (std::uint32_t c = 1; c <= spec.principals; ++c) {
      core::SecureStoreClient::Options options;
      options.policy = policy;
      // Multi-writer: no stability certificates. With them, a Byzantine
      // multi-writer write waits for stability shares, and the deployment
      // ran at ~90 ops/s instead of ~600.
      if (spec.multi_writer) options.stability_gc = false;
      options.max_read_rounds = spec.max_read_rounds;
      clients.push_back(std::make_unique<core::SecureStoreClient>(
          client_net(), NodeId{kClientNodeBase + c}, ClientId{c}, client_keys[c - 1], config,
          options, rng.fork()));
    }
  }

  ~Deployment() {
    stop();
    clients.clear();
    servers.clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Joins every dispatcher (clients' first, so no reply is in flight).
  void stop() {
    if (tcp_client_) tcp_client_->stop();
    if (tcp_server_) tcp_server_->stop();
    if (thread_) thread_->stop();
  }

  net::Transport& server_net() {
    return server_tracer_ ? static_cast<net::Transport&>(*server_tracer_) : *server_inner_;
  }
  net::Transport& client_net() {
    if (client_tracer_) return *client_tracer_;
    if (server_tracer_ && client_inner_ == server_inner_) return *server_tracer_;
    return *client_inner_;
  }
  net::Transport& server_inner() { return *server_inner_; }
  net::Transport& client_inner() { return *client_inner_; }
  TimingTransport* client_tracer() {
    return client_tracer_ ? client_tracer_.get() : server_tracer_.get();
  }
  /// Every distinct dispatcher's transport, with its tracer (may be null).
  std::vector<std::pair<net::Transport*, TimingTransport*>> dispatchers() {
    std::vector<std::pair<net::Transport*, TimingTransport*>> out{
        {server_inner_, server_tracer_.get()}};
    if (client_inner_ != server_inner_) out.push_back({client_inner_, client_tracer_.get()});
    return out;
  }
  obs::Registry& registry() { return *registry_; }
  const fs::path& dir() const { return dir_; }

  std::vector<crypto::KeyPair> client_keys;
  std::vector<std::unique_ptr<core::SecureStoreServer>> servers;
  std::vector<std::unique_ptr<core::SecureStoreClient>> clients;

 private:
  fs::path dir_;
  std::shared_ptr<obs::Registry> registry_;
  std::unique_ptr<net::ThreadTransport> thread_;
  std::unique_ptr<net::TcpTransport> tcp_server_;
  std::unique_ptr<net::TcpTransport> tcp_client_;
  net::Transport* server_inner_ = nullptr;
  net::Transport* client_inner_ = nullptr;
  std::unique_ptr<TimingTransport> server_tracer_;
  std::unique_ptr<TimingTransport> client_tracer_;
};

/// Reference-kernel time (µs) that defines a speed factor of 1: the
/// kernel's time on an uncontended core of the 4-core 2 GHz Xeon the
/// benchmark was calibrated on.
constexpr double kNominalKernelUs = 300.0;
/// Keeps the reference kernel's result observable.
std::atomic<std::uint64_t> g_kernel_sink{0};

/// Times reference_kernel on one dispatcher thread every `period`. The
/// ratio of its thread CPU time to kNominalKernelUs is how much slower than
/// nominal the core the protocol runs on is right now; on a shared host it
/// drifts by up to 2x over seconds, and the CPU-bound metrics are normalised
/// by it. Thread CPU rather than wall time, so that time the dispatcher
/// spends preempted by the program's own threads (compactors, socket
/// threads, a second dispatcher) stays in the figures and is not divided out.
class SpeedProbe {
 public:
  SpeedProbe(net::Transport& inner, SimDuration period) : inner_(inner), period_(period) {
    arm(0);
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Latest slowdown factor (kernel CPU time / nominal); any thread.
  double factor() const { return factor_.load(std::memory_order_relaxed); }
  /// Stops sampling and returns the median slowdown factor so far. Runs on
  /// the dispatcher, so it also orders the read after every sample.
  double finish() {
    active_.store(false, std::memory_order_relaxed);
    return run_on(inner_, [this] {
      std::vector<double> us;
      for (const Sample& s : samples_) us.push_back(s.cpu_us);
      return us.empty() ? 1.0 : median(us) / kNominalKernelUs;
    });
  }
  /// Kernel wall times (µs) sampled inside [from_ns, to_ns), or its thread
  /// CPU times with `cpu`. Read after stop.
  std::vector<double> between(std::int64_t from_ns, std::int64_t to_ns, bool cpu = false) const {
    std::vector<double> out;
    for (const Sample& s : samples_) {
      if (s.at >= from_ns && s.at < to_ns) out.push_back(cpu ? s.cpu_us : s.wall_us);
    }
    return out;
  }

 private:
  void arm(SimDuration delay) {
    inner_.schedule(delay, [this] {
      if (!active_.load(std::memory_order_relaxed)) return;
      const std::int64_t start = steady_ns();
      const std::int64_t cpu_start = thread_cpu_ns();
      g_kernel_sink.fetch_add(reference_kernel(static_cast<std::uint64_t>(start)),
                              std::memory_order_relaxed);
      const double us = static_cast<double>(steady_ns() - start) / 1e3;
      const double cpu_us = static_cast<double>(thread_cpu_ns() - cpu_start) / 1e3;
      samples_.push_back(Sample{start, us, cpu_us});
      factor_.store(cpu_us / kNominalKernelUs, std::memory_order_relaxed);
      arm(period_);
    });
  }

  net::Transport& inner_;
  const SimDuration period_;
  struct Sample {
    std::int64_t at;  // steady_ns at the start
    double wall_us;
    double cpu_us;
  };
  std::vector<Sample> samples_;  // dispatcher thread
  std::atomic<double> factor_{1.0};
  std::atomic<bool> active_{true};
};

enum class Phase : std::uint8_t { kSetup, kRun, kReadback };
enum class Status : std::uint8_t { kPending, kAcked, kFailed };

struct OpInfo {
  std::uint64_t item = 0;
  std::uint32_t writer = 0;  // principal (ClientId value)
  bool write = false;
  Status status = Status::kPending;
  Phase phase = Phase::kSetup;
  bool in_window = false;  // open loop: due inside the timed window
};

struct OpSpec {
  bool write = false;
  std::uint64_t item = 0;
};

/// Drives operations into one deployment and checks every result. All
/// state below is touched only on the client dispatcher thread, except the
/// atomics the main thread polls.
class Driver {
 public:
  Driver(const WorkloadSpec& spec, std::uint64_t seed, Deployment& dep)
      : spec_(spec),
        seed_(seed),
        dep_(dep),
        tracer_(dep.client_tracer()),
        zipf_(spec.items, spec.zipf_s > 0 ? spec.zipf_s : 0.0),
        last_acked_(spec.items, -1),
        last_read_ts_(static_cast<std::size_t>(spec.principals) * spec.items),
        in_flight_(spec.principals, 0),
        queues_(spec.principals) {
    for (std::uint32_t p = 0; p < spec.principals; ++p) {
      rngs_.emplace_back(seed * 1000003ULL + p + 17);
    }
    ops_.reserve(1u << 20);
  }

  // --- Main-thread entry points -------------------------------------------

  void connect_all() {
    auto done = std::make_shared<std::promise<void>>();
    auto remaining = std::make_shared<std::uint32_t>(spec_.principals);
    auto failures = std::make_shared<std::uint32_t>(0);
    dep_.client_inner().schedule(0, [this, done, remaining, failures] {
      for (auto& client : dep_.clients) {
        client->connect(kGroup, [done, remaining, failures](VoidResult r) {
          if (!r.ok()) ++*failures;
          if (--*remaining == 0) done->set_value();
        });
      }
    });
    if (done->get_future().wait_for(kDispatcherWait) != std::future_status::ready ||
        *failures != 0) {
      throw std::runtime_error("set-up: connect (P1) failed");
    }
  }

  /// Runs the per-principal op lists with `in_flight` outstanding each and
  /// waits for all of them.
  void run_batch(std::vector<std::deque<OpSpec>> queues, Phase phase) {
    batch_done_ = std::promise<void>();
    auto future = batch_done_.get_future();
    dep_.client_inner().schedule(0, [this, queues = std::move(queues), phase]() mutable {
      queues_ = std::move(queues);
      batch_phase_ = phase;
      batch_left_ = 0;
      for (const auto& q : queues_) batch_left_ += q.size();
      if (batch_left_ == 0) {
        batch_done_.set_value();
        return;
      }
      for (std::uint32_t p = 0; p < spec_.principals; ++p) pump(p);
    });
    if (future.wait_for(kDispatcherWait * 2) != std::future_status::ready) {
      throw std::runtime_error("batch of operations did not finish");
    }
  }

  void prepopulate() {
    std::vector<std::deque<OpSpec>> queues(spec_.principals);
    for (std::uint64_t item = 0; item < spec_.items; ++item) {
      queues[owner_of(item)].push_back(OpSpec{true, item});
    }
    run_batch(std::move(queues), Phase::kSetup);
  }

  /// Closed loop: every principal keeps `in_flight` ops outstanding.
  void start_closed_loop() {
    dep_.client_inner().schedule(0, [this] {
      running_ = true;
      for (std::uint32_t p = 0; p < spec_.principals; ++p) {
        for (std::uint32_t i = 0; i < spec_.in_flight; ++i) issue_next(p);
      }
    });
  }

  void stop_closed_loop() {
    run_on(dep_.client_inner(), [this] { running_ = false; });
  }

  /// Open-loop arrival: issues one op on the dispatcher, timed from `due_ns`.
  void arrive(std::uint32_t principal, OpSpec op, std::int64_t due_ns, bool in_window) {
    dep_.client_inner().schedule(0, [this, principal, op, due_ns, in_window] {
      TimingTransport::Scope scope(tracer_, 0, SpanKind::kLoadgen, Layer::kLoadgen);
      const std::int64_t now = steady_ns();
      if (in_window) late_ms_.push_back(static_cast<double>(now - due_ns) / 1e6);
      issue(principal, op, Phase::kRun, due_ns, in_window);
    });
  }

  void set_counting(bool on) { counting_ = on; }  // dispatcher thread
  void set_speed_probes(std::vector<const SpeedProbe*> probes) { speed_ = std::move(probes); }
  void set_traced_slice(bool on) { traced_slice_ = on; }

  bool wait_idle(std::chrono::seconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (outstanding_.load() != 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// Reads back the newest acknowledged write of every written item,
  /// `rounds` times, from the principal that owns (single-writer) or last
  /// wrote (multi-writer) it.
  void readback(std::uint32_t rounds) {
    std::vector<std::deque<OpSpec>> queues(spec_.principals);
    auto items = run_on(dep_.client_inner(), [this] {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
      for (std::uint64_t item = 0; item < spec_.items; ++item) {
        if (last_acked_[item] < 0) continue;
        out.emplace_back(item, ops_[static_cast<std::size_t>(last_acked_[item])].writer - 1);
      }
      return out;
    });
    for (std::uint32_t r = 0; r < rounds; ++r) {
      for (const auto& [item, principal] : items) queues[principal].push_back(OpSpec{false, item});
    }
    run_batch(std::move(queues), Phase::kReadback);
  }

  std::atomic<std::int64_t>& outstanding() { return outstanding_; }

  // --- Results (read after the dispatcher is idle or stopped) ---------------

  // Latencies are normalised by the speed factor at completion; *_raw keep
  // the wall-clock values. Index: [traced slice].
  std::vector<double> write_ms[2];
  std::vector<double> read_ms[2];
  std::vector<double> write_raw_ms;
  std::vector<double> read_raw_ms;
  std::vector<double> readback_ms;  // final read-back, after the window
  std::vector<double> readback_raw_ms;
  std::uint64_t completed[2] = {0, 0};
  double completed_weighted = 0;  // untraced completions, each weighted by its speed factor
  std::uint64_t writes_done[2] = {0, 0};
  std::uint64_t reads_done[2] = {0, 0};
  std::uint64_t writes_acked_run = 0;  // all run-phase writes acked (window or not)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failed_by_error;  // timed-phase failures
  std::vector<double> late_ms_;
  std::vector<std::string> violations;

  std::uint64_t items_acked() const {
    return static_cast<std::uint64_t>(
        std::count_if(last_acked_.begin(), last_acked_.end(), [](std::int64_t s) { return s >= 0; }));
  }

 private:
  std::uint32_t owner_of(std::uint64_t item) const {
    if (spec_.multi_writer) return static_cast<std::uint32_t>(item % spec_.principals);
    return static_cast<std::uint32_t>(item / (spec_.items / spec_.principals));
  }

  OpSpec next_op(std::uint32_t p) {
    Rng& rng = rngs_[p];
    OpSpec op;
    op.write = rng.next_double() >= spec_.read_frac;
    if (spec_.zipf_s > 0) {
      op.item = zipf_.sample(rng);
    } else if (op.write && !spec_.multi_writer) {
      const std::uint64_t per = spec_.items / spec_.principals;
      op.item = p * per + rng.next_below(per);
    } else {
      op.item = rng.next_below(spec_.items);
    }
    return op;
  }

  void issue_next(std::uint32_t p) { issue(p, next_op(p), Phase::kRun, 0, false); }

  void pump(std::uint32_t p) {
    while (in_flight_[p] < spec_.in_flight && !queues_[p].empty()) {
      const OpSpec op = queues_[p].front();
      queues_[p].pop_front();
      ++in_flight_[p];
      issue(p, op, batch_phase_, 0, false);
    }
  }

  void issue(std::uint32_t p, OpSpec op, Phase phase, std::int64_t due_ns, bool in_window) {
    const std::uint64_t seq = ops_.size();
    ops_.push_back(OpInfo{op.item, p + 1, op.write, Status::kPending, phase, in_window});
    outstanding_.fetch_add(1);
    if (phase == Phase::kRun) ++attempted;
    const std::int64_t start_ns = due_ns != 0 ? due_ns : steady_ns();
    const ItemId item{op.item + 1};
    core::SecureStoreClient& client = *dep_.clients[p];
    const std::uint32_t node = kClientNodeBase + p + 1;
    if (op.write) {
      const Bytes value = make_value(seed_, op.item, p + 1, seq, spec_.value_bytes);
      TimingTransport::Scope scope(tracer_, node, SpanKind::kIssueWrite, Layer::kClient, seq);
      client.write(item, value, [this, p, seq, start_ns](VoidResult r) {
        TimingTransport::Scope lg(tracer_, 0, SpanKind::kLoadgen, Layer::kLoadgen, seq);
        on_write_done(p, seq, start_ns, r);
      });
    } else {
      TimingTransport::Scope scope(tracer_, node, SpanKind::kIssueRead, Layer::kClient, seq);
      client.read(item, [this, p, seq, start_ns](Result<core::ReadOutput> r) {
        TimingTransport::Scope lg(tracer_, 0, SpanKind::kLoadgen, Layer::kLoadgen, seq);
        on_read_done(p, seq, start_ns, r);
      });
    }
  }

  double speed_factor() const {
    if (speed_.empty()) return 1.0;
    double sum = 0;
    for (const SpeedProbe* probe : speed_) sum += probe->factor();
    return sum / static_cast<double>(speed_.size());
  }

  void record(double ms, std::vector<double> (&normalised)[2], std::vector<double>& raw,
              std::uint64_t (&done)[2]) {
    const int t = traced_slice_ ? 1 : 0;
    const double factor = speed_factor();
    normalised[t].push_back(ms / factor);
    ++completed[t];
    ++done[t];
    if (t == 0) {
      raw.push_back(ms);
      completed_weighted += factor;
    }
  }

  bool sampled(const OpInfo& op) const {
    return spec_.open_loop ? op.in_window : counting_;
  }

  void violation(std::string what) {
    if (violations.size() < 20) violations.push_back(std::move(what));
    else if (violations.size() == 20) violations.push_back("(further violations omitted)");
  }

  void on_write_done(std::uint32_t p, std::uint64_t seq, std::int64_t start_ns,
                     const VoidResult& r) {
    const double ms = static_cast<double>(steady_ns() - start_ns) / 1e6;
    OpInfo& op = ops_[seq];
    if (r.ok()) {
      op.status = Status::kAcked;
      last_acked_[op.item] = std::max<std::int64_t>(last_acked_[op.item], static_cast<std::int64_t>(seq));
      if (op.phase == Phase::kRun) {
        ++writes_acked_run;
        if (sampled(op)) record(ms, write_ms, write_raw_ms, writes_done);
      }
    } else {
      op.status = Status::kFailed;
      if (op.phase == Phase::kRun) {
        ++failed;
        ++failed_by_error[std::string("write ") + error_name(r.error())];
      } else {
        violation("set-up write of item " + std::to_string(op.item) + " failed: " +
                  error_name(r.error()));
      }
    }
    finish(p, op.phase);
  }

  void on_read_done(std::uint32_t p, std::uint64_t seq, std::int64_t start_ns,
                    const Result<core::ReadOutput>& r) {
    const double ms = static_cast<double>(steady_ns() - start_ns) / 1e6;
    OpInfo& op = ops_[seq];
    if (!r.ok()) {
      op.status = Status::kFailed;
      if (op.phase == Phase::kRun) {
        ++failed;
        ++failed_by_error[std::string("read ") + error_name(r.error())];
      } else {
        violation("read-back of item " + std::to_string(op.item) + " failed: " +
                  error_name(r.error()));
      }
      finish(p, op.phase);
      return;
    }
    op.status = Status::kAcked;
    check_read(p, op, *r);
    if (op.phase == Phase::kRun && sampled(op)) record(ms, read_ms, read_raw_ms, reads_done);
    if (op.phase == Phase::kReadback) {
      readback_ms.push_back(ms / speed_factor());
      readback_raw_ms.push_back(ms);
    }
    finish(p, op.phase);
  }

  /// Authenticity and MRC/CC: the value is exactly a write the benchmark
  /// issued to this item, by the writer the client reports, and its
  /// timestamp is not older than this client's previous read of the item.
  /// A read-back must also return the newest acknowledged write.
  void check_read(std::uint32_t p, const OpInfo& op, const core::ReadOutput& out) {
    const std::optional<ValueId> id = check_value(seed_, out.value);
    const std::string where = "item " + std::to_string(op.item) + " read by principal " +
                              std::to_string(p + 1);
    if (!id || id->item != op.item || id->writer != out.writer.value || id->seq >= ops_.size() ||
        !ops_[id->seq].write || ops_[id->seq].item != op.item ||
        ops_[id->seq].writer != id->writer) {
      violation(where + ": value is not a write issued to this item");
      return;
    }
    core::Timestamp& last = last_read_ts_[static_cast<std::size_t>(p) * spec_.items + op.item];
    if (out.ts < last) violation(where + ": timestamp went backwards (MRC/CC)");
    last = out.ts;
    if (op.phase != Phase::kReadback) return;
    const std::int64_t expect = last_acked_[op.item];
    const auto got = static_cast<std::int64_t>(id->seq);
    if (got != expect && !(got > expect && ops_[id->seq].status != Status::kAcked)) {
      violation(where + ": read back write #" + std::to_string(got) +
                ", newest acknowledged is #" + std::to_string(expect));
    }
  }

  void finish(std::uint32_t p, Phase phase) {
    outstanding_.fetch_sub(1);
    if (phase == Phase::kRun) {
      if (running_ && !spec_.open_loop) issue_next(p);
      return;
    }
    --in_flight_[p];
    pump(p);
    if (--batch_left_ == 0) batch_done_.set_value();
  }

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  Deployment& dep_;
  TimingTransport* tracer_;
  Zipf zipf_;
  std::vector<Rng> rngs_;
  std::vector<OpInfo> ops_;
  std::vector<std::int64_t> last_acked_;         // newest acked write seq per item
  std::vector<core::Timestamp> last_read_ts_;    // per (principal, item)
  std::vector<std::uint32_t> in_flight_;
  std::vector<std::deque<OpSpec>> queues_;
  Phase batch_phase_ = Phase::kSetup;
  std::size_t batch_left_ = 0;
  std::promise<void> batch_done_;
  bool running_ = false;
  bool counting_ = false;
  bool traced_slice_ = false;
  std::vector<const SpeedProbe*> speed_;
  std::atomic<std::int64_t> outstanding_{0};
};

/// Thread CPU and crypto meter of one dispatcher thread. The meter is
/// thread-local, so it has to be read on the thread that did the work.
struct Probe {
  std::int64_t cpu_ns = 0;
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
};

Probe read_probe() {
  const crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
  return Probe{thread_cpu_ns(), meter.signs, meter.verifies};
}

struct HistSum {
  double sum = 0;
  std::uint64_t count = 0;
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

bool ends_with(const std::string& s, std::string_view tail) {
  return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// Exact sum/count of every histogram whose name ends with `tail`, between
/// two snapshots (obs::Histogram quantiles are bucket estimates; only the
/// sum and count are exact).
HistSum hist_delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
                   std::string_view tail) {
  HistSum out;
  for (const auto& [name, h] : b.histograms) {
    if (!ends_with(name, tail)) continue;
    out.sum += h.sum;
    out.count += h.count;
    if (const auto it = a.histograms.find(name); it != a.histograms.end()) {
      out.sum -= it->second.sum;
      out.count -= it->second.count;
    }
  }
  return out;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
                            std::string_view tail) {
  std::uint64_t out = 0;
  for (const auto& [name, v] : b.counters) {
    if (!ends_with(name, tail)) continue;
    out += v;
    if (const auto it = a.counters.find(name); it != a.counters.end()) out -= it->second;
  }
  return out;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// A field of /proc/self/<file> ("VmHWM:", "write_bytes:"); 0 if absent.
std::uint64_t proc_field(const char* file, const std::string& key) {
  std::ifstream in(std::string("/proc/self/") + file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtoull(line.c_str() + key.size(), nullptr, 10);
  }
  return 0;
}

struct NetTotals {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ring_highwater = 0;
};

NetTotals net_totals(Deployment& dep) {
  NetTotals t;
  for (const auto& [inner, tracer] : dep.dispatchers()) {
    (void)tracer;
    const sim::TransportStats s = inner->stats();
    t.sent += s.messages_sent;
    t.delivered += s.messages_delivered;
    t.dropped += s.messages_dropped;
    t.bytes += s.bytes_sent;
    t.ring_highwater = std::max(t.ring_highwater, s.ring_occupancy_highwater);
  }
  return t;
}

/// Microseconds per call of `fn`, repeated for at least `min_s` seconds.
template <typename Fn>
double time_per_call_us(Fn fn, double min_s = 0.3) {
  const std::int64_t start = steady_ns();
  std::uint64_t calls = 0;
  std::int64_t elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = steady_ns() - start;
  } while (static_cast<double>(elapsed) < min_s * 1e9);
  return static_cast<double>(elapsed) / 1e3 / static_cast<double>(calls);
}

double required_percentile(const std::vector<double>& samples, double q, const char* what) {
  const std::optional<double> v = percentile(samples, q);
  if (!v) {
    throw std::runtime_error(std::string("too few samples for ") + what + " (" +
                             std::to_string(samples.size()) + ")");
  }
  return *v;
}

/// The deployment under load with everything its dispatchers call back
/// into. Teardown stops the dispatchers first, so no callback can reach a
/// destroyed driver or probe — on the normal path and when a run throws.
struct Live {
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Driver> driver;
  std::vector<std::unique_ptr<SpeedProbe>> speed;

  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  ~Live() { reset(); }

  void reset() {
    if (dep) dep->stop();
    speed.clear();
    driver.reset();
    dep.reset();
  }
};

/// What the window boundaries recorded on every dispatcher.
struct WindowMarks {
  std::vector<Probe> start;
  std::vector<Probe> end;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::int64_t> traced_cpu_ns;  // per dispatcher, traced slices only
  std::int64_t traced_ns = 0;               // wall time in traced slices
  std::int64_t untraced_ns = 0;
};

/// Opens or closes the timed window, or switches a traced-run slice, on
/// every dispatcher: each reads its own probe and flips its tracer there,
/// between handlers, so no span straddles the switch. Returns the probes.
std::vector<Probe> mark(Deployment& dep, Driver& driver, bool counting, bool traced) {
  std::vector<Probe> probes;
  for (const auto& [inner, tracer] : dep.dispatchers()) {
    probes.push_back(run_on(*inner, [&dep, &driver, inner = inner, tracer = tracer, counting,
                                     traced] {
      const Probe p = read_probe();
      if (tracer != nullptr) {
        tracer->set_tracing(traced);
        // Sampled program-side events feed gossip.write_to_visible_us;
        // they run only while spans are recorded, so their cost lands in
        // trace.overhead_frac.
        inner->events().set_enabled(traced);
      }
      if (inner == &dep.client_inner()) {
        driver.set_counting(counting);
        driver.set_traced_slice(traced);
      }
      return p;
    }));
  }
  return probes;
}

}  // namespace

RunResult run_workload(const RunArgs& args) {
  const WorkloadSpec* found = find_workload(args.workload);
  if (found == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;
  const std::uint64_t seed = args.seed;
  const double window_s = args.seconds;
  RunResult result;

  const fs::path data_root = fs::path(args.data_dir) / ("run-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(data_root, ec);

  // --- Set-up, several times; the last deployment carries the load. -------
  std::vector<double> setup_s;
  Live live;
  std::unique_ptr<Deployment>& dep = live.dep;
  std::unique_ptr<Driver>& driver = live.driver;
  // Keys, servers, clients, P1 connect and pre-population, timed. Most of
  // it is dispatcher work, normalised by those threads' speed meanwhile.
  std::vector<double> setup_raw_s;
  const auto set_up = [&](Live& into, int k) {
    into.reset();
    const std::int64_t t0 = steady_ns();
    into.dep = std::make_unique<Deployment>(spec, seed, args.trace,
                                            data_root / ("deployment" + std::to_string(k)));
    for (const auto& [inner, tracer] : into.dep->dispatchers()) {
      (void)tracer;
      into.speed.push_back(std::make_unique<SpeedProbe>(*inner, milliseconds(20)));
    }
    into.driver = std::make_unique<Driver>(spec, seed, *into.dep);
    into.driver->connect_all();
    into.driver->prepopulate();
    const double raw = static_cast<double>(steady_ns() - t0) / 1e9;
    // Every set-up is checked, not only the one that carries the load.
    for (auto& v : into.driver->violations) {
      result.violations.push_back("set-up " + std::to_string(k) + ": " + v);
    }
    into.driver->violations.clear();
    double factor = 0;
    for (const auto& probe : into.speed) factor += probe->finish();
    factor /= static_cast<double>(into.speed.size());
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw / factor);
  };
  for (int k = 0; k < kSetupsBefore; ++k) set_up(live, k);
  // Peak RSS after the set-ups: the deployment's footprint (keys, tables,
  // pre-populated state) for a fixed amount of work. Growth under load
  // scales with the writes served, since every server's audit log keeps
  // each write it accepted; the traced run reports it per operation.
  const std::uint64_t hwm_setup_kb = proc_field("status", "VmHWM:");
  const obs::MetricsSnapshot at_setup = dep->registry().snapshot();
  // The set-up probes have finished but stay alive: a last scheduled sample
  // may still be queued on the dispatcher.
  std::vector<std::unique_ptr<SpeedProbe>>& speed = live.speed;
  std::vector<const SpeedProbe*> speed_view;
  for (const auto& [inner, tracer] : dep->dispatchers()) {
    (void)tracer;
    speed.push_back(std::make_unique<SpeedProbe>(*inner, milliseconds(100)));
    speed_view.push_back(speed.back().get());
  }
  driver->set_speed_probes(speed_view);
  // The deployment idle for a moment: its kernel times here and in the
  // settle after the load, against those under load, show whether the
  // program's own threads slow the probe.
  const std::int64_t idle_from_ns = steady_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  const std::int64_t idle_to_ns = steady_ns();

  // --- Warm-up, then the timed window. -------------------------------------
  WindowMarks marks;
  std::atomic<std::uint64_t> unissued{0};
  std::atomic<std::uint64_t> unissued_attempts{0};
  std::jthread generator;  // joins before `live` is torn down, also on a throw
  std::int64_t window_open_at = 0;
  if (spec.open_loop) {
    const std::vector<std::uint64_t> due =
        poisson_due_times_us(seed ^ 0x706f6973ULL, spec.rate_per_s, kWarmupS + window_s);
    std::vector<std::pair<std::uint32_t, OpSpec>> arrivals;
    Rng gen(seed ^ 0x6172726976ULL);
    const std::uint64_t per = spec.items / spec.principals;
    for (std::size_t i = 0; i < due.size(); ++i) {
      const auto principal = static_cast<std::uint32_t>(gen.next_below(spec.principals));
      OpSpec op;
      op.write = gen.next_double() >= spec.read_frac;
      op.item = op.write ? principal * per + gen.next_below(per) : gen.next_below(spec.items);
      arrivals.emplace_back(principal, op);
    }
    const std::int64_t t0 = steady_ns() + 50'000'000;
    window_open_at = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
    const std::int64_t window_close_at = window_open_at + static_cast<std::int64_t>(window_s * 1e9);
    generator = std::jthread([&, due, arrivals, t0, window_close_at] {
      for (std::size_t i = 0; i < due.size(); ++i) {
        const std::int64_t at = t0 + static_cast<std::int64_t>(due[i]) * 1000;
        const std::int64_t wait = at - steady_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        const bool in_window = at >= window_open_at && at < window_close_at;
        if (driver->outstanding().load() >= kMaxOutstanding) {
          unissued_attempts.fetch_add(1);
          if (in_window) unissued.fetch_add(1);
          continue;
        }
        driver->arrive(arrivals[i].first, arrivals[i].second, at, in_window);
      }
    });
    std::this_thread::sleep_for(std::chrono::nanoseconds(window_open_at - steady_ns()));
  } else {
    driver->start_closed_loop();
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  }

  // Transport totals before registry snapshots: a snapshot restarts the
  // ring high-water mark.
  const NetTotals n0 = net_totals(*dep);
  const obs::MetricsSnapshot s0 = dep->registry().snapshot();
  const std::uint64_t io0 = proc_field("io", "write_bytes:");
  const std::uint64_t hwm_open_kb = proc_field("status", "VmHWM:");
  marks.start = mark(*dep, *driver, true, false);
  marks.start_ns = steady_ns();
  marks.traced_cpu_ns.assign(marks.start.size(), 0);
  if (args.trace) {
    // Alternate untraced and traced slices so CPU drift hits both alike.
    const int slices = std::max(2, static_cast<int>(std::lround(window_s / kSliceS)));
    std::int64_t slice_start = marks.start_ns;
    std::vector<Probe> slice_probes = marks.start;
    for (int i = 0; i < slices; ++i) {
      const bool traced = i % 2 == 1;
      const std::int64_t until =
          marks.start_ns + static_cast<std::int64_t>((i + 1) * window_s / slices * 1e9);
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - steady_ns()));
      const bool last = i + 1 == slices;
      const std::vector<Probe> probes = mark(*dep, *driver, !last, !traced && !last);
      const std::int64_t now = steady_ns();
      (traced ? marks.traced_ns : marks.untraced_ns) += now - slice_start;
      if (traced) {
        for (std::size_t d = 0; d < probes.size(); ++d) {
          marks.traced_cpu_ns[d] += probes[d].cpu_ns - slice_probes[d].cpu_ns;
        }
      }
      slice_start = now;
      slice_probes = probes;
      if (last) marks.end = probes;
    }
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    marks.end = mark(*dep, *driver, false, false);
  }
  marks.end_ns = steady_ns();
  const NetTotals n1 = net_totals(*dep);
  const std::uint64_t hwm_close_kb = proc_field("status", "VmHWM:");
  const obs::MetricsSnapshot s1 = dep->registry().snapshot();
  const std::uint64_t io1 = proc_field("io", "write_bytes:");

  // --- Drain, settle, read back. --------------------------------------------
  if (spec.open_loop) {
    generator.join();
  } else {
    driver->stop_closed_loop();
  }
  if (!driver->wait_idle(std::chrono::seconds(30))) {
    throw std::runtime_error("operations still outstanding 30 s after the window closed");
  }
  const std::int64_t settle_from_ns = steady_ns();
  std::this_thread::sleep_for(std::chrono::seconds(1));  // gossip converges
  const std::int64_t settle_to_ns = steady_ns();
  driver->readback(spec.readback_rounds);

  const obs::MetricsSnapshot at_end = dep->registry().snapshot();
  dep->stop();
  const NetTotals n_end = net_totals(*dep);
  if (n_end.sent != n_end.delivered + n_end.dropped) {
    result.violations.push_back("transport accounting: sent " + std::to_string(n_end.sent) +
                                " != delivered " + std::to_string(n_end.delivered) +
                                " + dropped " + std::to_string(n_end.dropped));
  }
  const std::uint64_t disk_bytes = dir_bytes(dep->dir());
  for (const auto& v : driver->violations) result.violations.push_back(v);

  // --- End-to-end metrics. ---------------------------------------------------
  const Driver& d = *driver;
  const double window_wall_s = static_cast<double>(marks.end_ns - marks.start_ns) / 1e9;
  result.attempted = d.attempted + unissued_attempts.load();
  result.failed = d.failed + unissued_attempts.load();
  const double fail_frac =
      result.attempted == 0 ? 0.0 : static_cast<double>(result.failed) / result.attempted;

  char line[256];
  std::snprintf(line, sizeof line, "fail_frac %.6f of %llu ops attempted (%llu failed)", fail_frac,
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  result.notes.push_back(line);
  for (const auto& [what, n] : d.failed_by_error) {
    std::snprintf(line, sizeof line, "  failed: %s x%llu", what.c_str(),
                  static_cast<unsigned long long>(n));
    result.notes.push_back(line);
  }
  if (unissued_attempts.load() != 0) {
    std::snprintf(line, sizeof line, "  failed: not issued (over %lld outstanding) x%llu",
                  static_cast<long long>(kMaxOutstanding),
                  static_cast<unsigned long long>(unissued_attempts.load()));
    result.notes.push_back(line);
  }

  // A write-only workload takes its read latencies from the final read-back.
  const bool reads_from_readback = spec.read_frac == 0.0;
  const std::vector<double>& read_ms = reads_from_readback ? d.readback_ms : d.read_ms[0];
  const std::vector<double>& read_raw_ms = reads_from_readback ? d.readback_raw_ms : d.read_raw_ms;
  std::snprintf(line, sizeof line, "samples: %zu writes, %zu reads%s; window %.3f s",
                d.write_ms[0].size(), read_ms.size(),
                reads_from_readback ? " (final read-back)" : "", window_wall_s);
  result.notes.push_back(line);

  auto add = [&](const std::string& name, double value, const std::string& unit) {
    result.metrics.push_back(Metric{name, value, unit});
  };

  if (!args.trace) {
    // Closed loop: completions weighted by the speed factor (ops per
    // nominal-speed second). Open loop: the rate is set by the schedule, so
    // completions are counted as they are.
    const double ops = spec.open_loop ? static_cast<double>(d.completed[0]) : d.completed_weighted;
    add("ops_per_s", ops / window_wall_s, "1/s");
    add("write_p50_ms", required_percentile(d.write_ms[0], 0.50, "write_p50_ms"), "ms");
    add("read_p50_ms", required_percentile(read_ms, 0.50, "read_p50_ms"), "ms");
    add("peak_rss_mb", static_cast<double>(hwm_setup_kb) / 1024.0, "MB");
  } else {
    // --- Per-layer ledger from the traced slices. ---------------------------
    std::vector<Span> spans;
    for (const auto& [inner, tracer] : dep->dispatchers()) {
      (void)inner;
      if (tracer == nullptr) continue;
      spans.insert(spans.end(), tracer->spans().begin(), tracer->spans().end());
    }
    if (!args.spans_out.empty()) {
      std::size_t i = 0;
      for (const auto& [inner, tracer] : dep->dispatchers()) {
        (void)inner;
        if (tracer == nullptr) continue;
        const std::string path = args.spans_out + (i++ == 0 ? "" : ".client");
        if (!tracer->write_spans(path)) result.notes.push_back("could not write " + path);
      }
    }
    const LedgerTotals ledger = summarize(spans);
    const double traced_s = static_cast<double>(marks.traced_ns) / 1e9;
    const double untraced_s = static_cast<double>(marks.untraced_ns) / 1e9;
    const double ops_traced = static_cast<double>(d.completed[1]);
    const double ops_window = static_cast<double>(d.completed[0] + d.completed[1]);
    const double writes_window = static_cast<double>(d.writes_done[0] + d.writes_done[1]);
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    std::int64_t traced_cpu = 0;
    std::int64_t busiest_cpu = 0;
    std::uint64_t signs = 0;
    std::uint64_t verifies = 0;
    for (std::size_t i = 0; i < marks.start.size(); ++i) {
      traced_cpu += marks.traced_cpu_ns[i];
      busiest_cpu = std::max(busiest_cpu, marks.end[i].cpu_ns - marks.start[i].cpu_ns);
      signs += marks.end[i].signs - marks.start[i].signs;
      verifies += marks.end[i].verifies - marks.start[i].verifies;
    }

    // Unit crypto costs on this run's own keys and value size, at the batch
    // size the servers actually saw, measured after the deployment stopped.
    // They are reported at nominal core speed, like the end-to-end figures,
    // and put back on the run's own speed scale for crypto.cpu_share.
    const auto factor_here = [] {
      std::vector<double> us;
      for (int i = 0; i < 5; ++i) {
        const std::int64_t start = thread_cpu_ns();
        g_kernel_sink.fetch_add(reference_kernel(static_cast<std::uint64_t>(start)),
                                std::memory_order_relaxed);
        us.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e3);
      }
      return median(us) / kNominalKernelUs;
    };
    double factor_run = 0;
    for (const SpeedProbe* probe : speed_view) {
      factor_run += median(probe->between(marks.start_ns, marks.end_ns, true)) / kNominalKernelUs;
    }
    factor_run /= static_cast<double>(speed_view.size());
    const double factor_before = factor_here();
    const crypto::KeyPair& key = dep->client_keys.front();
    const Bytes message = make_value(seed, 0, 1, 0, spec.value_bytes);
    const Bytes signature = crypto::ed25519_sign(key.seed, message);
    const double sign_us = time_per_call_us([&] { (void)crypto::ed25519_sign(key.seed, message); });
    const double verify_us = time_per_call_us(
        [&] { (void)crypto::ed25519_verify(key.public_key, message, signature); });
    const HistSum batch = hist_delta(s0, s1, "server.batch_size");
    const std::size_t batch_n =
        std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(batch.mean())));
    std::vector<crypto::BatchVerifyItem> items(
        batch_n, crypto::BatchVerifyItem{key.public_key, message, signature});
    const double batch_item_us =
        time_per_call_us([&] { (void)crypto::ed25519_batch_verify(items); }) / batch_n;
    const double factor_now = (factor_before + factor_here()) / 2;
    const double window_cpu_us = [&] {
      std::int64_t total = 0;
      for (std::size_t i = 0; i < marks.start.size(); ++i) total += marks.end[i].cpu_ns - marks.start[i].cpu_ns;
      return static_cast<double>(total) / 1e3;
    }();

    const auto layer_us = [&](Layer l) {
      return static_cast<double>(ledger.self_ns[static_cast<std::size_t>(l)]) / 1e3;
    };
    const HistSum wal_append = hist_delta(s0, s1, "server.wal.append_us");
    const HistSum wal_sync = hist_delta(s0, s1, "server.wal.sync_us");
    const HistSum lag = hist_delta(at_setup, at_end, ".storage.compaction_lag_us");
    const HistSum visible = hist_delta(s0, s1, "gossip.write_to_visible_us");
    std::uint64_t min_flushes = ~0ULL;
    std::uint64_t min_compactions = ~0ULL;
    for (std::uint32_t i = 0; i < kN; ++i) {
      const std::string prefix = "server." + std::to_string(i) + ".storage.";
      min_flushes = std::min(min_flushes, counter_value(at_end, prefix + "flushes"));
      min_compactions = std::min(min_compactions, counter_value(at_end, prefix + "compactions"));
    }
    const double user_bytes_window = writes_window * static_cast<double>(spec.value_bytes);
    const double latest_bytes = static_cast<double>(d.items_acked()) * spec.value_bytes;

    double retries = 0;
    for (const auto& [name, v] : s1.counters) {
      if (name.rfind("client.", 0) == 0 && ends_with(name, ".retries")) {
        retries += static_cast<double>(v - counter_value(s0, name));
      }
    }
    const double untraced_rate = per(static_cast<double>(d.completed[0]), untraced_s);
    const double traced_rate = per(static_cast<double>(d.completed[1]), traced_s);
    double overhead = 0;
    if (spec.open_loop) {
      const std::vector<double>& rt = d.read_ms[1];
      const std::vector<double>& ru = d.read_ms[0];
      overhead = rt.empty() || ru.empty() ? 0.0 : median(rt) / median(ru) - 1.0;
    } else {
      overhead = untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
    }

    // The p99 tails, as measured in the untraced slices. They are not
    // end-to-end metrics: on a shared host their run-to-run spread is wider
    // than any bound worth gating on (see README.md).
    add("client.write_p99_ms", percentile(d.write_raw_ms, 0.99).value_or(0.0), "ms");
    add("client.read_p99_ms", percentile(read_raw_ms, 0.99).value_or(0.0), "ms");
    add("client.write_issue_us", per(static_cast<double>(ledger.issue_write_ns) / 1e3, ledger.issue_writes), "us");
    add("client.reply_us_per_op", per(static_cast<double>(ledger.client_reply_ns) / 1e3, ops_traced), "us");
    add("client.retries_per_op", per(retries, ops_window), "count");
    add("client.forgeries", static_cast<double>(counter_delta(s0, s1, "client.fault.forgery")), "count");
    add("crypto.signs_per_op", per(static_cast<double>(signs), ops_window), "count");
    add("crypto.verifies_per_op", per(static_cast<double>(verifies), ops_window), "count");
    add("crypto.sign_us", sign_us / factor_now, "us");
    add("crypto.verify_us", verify_us / factor_now, "us");
    add("crypto.batch_verify_us_per_item", batch_item_us / factor_now, "us");
    // Verifies are costed at the batched per-item rate: a lower bound.
    add("crypto.cpu_share",
        per((signs * sign_us + verifies * batch_item_us) * factor_run / factor_now, window_cpu_us),
        "frac");
    add("net.msgs_per_op", per(static_cast<double>(n1.sent - n0.sent), ops_window), "count");
    add("net.bytes_per_op", per(static_cast<double>(n1.bytes - n0.bytes), ops_window), "B");
    add("net.dispatch_cpu_frac", per(static_cast<double>(busiest_cpu) / 1e9, window_wall_s), "frac");
    add("net.ring_highwater", static_cast<double>(n1.ring_highwater), "count");
    add("net.dropped", static_cast<double>(n1.dropped - n0.dropped), "count");
    add("server.handler_us_per_op", per(layer_us(Layer::kServer), ops_traced), "us");
    add("server.handler_us_per_write",
        per(ledger.server_class_ns[static_cast<std::size_t>(ReqClass::kWrite)] / 1e3,
            static_cast<double>(d.writes_done[1])), "us");
    add("server.handler_us_per_read",
        per(ledger.server_class_ns[static_cast<std::size_t>(ReqClass::kRead)] / 1e3,
            static_cast<double>(d.reads_done[1])), "us");
    add("server.batch_size_mean", batch.mean(), "count");
    add("server.shed", static_cast<double>(counter_delta(s0, s1, "server.shed")), "count");
    add("storage.wal_append_us", wal_append.mean(), "us");
    add("storage.wal_sync_us", wal_sync.mean(), "us");
    add("storage.syncs_per_write", per(static_cast<double>(wal_sync.count), writes_window), "count");
    add("storage.flushes", spec.lsm ? static_cast<double>(min_flushes) : 0.0, "count");
    add("storage.compactions", spec.lsm ? static_cast<double>(min_compactions) : 0.0, "count");
    add("storage.compaction_lag_us", lag.mean(), "us");
    add("storage.write_amp", per(static_cast<double>(io1 - io0), user_bytes_window), "ratio");
    add("storage.disk_bytes_per_user_byte", per(static_cast<double>(disk_bytes), latest_bytes), "ratio");
    add("gossip.records_per_write",
        per(static_cast<double>(counter_delta(s0, s1, "gossip.records_sent")), writes_window), "count");
    add("gossip.rejected", static_cast<double>(counter_delta(s0, s1, "gossip.records_rejected")), "count");
    add("gossip.tick_us_per_s", per(static_cast<double>(ledger.gossip_tick_ns) / 1e3, traced_s), "us/s");
    add("gossip.visible_mean_ms", visible.mean() / 1e3, "ms");
    add("memory.rss_growth_kb_per_op",
        per(static_cast<double>(hwm_close_kb - hwm_open_kb), ops_window), "kB");
    add("loadgen.late_p99_ms", spec.open_loop ? percentile(d.late_ms_, 0.99).value_or(0.0) : 0.0, "ms");
    add("loadgen.unissued", static_cast<double>(unissued.load()), "count");
    add("loadgen.fail_frac", fail_frac, "frac");
    add("ledger.unattributed_frac",
        per(static_cast<double>(traced_cpu - ledger.covered_cpu_ns), static_cast<double>(traced_cpu)),
        "frac");
    add("trace.overhead_frac", overhead, "frac");

    std::snprintf(line, sizeof line,
                  "ledger over %.2f s traced (%.0f ops): dispatcher cpu %.1f ms, unattributed %.1f ms",
                  traced_s, ops_traced, static_cast<double>(traced_cpu) / 1e6,
                  static_cast<double>(traced_cpu - ledger.covered_cpu_ns) / 1e6);
    result.notes.push_back(line);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::snprintf(line, sizeof line, "  %-12s self wall %10.1f ms  self cpu %10.1f ms  (%5.1f%% of cpu)",
                    layer_name(static_cast<Layer>(l)), static_cast<double>(ledger.self_ns[l]) / 1e6,
                    static_cast<double>(ledger.self_cpu_ns[l]) / 1e6,
                    100.0 * per(static_cast<double>(ledger.self_cpu_ns[l]), static_cast<double>(traced_cpu)));
      result.notes.push_back(line);
    }
  }

  for (const SpeedProbe* probe : speed_view) {
    const auto wall_cpu = [probe](std::int64_t from, std::int64_t to) {
      return std::make_pair(median(probe->between(from, to)), median(probe->between(from, to, true)));
    };
    const auto idle = wall_cpu(idle_from_ns, idle_to_ns);
    const auto load = wall_cpu(marks.start_ns, marks.end_ns);
    const auto settle = wall_cpu(settle_from_ns, settle_to_ns);
    std::snprintf(line, sizeof line,
                  "reference kernel on a dispatcher, median wall/cpu us: idle %.1f/%.1f, under "
                  "load %.1f/%.1f, settling %.1f/%.1f (nominal %.0f)",
                  idle.first, idle.second, load.first, load.second, settle.first, settle.second,
                  kNominalKernelUs);
    result.notes.push_back(line);
  }
  if (!args.trace) {
    std::snprintf(line, sizeof line,
                  "raw wall clock: ops_per_s %.1f, write p50/p99 %.3f/%.3f ms, read p50/p99 "
                  "%.3f/%.3f ms",
                  static_cast<double>(d.completed[0]) / window_wall_s,
                  percentile(d.write_raw_ms, 0.5).value_or(0),
                  percentile(d.write_raw_ms, 0.99).value_or(0),
                  percentile(read_raw_ms, 0.5).value_or(0), percentile(read_raw_ms, 0.99).value_or(0));
    result.notes.push_back(line);
  }
  live.reset();
  for (int k = 0; k < kSetupsAfter; ++k) {
    Live extra;
    set_up(extra, kSetupsBefore + k);
  }
  result.correct = result.violations.empty();
  if (!args.trace) result.metrics.insert(result.metrics.begin(), Metric{"setup_s", median(setup_s), "s"});
  result.notes.push_back("set-ups, raw s (normalised):");
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    std::snprintf(line, sizeof line, " %.4f (%.4f)", setup_raw_s[k], setup_s[k]);
    result.notes.back() += line;
  }
  fs::remove_all(data_root, ec);
  return result;
}

}  // namespace perfbench
