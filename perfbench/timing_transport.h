// TimingTransport: an outside-in span recorder for the traced run.
//
// A decorator over any net::Transport, built like
// net::FaultInjectingTransport: every register_node(_batched) handler and
// every schedule() callback is wrapped so that, while tracing is switched
// on, each invocation becomes a span (node, kind, layer, wall start/end,
// thread-CPU start/end, parent client op). The benchmark adds its own spans
// around the calls it makes into the client (`Scope`). All wrapped code runs
// on the inner transport's single dispatcher thread, so spans nest strictly
// and self time (a span's time minus its children's) is computed as spans
// close. Spans are kept in memory and written out when the run ends.
//
// Nothing under src/ knows this exists: layers are told apart by node id
// (servers vs clients) and by the message types a span receives or sends.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"

namespace perfbench {

/// The src/ module a span's self time is charged to.
enum class Layer : std::uint8_t {
  kClient,   // core.client: reply handling, retries, issue (sign+encode+send)
  kServer,   // core.server: request handling incl. verify, WAL, engine apply
  kGossip,   // gossip: digest/update exchange, ticks
  kTimer,    // server/client timers that sent no gossip (WAL group commit, timeouts)
  kLoadgen,  // the benchmark's own issue and bookkeeping callbacks
};
inline constexpr std::size_t kLayerCount = 5;
const char* layer_name(Layer layer);

enum class SpanKind : std::uint8_t { kDeliver, kTimer, kIssueWrite, kIssueRead, kLoadgen };

/// Request-type buckets for splitting server handler time.
enum class ReqClass : std::uint8_t { kWrite, kRead, kOther };
inline constexpr std::size_t kReqClassCount = 3;

struct Span {
  std::uint32_t node = 0;
  SpanKind kind{};
  Layer layer{};
  std::uint16_t depth = 0;
  std::uint64_t parent_op = 0;  // bench op id for issue spans, else 0
  std::int64_t start_ns = 0;    // steady clock
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;      // wall, minus child spans
  std::int64_t cpu_ns = 0;       // thread CPU, whole span
  std::int64_t self_cpu_ns = 0;  // thread CPU, minus child spans
  // Server deliveries: how many messages of each request class the batch held.
  std::uint16_t req_counts[kReqClassCount] = {0, 0, 0};
};

/// Nanoseconds of CPU the calling thread has used.
std::int64_t thread_cpu_ns();
std::int64_t steady_ns();

class TimingTransport final : public securestore::net::Transport {
 public:
  /// `first_client_node`: node ids at or above it are clients, below are
  /// servers.
  TimingTransport(securestore::net::Transport& inner, std::uint32_t first_client_node);

  void register_node(securestore::NodeId node, DeliverFn deliver) override;
  void register_node_batched(securestore::NodeId node, BatchDeliverFn deliver) override;
  void unregister_node(securestore::NodeId node) override { inner_.unregister_node(node); }
  void send(securestore::NodeId from, securestore::NodeId to, securestore::Bytes payload) override;
  securestore::SimTime now() const override { return inner_.now(); }
  void schedule(securestore::SimDuration delay, std::function<void()> callback) override;
  std::size_t backlog(securestore::NodeId node) const override { return inner_.backlog(node); }
  void refund_service(securestore::NodeId node) override { inner_.refund_service(node); }
  const securestore::sim::TransportStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  securestore::obs::Registry& registry() override { return inner_.registry(); }
  securestore::obs::EventLog& events() override { return inner_.events(); }

  /// Switches span recording; call from a job the inner transport runs on
  /// the dispatcher thread, so no span is open across the switch.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// A span the benchmark opens around its own calls (client issue,
  /// open-loop arrivals). Inert when `owner` is null or tracing is off.
  /// Dispatcher thread only.
  class Scope {
   public:
    Scope(TimingTransport* owner, std::uint32_t node, SpanKind kind, Layer layer,
          std::uint64_t parent_op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    Span& span() { return span_; }
    void set_layer(Layer layer) { span_.layer = layer; }

   private:
    friend class TimingTransport;
    TimingTransport* owner_ = nullptr;  // null: tracing was off at entry
    Scope* parent_ = nullptr;
    Span span_;
    std::int64_t cpu_start_ = 0;
    std::int64_t child_ns_ = 0;
    std::int64_t child_cpu_ns_ = 0;
    bool sent_gossip_ = false;
  };

  /// Closed spans in closing order. Read after the dispatcher is stopped.
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one CSV line per span.
  bool write_spans(const std::string& path) const;

 private:
  friend class Scope;
  bool is_client(std::uint32_t node) const { return node >= first_client_node_; }

  securestore::net::Transport& inner_;
  const std::uint32_t first_client_node_;
  std::atomic<bool> tracing_{false};
  // Dispatcher-thread state: the innermost open span, and every closed one.
  Scope* top_ = nullptr;
  std::vector<Span> spans_;
};

}  // namespace perfbench
