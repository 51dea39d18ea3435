#include "timing_transport.h"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "net/rpc.h"

namespace perfbench {

using securestore::Bytes;
using securestore::BytesView;
using securestore::NodeId;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "core.client";
    case Layer::kServer: return "core.server";
    case Layer::kGossip: return "gossip";
    case Layer::kTimer: return "timers";
    case Layer::kLoadgen: return "loadgen";
  }
  return "?";
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Message type of an rpc envelope (PROTOCOL.md §1b): kind byte, optional
// trace context (high bit; u8 length + bytes), u64 rpc id, u16 type (LE).
// Returns 0 for anything too short to hold one.
std::uint16_t envelope_type(BytesView payload) {
  std::size_t at = 1;
  if (payload.empty()) return 0;
  if ((payload[0] & 0x80) != 0) {
    if (payload.size() < 2) return 0;
    at = 2 + payload[1];
  }
  at += 8;
  if (payload.size() < at + 2) return 0;
  return static_cast<std::uint16_t>(payload[at] | (payload[at + 1] << 8));
}

bool is_gossip_type(std::uint16_t type) {
  using securestore::net::MsgType;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kGossipDigest:
    case MsgType::kGossipUpdates:
    case MsgType::kGossipRequest:
    case MsgType::kGossipRing: return true;
    default: return false;
  }
}

ReqClass request_class(std::uint16_t type) {
  using securestore::net::MsgType;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kWrite: return ReqClass::kWrite;
    case MsgType::kMetaRequest:
    case MsgType::kRead:
    case MsgType::kLogRead: return ReqClass::kRead;
    default: return ReqClass::kOther;
  }
}

}  // namespace

TimingTransport::TimingTransport(securestore::net::Transport& inner,
                                 std::uint32_t first_client_node)
    : inner_(inner), first_client_node_(first_client_node) {
  spans_.reserve(1u << 18);
}

TimingTransport::Scope::Scope(TimingTransport* owner, std::uint32_t node, SpanKind kind,
                              Layer layer, std::uint64_t parent_op) {
  if (owner == nullptr || !owner->tracing()) return;
  owner_ = owner;
  parent_ = owner->top_;
  owner->top_ = this;
  span_.node = node;
  span_.kind = kind;
  span_.layer = layer;
  span_.parent_op = parent_op;
  span_.depth = parent_ == nullptr ? 0 : static_cast<std::uint16_t>(parent_->span_.depth + 1);
  cpu_start_ = thread_cpu_ns();
  span_.start_ns = steady_ns();
}

TimingTransport::Scope::~Scope() {
  if (owner_ == nullptr) return;
  span_.end_ns = steady_ns();
  span_.cpu_ns = thread_cpu_ns() - cpu_start_;
  const std::int64_t wall = span_.end_ns - span_.start_ns;
  span_.self_ns = wall - child_ns_;
  span_.self_cpu_ns = span_.cpu_ns - child_cpu_ns_;
  // A timer that sent gossip traffic is the gossip engine's tick.
  if (span_.kind == SpanKind::kTimer && sent_gossip_) span_.layer = Layer::kGossip;
  if (parent_ != nullptr) {
    parent_->child_ns_ += wall;
    parent_->child_cpu_ns_ += span_.cpu_ns;
  }
  owner_->top_ = parent_;
  owner_->spans_.push_back(span_);
}

void TimingTransport::register_node(NodeId node, DeliverFn deliver) {
  register_node_batched(node, [deliver = std::move(deliver)](
                                  std::vector<securestore::net::Delivery>& batch) {
    for (auto& d : batch) deliver(d.from, d.payload);
  });
}

void TimingTransport::register_node_batched(NodeId node, BatchDeliverFn deliver) {
  inner_.register_node_batched(
      node, [this, node, deliver = std::move(deliver)](
                std::vector<securestore::net::Delivery>& batch) {
        if (!tracing()) {
          deliver(batch);
          return;
        }
        Layer layer = is_client(node.value) ? Layer::kClient : Layer::kServer;
        Scope scope(this, node.value, SpanKind::kDeliver, layer);
        if (layer == Layer::kServer) {
          bool all_gossip = true;
          for (const auto& d : batch) {
            const std::uint16_t type = envelope_type(d.payload);
            all_gossip = all_gossip && is_gossip_type(type);
            ++scope.span().req_counts[static_cast<std::size_t>(request_class(type))];
          }
          if (all_gossip) scope.set_layer(Layer::kGossip);
        }
        deliver(batch);
      });
}

void TimingTransport::send(NodeId from, NodeId to, Bytes payload) {
  if (top_ != nullptr && is_gossip_type(envelope_type(payload))) top_->sent_gossip_ = true;
  inner_.send(from, to, std::move(payload));
}

void TimingTransport::schedule(securestore::SimDuration delay, std::function<void()> callback) {
  // The timer inherits the layer of whatever scheduled it (a client's
  // retry timer, a server's WAL tick); timers armed outside any span
  // (constructors) start as plain timers.
  const Layer owner_layer = top_ != nullptr ? top_->span_.layer : Layer::kTimer;
  const std::uint32_t owner_node = top_ != nullptr ? top_->span_.node : 0;
  inner_.schedule(delay, [this, owner_layer, owner_node, callback = std::move(callback)] {
    Layer layer = owner_layer == Layer::kClient ? Layer::kClient : Layer::kTimer;
    Scope scope(this, owner_node, SpanKind::kTimer, layer);
    callback();
  });
}

bool TimingTransport::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "node,kind,layer,depth,parent_op,start_ns,end_ns,self_ns,cpu_ns,self_cpu_ns,"
                    "req_write,req_read,req_other\n");
  static const char* kKinds[] = {"deliver", "timer", "issue_write", "issue_read", "loadgen"};
  for (const Span& s : spans_) {
    std::fprintf(out, "%u,%s,%s,%u,%llu,%lld,%lld,%lld,%lld,%lld,%u,%u,%u\n", s.node,
                 kKinds[static_cast<int>(s.kind)], layer_name(s.layer), s.depth,
                 static_cast<unsigned long long>(s.parent_op), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.self_ns),
                 static_cast<long long>(s.cpu_ns), static_cast<long long>(s.self_cpu_ns),
                 s.req_counts[0], s.req_counts[1], s.req_counts[2]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
