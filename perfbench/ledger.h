// Per-layer ledger: folds the traced run's spans into self time per layer,
// the client issue cost, server handler time split by request class, and
// the CPU the spans cover (what is left is the ledger's unattributed part).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "timing_transport.h"

namespace perfbench {

struct LedgerTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};      // wall self time per layer
  std::array<std::int64_t, kLayerCount> self_cpu_ns{};  // CPU self time per layer
  std::int64_t covered_cpu_ns = 0;  // CPU inside top-level spans
  std::uint64_t issue_writes = 0;
  std::int64_t issue_write_ns = 0;  // wall time inside client write() calls
  std::int64_t client_reply_ns = 0;  // self time of client deliver handlers
  std::int64_t gossip_tick_ns = 0;   // self time of gossip timer callbacks
  /// Server deliver self time apportioned by request class (by message
  /// count within each batch).
  std::array<double, kReqClassCount> server_class_ns{};
};

LedgerTotals summarize(const std::vector<Span>& spans);

}  // namespace perfbench
