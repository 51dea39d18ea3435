#include "ledger.h"

namespace perfbench {

LedgerTotals summarize(const std::vector<Span>& spans) {
  LedgerTotals t;
  for (const Span& s : spans) {
    const auto layer = static_cast<std::size_t>(s.layer);
    t.self_ns[layer] += s.self_ns;
    t.self_cpu_ns[layer] += s.self_cpu_ns;
    if (s.depth == 0) t.covered_cpu_ns += s.cpu_ns;
    switch (s.kind) {
      case SpanKind::kIssueWrite:
        ++t.issue_writes;
        t.issue_write_ns += s.end_ns - s.start_ns;
        break;
      case SpanKind::kDeliver:
        if (s.layer == Layer::kClient) {
          t.client_reply_ns += s.self_ns;
        } else if (s.layer == Layer::kServer) {
          std::uint32_t total = 0;
          for (const std::uint16_t c : s.req_counts) total += c;
          if (total == 0) break;
          for (std::size_t c = 0; c < kReqClassCount; ++c) {
            t.server_class_ns[c] += static_cast<double>(s.self_ns) * s.req_counts[c] / total;
          }
        }
        break;
      case SpanKind::kTimer:
        if (s.layer == Layer::kGossip) t.gossip_tick_ns += s.self_ns;
        break;
      case SpanKind::kIssueRead:
      case SpanKind::kLoadgen:
        break;
    }
  }
  return t;
}

}  // namespace perfbench
