#include "repair/analyzer.h"

#include <chrono>
#include <cmath>

#include "obs/catalog.h"
#include "obs/trace.h"
#include "proxy/tracking_proxy.h"
#include "util/string_utils.h"

namespace irdb::repair {

Result<DependencyAnalysis> Analyze(FlavorLogReader* reader, const WalView& log,
                                   DbConnection* admin, util::ThreadPool* pool,
                                   RepairPhaseStats* phases) {
  DependencyAnalysis out;
  reader->set_pool(pool);
  obs::Span scan_span(obs::span::kRepairScanFlavorRead);
  IRDB_ASSIGN_OR_RETURN(out.ops, reader->ReadCommitted(log));
  scan_span.AddArg("ops", static_cast<int64_t>(out.ops.size()));
  {
    // One measurement serves phase stats, the registry, and the trace.
    const double ms = scan_span.End();
    if (phases != nullptr) phases->scan_wall_ms += ms;
    obs::Count(obs::Metrics::Get().repair_scan_us, std::llround(ms * 1000.0));
  }
  obs::Span correlate_span(obs::span::kRepairCorrelate);

  // Pass 1 — ID correlation: each tracked transaction ends with insert(s)
  // into trans_dep carrying its proxy ID; collect those plus the dependency
  // payloads (which may span several rows when chunked).
  std::map<int64_t, std::string> payload_by_proxy;
  for (const RepairOp& op : out.ops) {
    if (!op.is_trans_dep_insert || !op.inserted_tr_id) continue;
    const int64_t proxy_id = *op.inserted_tr_id;
    auto it = out.internal_to_proxy.find(op.internal_txn_id);
    if (it != out.internal_to_proxy.end() && it->second != proxy_id) {
      return Status::Internal(
          "transaction " + std::to_string(op.internal_txn_id) +
          " carries two distinct proxy IDs (" + std::to_string(it->second) +
          ", " + std::to_string(proxy_id) + ")");
    }
    out.internal_to_proxy[op.internal_txn_id] = proxy_id;
    out.proxy_to_internal[proxy_id] = op.internal_txn_id;
    std::string& payload = payload_by_proxy[proxy_id];
    if (!payload.empty() && !op.inserted_dep_payload.empty()) {
      payload.push_back(' ');
    }
    payload.append(op.inserted_dep_payload);
    out.graph.AddNode(proxy_id);
  }

  // Pass 1b — tracking gaps: a degraded commit has no trans_dep rows, but
  // its tracking_gaps insert carries the proxy id, so it still anchors the
  // internal<->proxy correlation (compensation needs it).
  for (const RepairOp& op : out.ops) {
    if (!op.is_tracking_gap_insert || !op.inserted_tr_id) continue;
    const int64_t proxy_id = *op.inserted_tr_id;
    auto it = out.internal_to_proxy.find(op.internal_txn_id);
    if (it != out.internal_to_proxy.end() && it->second != proxy_id) {
      return Status::Internal(
          "transaction " + std::to_string(op.internal_txn_id) +
          " carries two distinct proxy IDs (" + std::to_string(it->second) +
          ", " + std::to_string(proxy_id) + ")");
    }
    out.internal_to_proxy[op.internal_txn_id] = proxy_id;
    out.proxy_to_internal[proxy_id] = op.internal_txn_id;
    out.tracking_gaps.insert(proxy_id);
    out.graph.AddNode(proxy_id);
  }

  // Pass 2 — explicit (run-time) dependencies from the payloads.
  for (const auto& [proxy_id, payload] : payload_by_proxy) {
    IRDB_ASSIGN_OR_RETURN(std::vector<proxy::DepEntry> deps,
                          proxy::ParseDepTokens(payload));
    for (const auto& [table, writer] : deps) {
      if (writer == proxy_id) continue;
      out.graph.AddEdge(DepEdge{proxy_id, writer, table, DepKind::kRuntime});
    }
  }

  // Pass 3 — reconstructed dependencies: every UPDATE/DELETE before-image
  // names the previous writer in its trid column (§3.3: these were skipped at
  // run time to keep tracking cheap). Each op is examined independently
  // against the (now frozen) correlation maps, so the pass fans out in
  // contiguous op chunks whose edge lists concatenate in chunk order —
  // yielding the exact edge sequence of the serial loop.
  auto reconstruct_edge =
      [&](const RepairOp& op) -> std::optional<DepEdge> {
    if (op.op != LogOp::kUpdate && op.op != LogOp::kDelete) return std::nullopt;
    if (!op.before_trid) return std::nullopt;
    auto it = out.internal_to_proxy.find(op.internal_txn_id);
    if (it == out.internal_to_proxy.end()) return std::nullopt;  // untracked
    const int64_t reader_proxy = it->second;
    const int64_t writer_proxy = *op.before_trid;
    if (writer_proxy == reader_proxy) return std::nullopt;
    return DepEdge{reader_proxy, writer_proxy, ToLowerAscii(op.table),
                   DepKind::kReconstructed};
  };
  if (pool != nullptr && pool->lanes() > 1 && !out.ops.empty()) {
    const size_t nchunks =
        util::ThreadPool::SplitRange(static_cast<int64_t>(out.ops.size()),
                                     pool->lanes())
            .size();
    std::vector<std::vector<DepEdge>> chunk_edges(nchunks);
    pool->ParallelFor(static_cast<int64_t>(out.ops.size()),
                      [&](int64_t begin, int64_t end, int chunk) {
                        for (int64_t i = begin; i < end; ++i) {
                          auto edge =
                              reconstruct_edge(out.ops[static_cast<size_t>(i)]);
                          if (edge) chunk_edges[chunk].push_back(*edge);
                        }
                      });
    for (std::vector<DepEdge>& edges : chunk_edges) {
      for (DepEdge& edge : edges) out.graph.AddEdge(std::move(edge));
    }
  } else {
    for (const RepairOp& op : out.ops) {
      auto edge = reconstruct_edge(op);
      if (edge) out.graph.AddEdge(std::move(*edge));
    }
  }

  // Pass 4 — conservative edges for tracking gaps: the gap txn's real read
  // set is unknown, so assume it read from every transaction committed
  // before it (proxy-id order is commit order under the serial execution
  // model). Sound — never misses a real dependency — at the cost of
  // over-approximating the damage perimeter.
  const std::set<int64_t> known_nodes = out.graph.nodes();
  for (int64_t gap : out.tracking_gaps) {
    for (int64_t writer : known_nodes) {
      if (writer >= gap) continue;
      out.graph.AddEdge(DepEdge{gap, writer,
                                std::string(proxy::kTrackingGapsTable),
                                DepKind::kConservative});
    }
  }

  // Labels from the annot table, when reachable.
  if (admin != nullptr) {
    auto rs = admin->Execute("SELECT tr_id, descr FROM annot");
    if (rs.ok()) {
      for (const auto& row : rs->rows) {
        if (row.size() == 2 && row[0].is_int() && row[1].is_string()) {
          out.graph.SetLabel(row[0].as_int(), row[1].as_string());
        }
      }
    }
  }
  {
    const double ms = correlate_span.End();
    if (phases != nullptr) phases->correlate_wall_ms += ms;
    obs::Count(obs::Metrics::Get().repair_correlate_us,
               std::llround(ms * 1000.0));
  }
  return out;
}

}  // namespace irdb::repair
