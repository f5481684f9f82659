// Dependency analysis (§3.3): correlates internal and proxy transaction IDs
// and assembles the full dependency graph from trans_dep rows (run-time
// SELECT dependencies) plus before-image trids (UPDATE/DELETE dependencies
// reconstructed from the log).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "flavor/log_reader.h"
#include "repair/dependency_graph.h"
#include "repair/repair_stats.h"
#include "wire/connection.h"

namespace irdb::repair {

struct DependencyAnalysis {
  // Every committed row operation, in log order, fully reconstructed.
  std::vector<RepairOp> ops;

  // Transaction-ID correlation, established from the trans_dep insert that
  // precedes each commit (or the tracking_gaps insert of a degraded commit).
  std::map<int64_t, int64_t> internal_to_proxy;
  std::map<int64_t, int64_t> proxy_to_internal;

  // Proxy ids that committed without dependency metadata
  // (DegradedMode::kCommitUntracked). Each carries conservative edges to
  // every transaction committed before it.
  std::set<int64_t> tracking_gaps;

  DependencyGraph graph;
};

// Reads `log` through `reader` and builds the analysis. When `admin` is
// non-null the annot table is consulted for node labels (Fig. 3).
//
// A multi-lane `pool` parallelizes the scan (inside the reader — the pool is
// handed to it) and the reconstructed-edge pass, with per-chunk results
// stitched in log order so the analysis is identical to the serial one.
// `phases` (optional) receives the scan / correlate wall-time split.
Result<DependencyAnalysis> Analyze(FlavorLogReader* reader, const WalView& log,
                                   DbConnection* admin,
                                   util::ThreadPool* pool = nullptr,
                                   RepairPhaseStats* phases = nullptr);

}  // namespace irdb::repair
