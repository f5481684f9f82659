// Contaminated-partition computation for online ("serve-through") repair
// (DESIGN.md §5g).
//
// From the dependency closure, derives the set of slices the undone
// transactions wrote — each fenced primary key as its lock path (table,
// enclosing prefix granules, key), in the exact resource space the
// engine's lock planner uses — plus whole-table slices wherever key
// precision is unattainable: tables without a primary-key index, updates
// that rewrote a primary key, and row addresses that resolve to neither a
// live row nor a sibling op in the undo set. The result feeds
// QuarantineManager::Add (rejection fence), the repair's drain pass, and
// per-op primary-key annotations that let compensating statements plan key
// locks instead of coarse table X — the property that keeps clean keys of a
// partially contaminated table available while its lane heals.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/quarantine.h"
#include "engine/database.h"
#include "repair/analyzer.h"
#include "repair/compensator.h"

namespace irdb::repair {

struct ContaminatedPartition {
  // Rejection fence, ready for QuarantineManager::Add. Proxy-metadata
  // tables are excluded: fencing trans_dep would reject every tracked
  // commit in the system, so they are healed without being quarantined.
  std::vector<concurrency::QuarantineSlice> slices;

  // Lower-cased table name → table id, for every table with undone ops
  // (metadata tables included — lanes and release need the ids).
  std::map<std::string, int32_t> table_ids;

  // Tables sliced whole (lower-cased; metadata tables never appear here).
  std::set<std::string> whole_tables;

  // Proxy-metadata tables (trans_dep / tracking_gaps / annot) carrying
  // undone ops: compensated but never rejection-installed.
  std::set<std::string> metadata_tables;

  OpKeyMap op_keys;

  int keys = 0;  // distinct fenced keys
  // Whole-table slices forced by lost precision (no PK index, primary key
  // rewritten by an undone update, or unresolvable row address).
  int fallback_whole_tables = 0;
};

// Pure computation — reads the catalog through Database's latched helpers,
// never writes. `undo_proxy_ids` must already be closed under the chosen
// dependency semantics (RepairEngine::ComputeUndoSet).
ContaminatedPartition ComputeContaminatedPartition(
    Database* db, const DependencyAnalysis& analysis,
    const std::set<int64_t>& undo_proxy_ids);

}  // namespace irdb::repair
