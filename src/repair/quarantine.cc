#include "repair/quarantine.h"

#include <unordered_map>

#include "proxy/rewriter.h"
#include "util/string_utils.h"

namespace irdb::repair {

namespace {

bool IsMetadataTable(const std::string& lower_name) {
  return lower_name == proxy::kTransDepTable ||
         lower_name == proxy::kTrackingGapsTable ||
         lower_name == proxy::kAnnotTable;
}

// Working state per table while classifying the undo set's ops.
struct TableAccum {
  int32_t table_id = 0;
  std::vector<std::string> key_columns;  // empty → no PK index
  bool whole = false;
  bool fallback = false;  // whole because precision was lost
  // Ops keyed by their PK literals (populated as resolved); key slices
  // derive from these at the end so a late whole-table escalation discards
  // them.
  std::vector<std::pair<const RepairOp*, std::vector<std::pair<std::string, Value>>>>
      keyed_ops;
  // kUpdate ops whose PK must come from the row address.
  std::vector<const RepairOp*> pending_updates;
  // row address → PK literals, learned from sibling kInsert/kDelete ops
  // (full-row values) of the same undo set.
  std::unordered_map<int64_t, std::vector<std::pair<std::string, Value>>>
      address_keys;
};

std::vector<std::pair<std::string, Value>> ExtractKey(
    const std::vector<std::string>& key_columns,
    const std::vector<std::pair<std::string, Value>>& values) {
  std::vector<std::pair<std::string, Value>> out;
  for (const std::string& kc : key_columns) {
    const Value* found = nullptr;
    for (const auto& [name, v] : values) {
      if (EqualsIgnoreCase(name, kc)) {
        found = &v;
        break;
      }
    }
    if (found == nullptr) return {};
    out.emplace_back(kc, *found);
  }
  return out;
}

bool TouchesKeyColumn(const std::vector<std::string>& key_columns,
                      const std::vector<std::pair<std::string, Value>>& values) {
  for (const auto& [name, v] : values) {
    (void)v;
    for (const std::string& kc : key_columns) {
      if (EqualsIgnoreCase(name, kc)) return true;
    }
  }
  return false;
}

}  // namespace

ContaminatedPartition ComputeContaminatedPartition(
    Database* db, const DependencyAnalysis& analysis,
    const std::set<int64_t>& undo_proxy_ids) {
  ContaminatedPartition part;

  std::set<int64_t> undo_internal;
  for (int64_t proxy_id : undo_proxy_ids) {
    auto it = analysis.proxy_to_internal.find(proxy_id);
    if (it != analysis.proxy_to_internal.end()) undo_internal.insert(it->second);
  }
  if (undo_internal.empty()) return part;

  const FlavorTraits& traits = db->traits();
  const std::string address_column =
      traits.has_rowid ? traits.rowid_name : proxy::kSybaseRowIdColumn;

  std::map<std::string, TableAccum> accum;
  for (const RepairOp& op : analysis.ops) {
    if (undo_internal.count(op.internal_txn_id) == 0) continue;
    const std::string table_key = ToLowerAscii(op.table);
    auto it = accum.find(table_key);
    if (it == accum.end()) {
      auto info = db->TableKeyInfo(op.table);
      if (!info.has_value()) continue;  // table dropped since; nothing to fence
      TableAccum t;
      t.table_id = info->first;
      t.key_columns = std::move(info->second);
      it = accum.emplace(table_key, std::move(t)).first;
    }
    TableAccum& t = it->second;
    if (t.key_columns.empty()) {
      // No primary-key index: key-slicing impossible.
      if (!t.whole) t.fallback = true;
      t.whole = true;
    }
    if (t.whole) continue;

    switch (op.op) {
      case LogOp::kInsert:
      case LogOp::kDelete: {
        // Full-row values: the key is right there.
        auto key = ExtractKey(t.key_columns, op.values);
        if (key.empty()) {
          t.whole = true;
          t.fallback = true;
          break;
        }
        if (op.row_address >= 0) t.address_keys[op.row_address] = key;
        t.keyed_ops.emplace_back(&op, std::move(key));
        break;
      }
      case LogOp::kUpdate: {
        // Before-values carry only the changed columns; a key column among
        // them means the update rewrote the primary key — both old and new
        // keys are dirty and the row's lane-time key is unstable, so the
        // whole table is fenced.
        if (TouchesKeyColumn(t.key_columns, op.values)) {
          t.whole = true;
          t.fallback = true;
          break;
        }
        t.pending_updates.push_back(&op);
        break;
      }
      default:
        break;
    }
  }

  // Resolve pending updates: sibling ops first (an undone insert or delete
  // of the same row carries its key), live-row lookup for the rest.
  for (auto& [table_key, t] : accum) {
    if (t.whole || t.pending_updates.empty()) continue;
    std::vector<const RepairOp*> unresolved;
    for (const RepairOp* op : t.pending_updates) {
      auto hit = t.address_keys.find(op->row_address);
      if (hit != t.address_keys.end()) {
        t.keyed_ops.emplace_back(op, hit->second);
      } else {
        unresolved.push_back(op);
      }
    }
    if (!unresolved.empty()) {
      std::vector<int64_t> addresses;
      addresses.reserve(unresolved.size());
      for (const RepairOp* op : unresolved) addresses.push_back(op->row_address);
      // table_key is the catalog's lower-cased name; lookups are
      // case-insensitive anyway.
      auto live = db->KeyValuesForRowAddresses(table_key, addresses,
                                               address_column);
      std::unordered_map<int64_t, size_t> by_addr;
      for (size_t i = 0; i < live.size(); ++i) by_addr[live[i].first] = i;
      for (const RepairOp* op : unresolved) {
        auto hit = by_addr.find(op->row_address);
        if (hit == by_addr.end()) {
          // Neither live nor covered by a sibling op: the row's key is
          // unknowable without replaying the log — fence the table.
          t.whole = true;
          t.fallback = true;
          break;
        }
        t.keyed_ops.emplace_back(op, live[hit->second].second);
      }
    }
  }

  // Materialize slices and annotations.
  for (auto& [table_key, t] : accum) {
    part.table_ids[table_key] = t.table_id;
    const bool metadata = IsMetadataTable(table_key);
    if (metadata) part.metadata_tables.insert(table_key);
    if (t.whole) {
      if (!metadata) {
        part.slices.push_back(
            concurrency::QuarantineSlice::WholeTable(t.table_id));
        part.whole_tables.insert(table_key);
        if (t.fallback) ++part.fallback_whole_tables;
      }
      continue;  // annotations dropped: lanes take coarse locks anyway
    }
    // Each fenced key's lock path, named by the planner's own key-hash
    // pass; keys shared by several ops fence once.
    std::map<concurrency::ResourceId, concurrency::QuarantineSlice> keys;
    for (auto& [op, key] : t.keyed_ops) {
      auto path = db->KeyLockPath(table_key, key);
      if (!path.has_value()) {
        // Coercion failed late (schema changed under us): degrade to whole.
        keys.clear();
        if (!metadata) {
          part.slices.push_back(
              concurrency::QuarantineSlice::WholeTable(t.table_id));
          part.whole_tables.insert(table_key);
          ++part.fallback_whole_tables;
        }
        break;
      }
      const concurrency::ResourceId leaf = path->back();
      keys.try_emplace(leaf, concurrency::QuarantineSlice{std::move(*path)});
      part.op_keys[op] = std::move(key);
    }
    if (!metadata) {
      for (auto& [leaf, slice] : keys) part.slices.push_back(std::move(slice));
    }
    part.keys += static_cast<int>(keys.size());
  }
  return part;
}

}  // namespace irdb::repair
