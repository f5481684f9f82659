// The observability catalog — every metric, span name, and journal event
// type the framework emits, in ONE place.
//
// Instrumented code never registers metrics ad hoc: it reads pre-registered
// ids off Metrics::Get(), so the set of exported series is closed and
// documented. docs/metrics.md is GENERATED from this catalog
// (tools/gen_metrics_doc renders RenderMetricsDoc()), and tools/check_docs.sh
// fails the `docs` ctest label if the file and the catalog ever diverge —
// the reference documentation cannot drift from the code.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace irdb::obs {

// Pre-registered ids for every metric in the catalog, all on
// MetricsRegistry::Default(). First Get() registers; later calls are free.
struct Metrics {
  static const Metrics& Get();

  // --- tracking proxy (src/proxy) ---
  MetricId proxy_client_statements;
  MetricId proxy_backend_statements;
  MetricId proxy_dep_fetches;
  MetricId proxy_trans_dep_inserts;
  MetricId proxy_deps_recorded;
  MetricId proxy_plan_cache_hits;
  MetricId proxy_plan_cache_misses;
  MetricId proxy_plan_cache_invalidations;
  MetricId proxy_plan_cache_bypasses;
  MetricId proxy_retries;
  MetricId proxy_deadlock_retries;
  MetricId proxy_injected_faults_hit;
  MetricId proxy_degraded_commits;
  MetricId proxy_tracking_gap_txns;
  MetricId proxy_statement_latency;  // histogram, ms

  // --- failpoints (src/util/failpoint) ---
  MetricId failpoint_evaluations;
  MetricId failpoint_trips;

  // --- WAL / transactions (src/txn, src/engine) ---
  MetricId wal_appends;
  MetricId wal_fsyncs;
  MetricId wal_fsync_bytes;
  MetricId wal_torn_tails;
  MetricId txn_commits;
  MetricId txn_aborts;

  // --- lock manager (src/concurrency) ---
  MetricId engine_lock_waits;
  MetricId engine_deadlock_aborts;
  MetricId engine_lock_timeouts;

  // --- storage: access paths + buffer pool (src/storage, src/engine) ---
  MetricId index_scans;
  MetricId heap_scans;
  MetricId bufferpool_hits;
  MetricId bufferpool_misses;
  MetricId bufferpool_evictions;
  MetricId bufferpool_resident;  // gauge

  // --- online-repair quarantine (src/concurrency, src/repair) ---
  MetricId quarantine_slices;  // gauge
  MetricId quarantine_rejects;
  MetricId repair_online_releases;
  MetricId repair_online_runs;

  // --- repair pipeline (src/repair) ---
  MetricId repair_runs;
  MetricId repair_records_scanned;
  MetricId repair_compensations;
  MetricId repair_scan_us;
  MetricId repair_scan_sim_us;
  MetricId repair_correlate_us;
  MetricId repair_closure_us;
  MetricId repair_compensate_us;
  MetricId repair_compensate_sim_us;
  MetricId repair_run_latency;  // histogram, ms (wall per full repair)
  MetricId repair_threads;     // gauge

  // --- reenactment repair (src/repair/reenact) ---
  MetricId reenact_runs;
  MetricId reenact_replayed_txns;
  MetricId reenact_demoted_txns;
  MetricId reenact_diverged_txns;
  MetricId reenact_stmts_replayed;
  MetricId reenact_components;
  MetricId reenact_replay_us;
  MetricId reenact_run_latency;  // histogram, ms (wall per RepairReenact)

  // --- worker pool (src/util/thread_pool) ---
  MetricId pool_workers;  // gauge
  MetricId pool_tasks;
  MetricId pool_parallel_fors;

  // --- networked front-end (src/net) ---
  MetricId net_connections_accepted;
  MetricId net_connections_active;  // gauge
  MetricId net_sessions_active;     // gauge
  MetricId net_frames_in;
  MetricId net_frames_out;
  MetricId net_bytes_in;
  MetricId net_bytes_out;
  MetricId net_requests;
  MetricId net_frame_latency;  // histogram, ms
  MetricId net_outbox_bytes;   // gauge
  MetricId net_backpressure_stalls;
  MetricId net_idle_disconnects;
  MetricId net_protocol_errors;
  MetricId net_session_resets;

  // --- sharded deployment: router tier (src/shard) ---
  MetricId router_stmts_routed;
  MetricId router_broadcasts;
  MetricId router_cross_shard_txns;
  MetricId router_twopc_commits;
  MetricId router_twopc_aborts;
  MetricId router_deps_merged;
  MetricId router_wrong_shard_rejects;
  MetricId router_shard_down_rejects;

  // --- sharded deployment: cluster + coordinated repair (src/shard) ---
  MetricId shard_clusters_built;
  MetricId shard_repair_runs;
  MetricId shard_closure_rounds;
  MetricId shard_repairs_dispatched;
};

// Span names recorded through obs::Span, with one-line descriptions
// (docs/metrics.md §Spans).
struct SpanDoc {
  const char* name;
  const char* description;
};
const std::vector<SpanDoc>& SpanCatalog();

// Journal event types appended through EventJournal, with their fields
// (docs/metrics.md §Events).
struct EventDoc {
  const char* name;
  const char* fields;  // comma-separated field names, "" when none
  const char* description;
};
const std::vector<EventDoc>& EventCatalog();

// Span and journal event names, as constants so call sites cannot typo a
// name out of the documented catalog.
namespace span {
inline constexpr const char* kRepairAnalyze = "repair.analyze";
inline constexpr const char* kRepairScanFlavorRead = "repair.scan.flavor_read";
inline constexpr const char* kRepairCorrelate = "repair.correlate";
inline constexpr const char* kRepairClosure = "repair.closure";
inline constexpr const char* kRepairCompensate = "repair.compensate";
inline constexpr const char* kRepairCompensateLane = "repair.compensate.lane";
inline constexpr const char* kReenact = "repair.reenact";
inline constexpr const char* kReenactReplay = "repair.reenact.replay";
inline constexpr const char* kReenactComponent = "repair.reenact.component";
inline constexpr const char* kQuarantineCompute = "repair.quarantine.compute";
inline constexpr const char* kQuarantineHold = "repair.quarantine.hold";
inline constexpr const char* kQuarantineRelease = "repair.quarantine.release";
inline constexpr const char* kPoolParallelFor = "pool.parallel_for";
inline constexpr const char* kPoolChunk = "pool.chunk";
inline constexpr const char* kShardClosure = "shard.closure";
inline constexpr const char* kShardRepair = "shard.repair";
}  // namespace span

namespace event {
inline constexpr const char* kFailpointTrip = "failpoint.trip";
inline constexpr const char* kProxyDegradedCommit = "proxy.degraded_commit";
inline constexpr const char* kProxyTrackingGap = "proxy.tracking_gap";
inline constexpr const char* kProxyCacheInvalidation = "proxy.cache_invalidation";
inline constexpr const char* kWalTornTail = "wal.torn_tail";
inline constexpr const char* kEngineDeadlockVictim = "engine.deadlock_victim";
inline constexpr const char* kRepairAnalyzeDone = "repair.analyze_done";
inline constexpr const char* kRepairDone = "repair.done";
inline constexpr const char* kReenactDone = "repair.reenact_done";
inline constexpr const char* kReenactDemoted = "repair.reenact_demoted";
inline constexpr const char* kQuarantineInstalled = "repair.quarantine_installed";
inline constexpr const char* kQuarantineReleased = "repair.quarantine_released";
inline constexpr const char* kNetSessionReset = "net.session_reset";
inline constexpr const char* kNetIdleDisconnect = "net.idle_disconnect";
inline constexpr const char* kShardRepairDone = "shard.repair_done";
}  // namespace event

// The full docs/metrics.md content: a reference table for every counter,
// gauge, histogram, span, and journal event above. Deterministic — the
// `docs` ctest label asserts docs/metrics.md is byte-identical to this.
std::string RenderMetricsDoc();

}  // namespace irdb::obs
