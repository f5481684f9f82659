// Registration of the closed metric catalog and the docs/metrics.md
// generator (see catalog.h).
#include "obs/catalog.h"

#include <cstdio>

namespace irdb::obs {

const Metrics& Metrics::Get() {
  static const Metrics* metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    auto* m = new Metrics();

    m->proxy_client_statements = r.RegisterCounter(
        "irdb_proxy_client_statements_total",
        "Client statements received by tracking proxies");
    m->proxy_backend_statements = r.RegisterCounter(
        "irdb_proxy_backend_statements_total",
        "Statements forwarded to the backend, including dep fetches, "
        "trans_dep/annot inserts, and retry re-sends");
    m->proxy_dep_fetches = r.RegisterCounter(
        "irdb_proxy_dep_fetches_total",
        "Extra dep-fetch SELECTs issued for aggregate queries (Table 1)");
    m->proxy_trans_dep_inserts = r.RegisterCounter(
        "irdb_proxy_trans_dep_inserts_total",
        "trans_dep rows written at COMMIT (chunked payloads count per row)");
    m->proxy_deps_recorded = r.RegisterCounter(
        "irdb_proxy_deps_recorded_total",
        "Deduplicated (table, writer-trid) dependencies recorded at COMMIT");
    m->proxy_plan_cache_hits = r.RegisterCounter(
        "irdb_proxy_plan_cache_hits_total",
        "Statement-shape cache hits (lex+parse+rewrite skipped)");
    m->proxy_plan_cache_misses = r.RegisterCounter(
        "irdb_proxy_plan_cache_misses_total",
        "Statement shapes seen for the first time (plan built and cached)");
    m->proxy_plan_cache_invalidations = r.RegisterCounter(
        "irdb_proxy_plan_cache_invalidations_total",
        "Whole-cache flushes caused by DDL through the connection");
    m->proxy_plan_cache_bypasses = r.RegisterCounter(
        "irdb_proxy_plan_cache_bypasses_total",
        "Statements whose shape is cached as not-safely-bindable (negative "
        "entry); the full parse path was taken");
    m->proxy_retries = r.RegisterCounter(
        "irdb_proxy_retries_total",
        "Backend calls re-attempted after a retryable failure");
    m->proxy_deadlock_retries = r.RegisterCounter(
        "irdb_proxy_deadlock_retries_total",
        "Autocommit transaction wraps re-run after a deadlock abort "
        "(whole BEGIN..COMMIT re-executed, capped by the retry policy)");
    m->proxy_injected_faults_hit = r.RegisterCounter(
        "irdb_proxy_injected_faults_hit_total",
        "Failpoint-injected errors observed by proxies");
    m->proxy_degraded_commits = r.RegisterCounter(
        "irdb_proxy_degraded_commits_total",
        "Transactions committed untracked after metadata loss "
        "(DegradedMode::kCommitUntracked)");
    m->proxy_tracking_gap_txns = r.RegisterCounter(
        "irdb_proxy_tracking_gap_txns_total",
        "Transaction ids quarantined in the tracking_gaps side table");
    m->proxy_statement_latency = r.RegisterHistogram(
        "irdb_proxy_statement_latency_ms",
        "Client-statement latency through the tracking proxy (rewrite + "
        "backend round trips + dependency harvesting)");

    m->failpoint_evaluations = r.RegisterCounter(
        "irdb_failpoint_evaluations_total",
        "Failpoint site evaluations while at least one site was armed");
    m->failpoint_trips = r.RegisterCounter(
        "irdb_failpoint_trips_total",
        "Failpoint evaluations that fired an injected fault");

    m->wal_appends = r.RegisterCounter(
        "irdb_wal_appends_total", "Records appended to the write-ahead log");
    m->wal_fsyncs = r.RegisterCounter(
        "irdb_wal_fsyncs_total",
        "Commit-time log flushes (read-only transactions flush nothing)");
    m->wal_fsync_bytes = r.RegisterCounter(
        "irdb_wal_fsync_bytes_total",
        "Bytes made durable by commit-time log flushes", "bytes");
    m->wal_torn_tails = r.RegisterCounter(
        "irdb_wal_torn_tails_total",
        "Torn final WAL frames truncated during decode (crash mid-write)");
    m->txn_commits = r.RegisterCounter("irdb_txn_commits_total",
                                       "Engine transactions committed");
    m->txn_aborts = r.RegisterCounter("irdb_txn_aborts_total",
                                      "Engine transactions rolled back");

    m->engine_lock_waits = r.RegisterCounter(
        "irdb_engine_lock_waits_total",
        "Lock requests that blocked at least once before being granted or "
        "aborted (engine.lock.waits)");
    m->engine_deadlock_aborts = r.RegisterCounter(
        "irdb_engine_deadlock_aborts_total",
        "Lock requests aborted by waits-for cycle detection; the victim "
        "transaction is rolled back (engine.deadlocks.aborted)");
    m->engine_lock_timeouts = r.RegisterCounter(
        "irdb_engine_lock_timeouts_total",
        "Lock requests aborted by the wait-timeout failsafe; the victim "
        "transaction is rolled back. The only resolver of lock cycles that "
        "cross shards, which per-shard cycle detection cannot see");

    m->index_scans = r.RegisterCounter(
        "irdb_index_scans_total",
        "Table accesses served through a B+ tree index (equality-prefix or "
        "range access path chosen by the planner)");
    m->heap_scans = r.RegisterCounter(
        "irdb_heap_scans_total",
        "Table accesses that fell back to a full heap scan (no usable "
        "index prefix for the predicate)");
    m->bufferpool_hits = r.RegisterCounter(
        "irdb_bufferpool_hits_total",
        "Page accesses served by an already-resident buffer-pool frame, "
        "including a statement's re-reads of a page it holds pinned");
    m->bufferpool_misses = r.RegisterCounter(
        "irdb_bufferpool_misses_total",
        "Page accesses that had to admit the page into the buffer pool "
        "(counted only; no simulated I/O is charged for them)");
    m->bufferpool_evictions = r.RegisterCounter(
        "irdb_bufferpool_evictions_total",
        "Frames evicted by the LRU-K replacer to stay under the configured "
        "frame capacity");
    m->bufferpool_resident = r.RegisterGauge(
        "irdb_bufferpool_resident",
        "Buffer-pool frames currently resident");

    m->quarantine_slices = r.RegisterGauge(
        "irdb_quarantine_slices",
        "Slices (whole tables + fenced primary keys) currently quarantined "
        "by an online repair; 0 when no quarantine is active");
    m->quarantine_rejects = r.RegisterCounter(
        "irdb_quarantine_rejects_total",
        "Statements rejected with [quarantine]-tagged kUnavailable because "
        "their lock plan touched a quarantined slice (or their open "
        "transaction pinned one)");
    m->repair_online_releases = r.RegisterCounter(
        "irdb_repair_online_releases_total",
        "Quarantined slices released incrementally by RepairOnline as their "
        "table's compensation lane committed");
    m->repair_online_runs = r.RegisterCounter(
        "irdb_repair_online_runs_total",
        "RepairOnline invocations (serve-through repairs started)");

    m->repair_runs = r.RegisterCounter(
        "irdb_repair_runs_total",
        "Dependency analyses started (RepairEngine::Analyze)");
    m->repair_records_scanned = r.RegisterCounter(
        "irdb_repair_records_scanned_total",
        "Log records scanned by dependency analyses");
    m->repair_compensations = r.RegisterCounter(
        "irdb_repair_compensations_total",
        "Compensating statements executed by selective undo");
    m->repair_scan_us = r.RegisterCounter(
        "irdb_repair_scan_us_total",
        "Wall time in the scan phase (flavor log read)", "us");
    m->repair_scan_sim_us = r.RegisterCounter(
        "irdb_repair_scan_sim_us_total",
        "Simulated 2004-era disk time charged to the scan phase "
        "(DESIGN.md §4a)", "us");
    m->repair_correlate_us = r.RegisterCounter(
        "irdb_repair_correlate_us_total",
        "Wall time in the correlate phase (ID correlation + graph build)",
        "us");
    m->repair_closure_us = r.RegisterCounter(
        "irdb_repair_closure_us_total",
        "Wall time in the closure phase (damage-perimeter BFS)", "us");
    m->repair_compensate_us = r.RegisterCounter(
        "irdb_repair_compensate_us_total",
        "Wall time in the compensate phase (selective undo execution)", "us");
    m->repair_compensate_sim_us = r.RegisterCounter(
        "irdb_repair_compensate_sim_us_total",
        "Simulated 2004-era disk time charged to the compensate phase", "us");
    m->repair_run_latency = r.RegisterHistogram(
        "irdb_repair_run_latency_ms",
        "Wall time of full Repair() invocations (analyze + closure + "
        "compensate)");
    m->repair_threads = r.RegisterGauge(
        "irdb_repair_threads",
        "Worker threads configured on the most recently (re)configured "
        "repair engine (1 = serial)");

    m->reenact_runs = r.RegisterCounter(
        "irdb_reenact_runs_total",
        "Reenactment repairs started (RepairEngine::RepairReenact)");
    m->reenact_replayed_txns = r.RegisterCounter(
        "irdb_reenact_replayed_txns_total",
        "Innocent closure transactions successfully re-executed from the "
        "statement journal (their effects survived the repair)");
    m->reenact_demoted_txns = r.RegisterCounter(
        "irdb_reenact_demoted_txns_total",
        "Closure transactions demoted to undo instead of replayed (tracking "
        "gap, missing journal, divergence, or downstream of a demotion)");
    m->reenact_diverged_txns = r.RegisterCounter(
        "irdb_reenact_diverged_txns_total",
        "Demotions caused by a replay divergence: a statement errored or its "
        "row-count fingerprint differed from the journaled execution");
    m->reenact_stmts_replayed = r.RegisterCounter(
        "irdb_reenact_stmts_replayed_total",
        "Journaled statements re-executed by committed replays");
    m->reenact_components = r.RegisterCounter(
        "irdb_reenact_components_total",
        "Independent dependency subgraphs replayed (the unit of replay "
        "parallelism)");
    m->reenact_replay_us = r.RegisterCounter(
        "irdb_reenact_replay_us_total",
        "Wall time in the replay phase of reenactment repairs", "us");
    m->reenact_run_latency = r.RegisterHistogram(
        "irdb_reenact_run_latency_ms",
        "Wall time of full RepairReenact() invocations (analyze + closure + "
        "compensate + replay)");

    m->pool_workers = r.RegisterGauge(
        "irdb_pool_workers",
        "Worker threads of the most recently constructed thread pool "
        "(0 = inline execution)");
    m->pool_tasks = r.RegisterCounter(
        "irdb_pool_tasks_total",
        "Tasks executed by worker pools (inline ones included)");
    m->pool_parallel_fors = r.RegisterCounter(
        "irdb_pool_parallel_fors_total", "ParallelFor invocations");

    m->net_connections_accepted = r.RegisterCounter(
        "irdb_net_connections_accepted_total",
        "TCP connections accepted by the networked proxy front-end");
    m->net_connections_active = r.RegisterGauge(
        "irdb_net_connections_active",
        "TCP connections currently open on the networked front-end");
    m->net_sessions_active = r.RegisterGauge(
        "irdb_net_sessions_active",
        "Wire sessions currently open (sessions outlive TCP connections "
        "until BYE or server stop)");
    m->net_frames_in = r.RegisterCounter(
        "irdb_net_frames_in_total",
        "Complete request frames decoded from client sockets");
    m->net_frames_out = r.RegisterCounter(
        "irdb_net_frames_out_total",
        "Reply frames enqueued to client outboxes");
    m->net_bytes_in = r.RegisterCounter(
        "irdb_net_bytes_in_total",
        "Bytes read from client sockets", "bytes");
    m->net_bytes_out = r.RegisterCounter(
        "irdb_net_bytes_out_total",
        "Bytes written to client sockets", "bytes");
    m->net_requests = r.RegisterCounter(
        "irdb_net_requests_total",
        "Requests executed to completion by the executor threads (after a "
        "clean drain, equals both frame counters)");
    m->net_frame_latency = r.RegisterHistogram(
        "irdb_net_frame_latency_ms",
        "Frame service latency: request frame decoded by the executor until "
        "its reply frame is enqueued");
    m->net_outbox_bytes = r.RegisterGauge(
        "irdb_net_outbox_bytes",
        "Reply bytes queued across all connections: what a socket write "
        "left unsent, until it drains or its connection closes",
        "bytes");
    m->net_backpressure_stalls = r.RegisterCounter(
        "irdb_net_backpressure_stalls_total",
        "Read-side pauses because a connection's outbox crossed the high "
        "watermark");
    m->net_idle_disconnects = r.RegisterCounter(
        "irdb_net_idle_disconnects_total",
        "Connections closed by the idle-timeout sweep");
    m->net_protocol_errors = r.RegisterCounter(
        "irdb_net_protocol_errors_total",
        "Corrupt/oversized frames and undecodable requests");
    m->net_session_resets = r.RegisterCounter(
        "irdb_net_session_resets_total",
        "Connections that died on a socket error, a poisoned frame stream, "
        "or EOF not preceded by their own BYE (their wire sessions survive "
        "for reconnects)");

    m->router_stmts_routed = r.RegisterCounter(
        "irdb_router_stmts_routed_total",
        "Statements the shard router forwarded to exactly one shard "
        "(warehouse-keyed or pinned replicated reads)");
    m->router_broadcasts = r.RegisterCounter(
        "irdb_router_broadcasts_total",
        "Statements the shard router scattered to every shard (DDL and "
        "replicated-table writes)");
    m->router_cross_shard_txns = r.RegisterCounter(
        "irdb_router_cross_shard_txns_total",
        "Client transactions that reached COMMIT with two or more "
        "participant shards (two-phase commits attempted)");
    m->router_twopc_commits = r.RegisterCounter(
        "irdb_router_twopc_commits_total",
        "Two-phase commits where every participant branch committed");
    m->router_twopc_aborts = r.RegisterCounter(
        "irdb_router_twopc_aborts_total",
        "Two-phase commits aborted (an unreachable participant at "
        "validation, or a branch commit failure)");
    m->router_deps_merged = r.RegisterCounter(
        "irdb_router_deps_merged_total",
        "Dependency entries injected into participant branches at 2PC: the "
        "merged union plus cross_shard sibling links");
    m->router_wrong_shard_rejects = r.RegisterCounter(
        "irdb_router_wrong_shard_rejects_total",
        "Statements a per-shard endpoint rejected with the [wrong-shard] "
        "retryable tag because their warehouse key belongs to another shard");
    m->router_shard_down_rejects = r.RegisterCounter(
        "irdb_router_shard_down_rejects_total",
        "Statements (and 2PC validations) turned away because the target "
        "shard was marked down/partitioned");

    m->shard_clusters_built = r.RegisterCounter(
        "irdb_shard_clusters_built_total",
        "ShardCluster instances constructed");
    m->shard_repair_runs = r.RegisterCounter(
        "irdb_shard_repair_runs_total",
        "Coordinated cross-shard repairs started "
        "(ShardRepairCoordinator::Repair)");
    m->shard_closure_rounds = r.RegisterCounter(
        "irdb_shard_closure_rounds_total",
        "Frontier-exchange rounds run by cross-shard closure computations "
        "(each round re-seeds every shard's local closure)");
    m->shard_repairs_dispatched = r.RegisterCounter(
        "irdb_shard_repairs_dispatched_total",
        "Per-shard repair legs dispatched by coordinated repairs (offline "
        "compensation, online serve-through, or reenactment)");

    return m;
  }();
  return *metrics;
}

const std::vector<SpanDoc>& SpanCatalog() {
  static const std::vector<SpanDoc>* catalog = new std::vector<SpanDoc>{
      {span::kRepairAnalyze,
       "Whole dependency analysis: scan + correlate over one WAL snapshot. "
       "Parent of the scan and correlate spans; args: records (the "
       "snapshot's length), threads."},
      {span::kRepairScanFlavorRead,
       "The scan: ReadCommitted over the PostgreSQL/Oracle/Sybase view of "
       "the WAL snapshot, read in place; args: ops."},
      {span::kRepairCorrelate,
       "ID correlation, dependency-payload parsing, and graph construction "
       "(analysis passes 1-4)."},
      {span::kRepairClosure,
       "Damage-perimeter closure over the dependency graph; args: seeds, "
       "undo."},
      {span::kRepairCompensate,
       "Selective-undo execution (compensating statements); args: stmts, "
       "lanes."},
      {span::kRepairCompensateLane,
       "One per-table compensation batch lane; args: lane, tables, stmts."},
      {span::kReenact,
       "Whole reenactment repair: analyze + closure + compensate + replay. "
       "Parent of the repair-phase spans and the replay span; args: seeds, "
       "threads."},
      {span::kReenactReplay,
       "Replay phase of one reenactment repair: every planned component, "
       "serial or fanned out; args: txns, components, lanes."},
      {span::kReenactComponent,
       "One kept-edge connected component replayed serially in ascending "
       "proxy-id order (the unit of replay parallelism); args: component, "
       "txns."},
      {span::kQuarantineCompute,
       "Contaminated-partition computation: undo-set ops mapped to fenced "
       "primary keys (each with its enclosing prefix granules), coarsening "
       "to whole tables where the key cannot be named; args: slices, "
       "tables, rounds."},
      {span::kQuarantineHold,
       "Quarantine window of one online repair: install through final "
       "release. Clean traffic keeps flowing; quarantined slices reject with "
       "[quarantine]-tagged kUnavailable; args: slices."},
      {span::kQuarantineRelease,
       "Incremental release of one healed table's slices after its "
       "compensation lane committed; args: table, slices."},
      {span::kPoolParallelFor,
       "One ParallelFor fan-out on a worker pool; args: n, chunks."},
      {span::kPoolChunk,
       "One contiguous chunk of a ParallelFor, on the worker that ran it; "
       "args: chunk, begin, end."},
      {span::kShardClosure,
       "Cross-shard damage-perimeter computation: per-shard analyses, guilty "
       "expansion over cross_shard sibling links, then frontier-exchange "
       "rounds to the fixpoint; args: shards, seeds, guilty, closure, "
       "rounds."},
      {span::kShardRepair,
       "Whole coordinated cross-shard repair: closure computation plus one "
       "repair leg per shard. Parent of the per-shard repair spans; args: "
       "shards, strategy."},
  };
  return *catalog;
}

const std::vector<EventDoc>& EventCatalog() {
  static const std::vector<EventDoc>* catalog = new std::vector<EventDoc>{
      {event::kFailpointTrip, "site",
       "An armed failpoint fired an injected fault."},
      {event::kProxyDegradedCommit, "trid",
       "A transaction committed untracked after its dependency metadata was "
       "lost (DegradedMode::kCommitUntracked). Count always equals "
       "irdb_proxy_degraded_commits_total."},
      {event::kProxyTrackingGap, "trid",
       "A transaction id was quarantined in tracking_gaps. Count always "
       "equals irdb_proxy_tracking_gap_txns_total."},
      {event::kProxyCacheInvalidation, "reason",
       "A connection's plan cache was flushed (DDL)."},
      {event::kWalTornTail, "dropped_bytes",
       "WAL decode truncated a torn final frame and recovered from the "
       "intact prefix."},
      {event::kEngineDeadlockVictim,
       "table, level, requested, held, cause, stmt",
       "A statement's lock request was refused and its transaction rolled "
       "back: the lock's table and level (table, prefix, key), the mode "
       "asked for, the grant being converted from (or -), the cause "
       "(cycle, timeout) and the statement kind."},
      {event::kRepairAnalyzeDone, "records, nodes, edges, gaps",
       "A dependency analysis completed."},
      {event::kRepairDone, "undone, stmts",
       "A selective undo completed."},
      {event::kReenactDone, "closure, replayed, demoted, diverged",
       "A reenactment repair completed: the closure was compensated, "
       "`replayed` innocents were re-executed, `demoted` stayed undone "
       "(`diverged` of them because replay diverged)."},
      {event::kReenactDemoted, "trid, reason",
       "A closure transaction was demoted to undo instead of replayed; "
       "reason is tracking_gap, no_journal, diverged, downstream, or "
       "replay_failed."},
      {event::kQuarantineInstalled, "slices, tables, round",
       "An online repair installed (or extended) the quarantine over the "
       "contaminated partition."},
      {event::kQuarantineReleased, "table, slices, remaining",
       "An online repair released a healed table's slices; remaining is the "
       "quarantine's slice count after the release."},
      {event::kNetSessionReset, "conn",
       "A TCP connection died on a socket error, a poisoned frame stream, or "
       "EOF not preceded by its own BYE. Its wire session (and any open "
       "transaction) survives for a reconnecting client."},
      {event::kNetIdleDisconnect, "conn",
       "The idle-timeout sweep closed a quiet TCP connection."},
      {event::kShardRepairDone, "shards, guilty, closure, rounds, undone",
       "A coordinated cross-shard repair completed: the global closure was "
       "computed in `rounds` frontier-exchange rounds and every shard's "
       "repair leg finished; `undone` sums what stayed undone across "
       "shards."},
  };
  return *catalog;
}

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string RenderMetricsDoc() {
  // Force registration so the Default registry holds the whole catalog.
  (void)Metrics::Get();
  std::string out;
  out +=
      "# Metrics, spans, and journal events\n"
      "\n"
      "> **GENERATED FILE — do not edit.** This reference is rendered from\n"
      "> the observability catalog (`src/obs/catalog.cc`) by\n"
      "> `tools/gen_metrics_doc`; `tools/check_docs.sh` (ctest label `docs`)\n"
      "> fails when this file and the catalog diverge. Regenerate with:\n"
      ">\n"
      "> ```sh\n"
      "> build/tools/gen_metrics_doc --out docs/metrics.md\n"
      "> ```\n"
      "\n"
      "All series live on the process-wide registry\n"
      "(`irdb::obs::MetricsRegistry::Default()`); export them as Prometheus\n"
      "text with `RenderPrometheus()` or `build/tools/irdb_metrics_dump`.\n"
      "Span timelines export as Chrome `trace_event` JSON\n"
      "(`SpanTracer::RenderChromeTrace()`), and the journal as JSON lines.\n"
      "See [architecture.md](architecture.md) for where each subsystem sits\n"
      "in the pipeline.\n"
      "\n"
      "## Metrics\n"
      "\n"
      "Histograms use the shared latency bucket boundaries (ms): ";
  for (int i = 0; i < kNumFiniteBuckets; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%g", i ? ", " : "",
                  kLatencyBucketUpperMs[i]);
    out += buf;
  }
  out +=
      ", +Inf.\n"
      "\n"
      "| name | kind | unit | description |\n"
      "|---|---|---|---|\n";
  for (const MetricSnapshot& s : MetricsRegistry::Default().Snapshot()) {
    out += "| `" + s.def.name + "` | " + KindName(s.def.kind) + " | " +
           s.def.unit + " | " + s.def.help + " |\n";
  }
  out +=
      "\n"
      "## Spans\n"
      "\n"
      "Recorded through `irdb::obs::Span` on the default tracer; nesting is\n"
      "by time containment per thread (`tid`), which is how the Chrome trace\n"
      "viewer renders the flame graph. Repair-phase span durations are the\n"
      "same measurements `RepairPhaseStats` accumulates, so the span tree\n"
      "always sums to the phase totals.\n"
      "\n"
      "| span | description |\n"
      "|---|---|\n";
  for (const SpanDoc& s : SpanCatalog()) {
    out += std::string("| `") + s.name + "` | " + s.description + " |\n";
  }
  out +=
      "\n"
      "## Journal events\n"
      "\n"
      "Appended to `irdb::obs::EventJournal::Default()`. The ring buffer\n"
      "keeps the most recent events, but per-type counts are exact forever\n"
      "(`CountType`), so the invariants below hold under any buffer\n"
      "pressure.\n"
      "\n"
      "| event | fields | description |\n"
      "|---|---|---|\n";
  for (const EventDoc& e : EventCatalog()) {
    out += std::string("| `") + e.name + "` | " +
           (e.fields[0] == '\0' ? "—" : e.fields) + " | " + e.description +
           " |\n";
  }
  return out;
}

}  // namespace irdb::obs
