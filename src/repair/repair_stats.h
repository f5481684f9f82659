// Per-phase accounting for the repair pipeline (DESIGN.md §5c).
//
// Each phase records two durations:
//   - wall:  measured on the machine running the experiment;
//   - sim:   the deterministic virtual-clock charge for the disk-bound work
//            the 2004 testbed would have performed (DESIGN.md §4a) — log
//            reads during the scan, random page I/O per compensating
//            statement. Parallel phases charge the *maximum* over their
//            lanes (lanes proceed concurrently on independent spindles);
//            serial runs charge the sum. The charge is a pure function of
//            (workload, thread count), so reported speedups are
//            reproducible on any host.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

namespace irdb::repair {

// Simulated costs, scaled to engine/io_model.h's 2004-class device.
// Scanning dominates: repair must read and decode the *entire* log
// (sequential I/O plus per-record image reconstruction — the Oracle flavor
// renders SQL text, the Sybase flavor replays page offsets), while each
// compensating statement is a rowid-addressed lookup (index walk, mostly
// cache-resident after the scan) plus a log append.
struct RepairCostParams {
  double scan_record_seconds = 4.0e-4;      // per log record
  double scan_byte_seconds = 6.0e-7;        // per image byte (sequential read)
  double compensate_stmt_seconds = 1.0e-3;  // per compensating statement
};

struct RepairPhaseStats {
  int threads = 1;

  double scan_wall_ms = 0;
  double scan_sim_ms = 0;
  double correlate_wall_ms = 0;
  double closure_wall_ms = 0;
  double compensate_wall_ms = 0;
  double compensate_sim_ms = 0;
  double replay_wall_ms = 0;  // reenactment only (0 under undo-only)

  int64_t records_scanned = 0;
  int64_t image_bytes_scanned = 0;
  int scan_segments = 1;      // chunks the log was split into
  int compensate_lanes = 1;   // per-table compensation lanes
  int64_t compensate_stmts = 0;
  int64_t replay_stmts = 0;    // journaled statements re-executed
  int replay_components = 0;   // independent subgraphs replayed

  double total_wall_ms() const {
    return scan_wall_ms + correlate_wall_ms + closure_wall_ms +
           compensate_wall_ms + replay_wall_ms;
  }
  double total_sim_ms() const { return scan_sim_ms + compensate_sim_ms; }
  // The headline metric: wall + virtual clock, as in ResilientDb's
  // TotalSeconds.
  double total_ms() const { return total_wall_ms() + total_sim_ms(); }

  std::string ToString() const {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "repair phases (threads=%d): scan %.2f ms wall + %.2f ms sim "
        "(%lld records, %lld image bytes, %d segments) | correlate %.2f ms | "
        "closure %.2f ms | compensate %.2f ms wall + %.2f ms sim "
        "(%lld stmts, %d lanes) | replay %.2f ms (%lld stmts, "
        "%d components) | total %.2f ms",
        threads, scan_wall_ms, scan_sim_ms,
        static_cast<long long>(records_scanned),
        static_cast<long long>(image_bytes_scanned), scan_segments,
        correlate_wall_ms, closure_wall_ms, compensate_wall_ms,
        compensate_sim_ms, static_cast<long long>(compensate_stmts),
        compensate_lanes, replay_wall_ms,
        static_cast<long long>(replay_stmts), replay_components, total_ms());
    return std::string(buf);
  }
};

}  // namespace irdb::repair
