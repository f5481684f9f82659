// irdb_metrics_dump — exercise the full pipeline once and dump every
// observability export surface for inspection:
//
//   PREFIX.prom          Prometheus text exposition (all catalog series)
//   PREFIX.trace.json    Chrome trace_event JSON (chrome://tracing, Perfetto)
//   PREFIX.journal.jsonl structured event journal, one JSON object per line
//
// The workload is the bank scenario from repair_e2e_test: setup, a balance
// inflation attack, one dependent and one independent transaction, then a
// full selective repair (analyze -> closure -> compensate). Before writing,
// the tool self-checks the exports:
//   - every non-comment Prometheus line parses as `name[{labels}] value`;
//   - the repair span durations in the trace sum to the RepairPhaseStats
//     wall totals (the consistency contract obs_test asserts).
//
// Flags: --prefix=PATH (default irdb_metrics).
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "core/resilient_db.h"
#include "obs/catalog.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace irdb {
namespace {

bool Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "statement failed: %s -> %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    return false;
  }
  return true;
}

bool RunBankWorkload(DbConnection* conn) {
  return Must(conn,
              "CREATE TABLE account (id INTEGER NOT NULL, owner VARCHAR(16),"
              " balance DOUBLE)") &&
         Must(conn, "BEGIN") &&
         (conn->SetAnnotation("Setup"),
          Must(conn,
               "INSERT INTO account(id, owner, balance) VALUES"
               " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)")) &&
         Must(conn, "COMMIT") && Must(conn, "BEGIN") &&
         (conn->SetAnnotation("Attack"),
          Must(conn,
               "UPDATE account SET balance = balance + 1000 WHERE id = 1")) &&
         Must(conn, "COMMIT") && Must(conn, "BEGIN") &&
         (conn->SetAnnotation("Dependent"),
          Must(conn, "SELECT balance FROM account WHERE id = 1")) &&
         Must(conn,
              "UPDATE account SET balance = balance - 50 WHERE id = 1") &&
         Must(conn, "COMMIT") && Must(conn, "BEGIN") &&
         (conn->SetAnnotation("Independent"),
          Must(conn,
               "UPDATE account SET balance = balance + 7 WHERE id = 3")) &&
         Must(conn, "COMMIT");
}

// Every non-comment, non-empty line must be `name[{labels}] value` with a
// numeric value — the shape Prometheus' text parser accepts.
bool PrometheusParses(const std::string& text, int* series_out) {
  int series = 0;
  size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      std::fprintf(stderr, "prom line %d: no value separator: %s\n", lineno,
                   line.c_str());
      return false;
    }
    const std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    char first = name[0];
    if (!std::isalpha(static_cast<unsigned char>(first)) && first != '_') {
      std::fprintf(stderr, "prom line %d: bad metric name: %s\n", lineno,
                   line.c_str());
      return false;
    }
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || (*end != '\0' && std::strcmp(end, "\r") != 0)) {
      if (value != "+Inf" && value != "-Inf" && value != "NaN") {
        std::fprintf(stderr, "prom line %d: non-numeric value: %s\n", lineno,
                     line.c_str());
        return false;
      }
    }
    ++series;
  }
  *series_out = series;
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

int Main(int argc, char** argv) {
  std::string prefix = "irdb_metrics";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--prefix=", 9) == 0) {
      prefix = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--prefix=PATH]\n", argv[0]);
      return 2;
    }
  }

  // --- workload + attack + repair -----------------------------------------
  DeploymentOptions opts;
  ResilientDb rdb(opts);
  if (!rdb.Bootstrap().ok()) return 1;
  auto conn = rdb.Connect();
  if (!conn.ok()) return 1;
  if (!RunBankWorkload(conn->get())) return 1;

  obs::SpanTracer::Default().Clear();
  auto analysis = rdb.repair().Analyze();
  if (!analysis.ok()) {
    std::fprintf(stderr, "analyze failed: %s\n",
                 analysis.status().ToString().c_str());
    return 1;
  }
  int64_t attack = -1;
  for (int64_t node : analysis->graph.nodes()) {
    if (analysis->graph.Label(node) == "Attack") attack = node;
  }
  if (attack < 0) {
    std::fprintf(stderr, "attack transaction not found in the graph\n");
    return 1;
  }
  std::set<int64_t> undo = rdb.repair().ComputeUndoSet(
      *analysis, {attack}, repair::DbaPolicy::TrackEverything());
  auto report = rdb.repair().CompensateUndoSet(*analysis, undo);
  if (!report.ok()) {
    std::fprintf(stderr, "repair failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("workload + repair done: %zu txns undone, %lld stmts\n",
              report->undo_set.size(),
              static_cast<long long>(report->ops_compensated));

  // --- self-check 1: span durations sum to RepairPhaseStats ---------------
  std::map<std::string, double> span_ms;
  for (const obs::SpanEvent& e : obs::SpanTracer::Default().Snapshot()) {
    span_ms[e.name] += static_cast<double>(e.dur_us) / 1000.0;
  }
  const repair::RepairPhaseStats& ph = rdb.repair().phase_stats();
  const double tol = 0.01;  // spans round to whole microseconds once
  struct Check {
    const char* what;
    double phase_ms;
    double spans_ms;
  } checks[] = {
      {"scan", ph.scan_wall_ms, span_ms["repair.scan.flavor_read"]},
      {"correlate", ph.correlate_wall_ms, span_ms["repair.correlate"]},
      {"closure", ph.closure_wall_ms, span_ms["repair.closure"]},
      {"compensate", ph.compensate_wall_ms, span_ms["repair.compensate"]},
  };
  for (const Check& c : checks) {
    if (c.phase_ms - c.spans_ms > tol || c.spans_ms - c.phase_ms > tol) {
      std::fprintf(stderr,
                   "FAIL: %s spans sum %.4f ms != phase stats %.4f ms\n",
                   c.what, c.spans_ms, c.phase_ms);
      return 1;
    }
    std::printf("check %-10s spans %.3f ms == phases %.3f ms\n", c.what,
                c.spans_ms, c.phase_ms);
  }

  // --- self-check 2 + dump ------------------------------------------------
  const std::string prom = ResilientDb::ExportPrometheus();
  int series = 0;
  if (!PrometheusParses(prom, &series)) return 1;
  std::printf("check prometheus: %d samples parse\n", series);

  if (!WriteFile(prefix + ".prom", prom)) return 1;
  if (!WriteFile(prefix + ".trace.json", ResilientDb::ExportChromeTrace())) {
    return 1;
  }
  if (!WriteFile(prefix + ".journal.jsonl", ResilientDb::ExportJournalJsonl())) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace irdb

int main(int argc, char** argv) { return irdb::Main(argc, argv); }
