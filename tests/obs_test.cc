// Observability layer (src/obs): registry exactness under concurrency,
// Prometheus/Chrome-trace/journal rendering, and the pipeline-level
// consistency contracts — registry counters mirror ProxyStats, repair span
// durations sum to RepairPhaseStats, journal per-type counts match their
// paired counters, recovery counts no WAL appends it did not make.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/resilient_db.h"
#include "engine/recovery.h"
#include "obs/catalog.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/wal_codec.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace irdb {
namespace {

using obs::EventJournal;
using obs::MetricsRegistry;
using obs::SpanTracer;

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  obs::MetricId a = reg.RegisterCounter("test_total", "a test counter");
  obs::MetricId b = reg.RegisterCounter("test_total", "a test counter");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.def_index, b.def_index);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_EQ(reg.Find("test_total").def_index, a.def_index);
  EXPECT_FALSE(reg.Find("no_such_metric").valid());
}

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry reg;
  obs::MetricId c = reg.RegisterCounter("c_total", "counter");
  obs::MetricId g = reg.RegisterGauge("g", "gauge");
  reg.Count(c);
  reg.Count(c, 41);
  reg.SetGauge(g, 7);
  EXPECT_EQ(reg.CounterValue(c), 42);
  EXPECT_EQ(reg.CounterValue(g), 7);
  reg.SetGauge(g, 3);
  EXPECT_EQ(reg.CounterValue(g), 3);  // last writer wins
  reg.AddGauge(g, 2);
  EXPECT_EQ(reg.CounterValue(g), 5);
  reg.Reset();
  EXPECT_EQ(reg.CounterValue(c), 0);
  EXPECT_EQ(reg.CounterValue(g), 0);
}

TEST(MetricsRegistryTest, HistogramBucketsCountAndSum) {
  MetricsRegistry reg;
  obs::MetricId h = reg.RegisterHistogram("h_ms", "latency");
  reg.Observe(h, 0.0005);  // -> le=0.001
  reg.Observe(h, 0.003);   // -> le=0.005
  reg.Observe(h, 2.0);     // -> le=5
  reg.Observe(h, 5000.0);  // -> +Inf
  obs::HistogramSnapshot snap = reg.HistogramValue(h);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.buckets[0], 1);                         // 0.001
  EXPECT_EQ(snap.buckets[1], 1);                         // 0.005
  EXPECT_EQ(snap.buckets[7], 1);                         // 5.0
  EXPECT_EQ(snap.buckets[obs::kNumFiniteBuckets], 1);    // +Inf
  // sum is kept in integer microseconds (llround per observation).
  EXPECT_EQ(snap.sum_us, 1 + 3 + 2000 + 5000000);
}

// The tentpole concurrency property: shard-per-thread with aggregate-on-read
// is EXACT. Hammer one counter and one histogram from every pool lane and
// require the precise totals — no lost updates, no double counting.
TEST(MetricsRegistryTest, ParallelHammerAggregatesExactly) {
  MetricsRegistry reg;
  obs::MetricId c = reg.RegisterCounter("hammer_total", "hammered counter");
  obs::MetricId h = reg.RegisterHistogram("hammer_ms", "hammered histogram");
  constexpr int64_t kN = 200000;
  {
    util::ThreadPool pool(8);
    pool.ParallelFor(kN, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) {
        reg.Count(c);
        reg.Observe(h, 0.001 * static_cast<double>(i % 3));  // 0, 1, or 2 us
      }
    });
  }  // pool joined: every worker's shard is fully published
  EXPECT_EQ(reg.CounterValue(c), kN);
  obs::HistogramSnapshot snap = reg.HistogramValue(h);
  EXPECT_EQ(snap.count, kN);
  int64_t expected_sum_us = 0;
  for (int64_t i = 0; i < kN; ++i) expected_sum_us += i % 3;
  EXPECT_EQ(snap.sum_us, expected_sum_us);
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kN);
}

TEST(MetricsRegistryTest, PrometheusRendering) {
  MetricsRegistry reg;
  obs::MetricId c = reg.RegisterCounter("prom_total", "counter help");
  obs::MetricId g = reg.RegisterGauge("prom_gauge", "gauge help");
  obs::MetricId h = reg.RegisterHistogram("prom_ms", "histogram help");
  reg.Count(c, 3);
  reg.SetGauge(g, -2);
  reg.Observe(h, 0.003);
  reg.Observe(h, 0.004);
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP prom_total counter help\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("prom_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("prom_gauge -2\n"), std::string::npos);
  // Buckets are cumulative: both observations land in le="0.005" and stay
  // counted through +Inf.
  EXPECT_NE(text.find("prom_ms_bucket{le=\"0.001\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("prom_ms_bucket{le=\"0.005\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("prom_ms_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("prom_ms_sum 0.007000\n"), std::string::npos);
  EXPECT_NE(text.find("prom_ms_count 2\n"), std::string::npos);
  // Deterministic: rendering twice gives identical text.
  EXPECT_EQ(text, reg.RenderPrometheus());
}

TEST(SpanTest, MeasuresEvenWhenDisabledAndRecordsWhenEnabled) {
  SpanTracer& tracer = SpanTracer::Default();
  tracer.Clear();
  tracer.set_enabled(false);
  {
    obs::Span s("test.disabled");
    EXPECT_GE(s.End(), 0.0);  // measurement is always valid
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.set_enabled(true);
  double recorded;
  {
    obs::Span s("test.enabled");
    s.AddArg("lane", 3);
    s.AddArg("mode", "x");
    recorded = s.End();
    EXPECT_EQ(s.End(), recorded);  // idempotent, same value
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.enabled");
  EXPECT_EQ(events[0].dur_us, std::llround(recorded * 1000.0));
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "lane");
  EXPECT_EQ(events[0].args[0].second, "3");
}

TEST(SpanTest, ChromeTraceRendering) {
  SpanTracer& tracer = SpanTracer::Default();
  tracer.Clear();
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
  }
  std::string json = tracer.RenderChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Nesting by time containment on one thread: inner starts at or after
  // outer and ends at or before it.
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const obs::SpanEvent* in = &events[0];
  const obs::SpanEvent* out = &events[1];
  if (in->name != "inner") std::swap(in, out);
  EXPECT_EQ(in->tid, out->tid);
  EXPECT_GE(in->start_us, out->start_us);
  EXPECT_LE(in->start_us + in->dur_us, out->start_us + out->dur_us);
  tracer.Clear();
}

TEST(EventJournalTest, RingEvictionKeepsExactTypeCounts) {
  EventJournal journal;
  const int64_t total = static_cast<int64_t>(EventJournal::kMaxEvents) + 500;
  for (int64_t i = 0; i < total; ++i) {
    journal.Append(i % 2 == 0 ? "type.even" : "type.odd",
                   {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(journal.total_appended(), total);
  EXPECT_EQ(journal.dropped(), 500);
  EXPECT_EQ(journal.Snapshot().size(), EventJournal::kMaxEvents);
  // Exact per-type counts survive ring eviction.
  EXPECT_EQ(journal.CountType("type.even") + journal.CountType("type.odd"),
            total);
  EXPECT_EQ(journal.CountType("type.missing"), 0);
  // The retained tail is the most recent events, in order.
  auto tail = journal.Snapshot();
  EXPECT_EQ(tail.front().seq, total - static_cast<int64_t>(tail.size()) + 1);
  EXPECT_EQ(tail.back().seq, total);
  std::string jsonl = journal.RenderJsonl();
  EXPECT_NE(jsonl.find("\"type\":\"type.odd\""), std::string::npos);
}

TEST(CatalogTest, MetricsDocIsDeterministic) {
  std::string doc = obs::RenderMetricsDoc();
  EXPECT_EQ(doc, obs::RenderMetricsDoc());
  // Every catalog metric appears in the doc.
  for (const obs::MetricSnapshot& s : MetricsRegistry::Default().Snapshot()) {
    EXPECT_NE(doc.find("`" + s.def.name + "`"), std::string::npos)
        << s.def.name;
  }
  EXPECT_NE(doc.find("`repair.closure`"), std::string::npos);
  EXPECT_NE(doc.find("`failpoint.trip`"), std::string::npos);
}

// ---------------------------------------------------------------- pipeline

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

// Runs the bank scenario from repair_e2e_test: setup, attack, one dependent
// and one independent transaction.
void RunBankWorkload(DbConnection* conn) {
  Must(conn,
       "CREATE TABLE account (id INTEGER NOT NULL, owner VARCHAR(16),"
       " balance DOUBLE)");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Setup");
  Must(conn,
       "INSERT INTO account(id, owner, balance) VALUES"
       " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)");
  Must(conn, "COMMIT");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Attack");
  Must(conn, "UPDATE account SET balance = balance + 1000 WHERE id = 1");
  Must(conn, "COMMIT");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Dependent");
  Must(conn, "SELECT balance FROM account WHERE id = 1");
  Must(conn, "UPDATE account SET balance = balance - 50 WHERE id = 1");
  Must(conn, "COMMIT");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Independent");
  Must(conn, "UPDATE account SET balance = balance + 7 WHERE id = 3");
  Must(conn, "COMMIT");
}

int64_t FindByLabel(const repair::DependencyAnalysis& analysis,
                    const std::string& label) {
  for (int64_t node : analysis.graph.nodes()) {
    if (analysis.graph.Label(node) == label) return node;
  }
  return -1;
}

// Registry counters are live mirrors of the ProxyStats struct: across a
// workload on one proxy (the only proxy running), the registry deltas agree
// exactly with the struct the proxy keeps locally.
TEST(PipelineObsTest, RegistryMirrorsProxyStats) {
  const obs::Metrics& m = obs::Metrics::Get();

  Database db(FlavorTraits::Postgres());
  DirectConnection direct(&db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, FlavorTraits::Postgres());
  ASSERT_TRUE(proxy.EnsureTrackingTables().ok());

  // Baselines after table setup: everything from here on is the workload.
  const proxy::ProxyStats base = proxy.stats();
  const int64_t client0 = obs::CounterValue(m.proxy_client_statements);
  const int64_t backend0 = obs::CounterValue(m.proxy_backend_statements);
  const int64_t deps0 = obs::CounterValue(m.proxy_deps_recorded);
  const int64_t tdeps0 = obs::CounterValue(m.proxy_trans_dep_inserts);
  const int64_t hits0 = obs::CounterValue(m.proxy_plan_cache_hits);
  const int64_t misses0 = obs::CounterValue(m.proxy_plan_cache_misses);
  const int64_t lat0 = obs::MetricsRegistry::Default()
                           .HistogramValue(m.proxy_statement_latency)
                           .count;

  ASSERT_TRUE(
      proxy.Execute("CREATE TABLE acct (id INTEGER NOT NULL, v INTEGER)")
          .ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(proxy.Execute("BEGIN").ok());
    ASSERT_TRUE(
        proxy.Execute("INSERT INTO acct(id, v) VALUES (1, 10)").ok());
    ASSERT_TRUE(proxy.Execute("SELECT v FROM acct WHERE id = 1").ok());
    ASSERT_TRUE(proxy.Execute("COMMIT").ok());
  }

  const proxy::ProxyStats st = proxy.stats();
  EXPECT_EQ(obs::CounterValue(m.proxy_client_statements) - client0,
            st.client_statements - base.client_statements);
  EXPECT_EQ(obs::CounterValue(m.proxy_backend_statements) - backend0,
            st.backend_statements - base.backend_statements);
  EXPECT_EQ(obs::CounterValue(m.proxy_deps_recorded) - deps0,
            st.deps_recorded - base.deps_recorded);
  EXPECT_EQ(obs::CounterValue(m.proxy_trans_dep_inserts) - tdeps0,
            st.trans_dep_inserts - base.trans_dep_inserts);
  EXPECT_EQ(obs::CounterValue(m.proxy_plan_cache_hits) - hits0,
            st.cache_hits - base.cache_hits);
  EXPECT_EQ(obs::CounterValue(m.proxy_plan_cache_misses) - misses0,
            st.cache_misses - base.cache_misses);
  // The statement latency histogram saw every client statement.
  EXPECT_EQ(obs::MetricsRegistry::Default()
                    .HistogramValue(m.proxy_statement_latency)
                    .count -
                lat0,
            st.client_statements - base.client_statements);
}

// The span-tree/phase-stats contract: each repair phase's wall time in
// RepairPhaseStats is the same measurement recorded in the trace, so the
// per-phase span durations sum (to within the 1us-per-span rounding of
// dur_us) to the phase totals.
TEST(PipelineObsTest, RepairSpanDurationsSumToPhaseStats) {
  for (int threads : {1, 4}) {
    DeploymentOptions opts;
    opts.repair_threads = threads;
    ResilientDb rdb(opts);
    ASSERT_TRUE(rdb.Bootstrap().ok());
    auto conn = rdb.Connect();
    ASSERT_TRUE(conn.ok());
    RunBankWorkload(conn->get());

    SpanTracer::Default().Clear();
    auto analysis = rdb.repair().Analyze();
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const int64_t attack = FindByLabel(*analysis, "Attack");
    ASSERT_GT(attack, 0);
    std::set<int64_t> undo = rdb.repair().ComputeUndoSet(
        *analysis, {attack}, repair::DbaPolicy::TrackEverything());
    auto report = rdb.repair().CompensateUndoSet(*analysis, undo);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    std::map<std::string, double> span_ms;
    for (const obs::SpanEvent& e : SpanTracer::Default().Snapshot()) {
      span_ms[e.name] += static_cast<double>(e.dur_us) / 1000.0;
    }
    const repair::RepairPhaseStats& ph = rdb.repair().phase_stats();
    const double scan_spans = span_ms["repair.scan.flavor_read"];
    // Each span rounds its duration to whole microseconds once.
    const double tol = 0.01;
    EXPECT_NEAR(ph.scan_wall_ms, scan_spans, tol) << "threads=" << threads;
    EXPECT_NEAR(ph.correlate_wall_ms, span_ms["repair.correlate"], tol);
    EXPECT_NEAR(ph.closure_wall_ms, span_ms["repair.closure"], tol);
    EXPECT_NEAR(ph.compensate_wall_ms, span_ms["repair.compensate"], tol);
    // The parent analyze span contains its scan + correlate children.
    EXPECT_GE(span_ms["repair.analyze"] + tol, scan_spans +
                                                   span_ms["repair.correlate"]);
  }
}

// Recovery reads a log without appending to it: irdb_wal_appends_total
// moves only by what the recovered instance's own fresh log receives (the
// catalog DDL it replays), never by the replayed records.
TEST(PipelineObsTest, RecoveryDoesNotCountReplayedRecordsAsAppends) {
  const obs::Metrics& m = obs::Metrics::Get();
  Database db(FlavorTraits::Postgres());
  DirectConnection conn(&db);
  RunBankWorkload(&conn);
  const std::string bytes = SerializeWal(db.wal());

  const int64_t appends0 = obs::CounterValue(m.wal_appends);
  WalRecoveryInfo info;
  auto recovered = RecoverDatabaseFromBytes(bytes, db.traits(), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(info.records_recovered, db.wal().size());
  EXPECT_EQ(obs::CounterValue(m.wal_appends) - appends0,
            (*recovered)->wal().size());

  const int64_t appends1 = obs::CounterValue(m.wal_appends);
  auto from_log = RecoverDatabase(db.wal(), db.traits());
  ASSERT_TRUE(from_log.ok()) << from_log.status().ToString();
  EXPECT_EQ(obs::CounterValue(m.wal_appends) - appends1,
            (*from_log)->wal().size());
}

// Degraded commits and tracking gaps: each counter always equals the exact
// journal count of its paired event type (both are incremented at the same
// site, and journal type counts survive ring eviction). Force one degraded
// commit by failing the trans_dep insert persistently.
TEST(PipelineObsTest, DegradedCommitAppearsInCountersAndJournal) {
  const obs::Metrics& m = obs::Metrics::Get();
  EventJournal& journal = EventJournal::Default();
  const int64_t deg0 = obs::CounterValue(m.proxy_degraded_commits);
  const int64_t deg_j0 = journal.CountType(obs::event::kProxyDegradedCommit);
  const int64_t gap0 = obs::CounterValue(m.proxy_tracking_gap_txns);
  const int64_t gap_j0 = journal.CountType(obs::event::kProxyTrackingGap);

  Database db(FlavorTraits::Postgres());
  DirectConnection direct(&db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, FlavorTraits::Postgres());
  ASSERT_TRUE(proxy.EnsureTrackingTables().ok());
  proxy.set_degraded_mode(proxy::DegradedMode::kCommitUntracked);
  ASSERT_TRUE(
      proxy.Execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER)").ok());

  ASSERT_TRUE(proxy.Execute("BEGIN").ok());
  ASSERT_TRUE(proxy.Execute("INSERT INTO t(id, v) VALUES (1, 1)").ok());
  fail::Registry::Instance().Arm("proxy.commit.trans_dep",
                                 fail::Trigger::Probability(1.0));
  auto commit = proxy.Execute("COMMIT");
  fail::Registry::Instance().Disarm("proxy.commit.trans_dep");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();

  EXPECT_EQ(proxy.stats().degraded_commits, 1);
  EXPECT_EQ(obs::CounterValue(m.proxy_degraded_commits) - deg0, 1);
  EXPECT_EQ(journal.CountType(obs::event::kProxyDegradedCommit) - deg_j0, 1);
  EXPECT_EQ(obs::CounterValue(m.proxy_tracking_gap_txns) - gap0, 1);
  EXPECT_EQ(journal.CountType(obs::event::kProxyTrackingGap) - gap_j0, 1);
}

TEST(PipelineObsTest, FailpointTripsAreCounted) {
  const obs::Metrics& m = obs::Metrics::Get();
  const int64_t trips0 = obs::CounterValue(m.failpoint_trips);
  const int64_t journal0 =
      EventJournal::Default().CountType(obs::event::kFailpointTrip);

  fail::Registry::Instance().Seed(7);
  fail::Registry::Instance().Arm("obs.test.site",
                                 fail::Trigger::EveryNth(2));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fail::Triggered("obs.test.site")) ++fired;
  }
  fail::Registry::Instance().Disarm("obs.test.site");
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(obs::CounterValue(m.failpoint_trips) - trips0, fired);
  EXPECT_EQ(EventJournal::Default().CountType(obs::event::kFailpointTrip) -
                journal0,
            fired);
}

// Global invariant, robust to everything earlier tests did: the degraded
// commit / tracking gap counters always equal their journal type counts.
TEST(PipelineObsTest, DegradedCountersAlwaysMatchJournal) {
  const obs::Metrics& m = obs::Metrics::Get();
  EXPECT_EQ(obs::CounterValue(m.proxy_degraded_commits),
            EventJournal::Default().CountType(obs::event::kProxyDegradedCommit));
  EXPECT_EQ(obs::CounterValue(m.proxy_tracking_gap_txns),
            EventJournal::Default().CountType(obs::event::kProxyTrackingGap));
}

}  // namespace
}  // namespace irdb
