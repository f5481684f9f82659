// Seeded chaos harness over the full tracked stack (DESIGN.md §5b).
//
// Drives engine -> wire server -> faulty loopback channel -> retrying remote
// client -> tracking proxy under randomized request-loss faults and checks
// the invariants the fault model promises:
//
//   A. tracking completeness — every transaction the client saw COMMIT OK
//      for either has its exact dependency set in trans_dep or (under
//      DegradedMode::kCommitUntracked only) is quarantined in tracking_gaps;
//      no metadata row survives from an aborted transaction;
//   B. WAL durability — the durable codec round-trips the whole log
//      byte-exactly, and a torn final frame truncates to the intact prefix;
//   C. repair soundness — post-chaos state equals a fault-free replay of
//      exactly the committed transactions (atomicity), and post-repair state
//      equals the same replay with the undo set omitted.
//
// Everything is derived from one seed (--seed=N, or IRDB_CHAOS_SEED, default
// below); the seed is printed on startup and with every failure so any run
// can be replayed exactly.
//
// Not a gtest binary: a violation prints the seed and exits non-zero, which
// is what tools/run_chaos.sh and the `chaos` ctest label consume.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/lock_manager.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/catalog.h"
#include "obs/journal.h"
#include "proxy/tracking_proxy.h"
#include "repair/dba_policy.h"
#include "repair/repair_engine.h"
#include "shard/shard_cluster.h"
#include "shard/shard_repair.h"
#include "shard/shard_router.h"
#include "tpcc/loader.h"
#include "tpcc/workload.h"
#include "txn/wal_codec.h"
#include "util/failpoint.h"
#include "util/string_utils.h"
#include "wire/channel.h"
#include "wire/client.h"
#include "wire/server.h"

namespace irdb {
namespace {

uint64_t g_seed = 0;

// Aggregate fault counters across every iteration; the harness refuses to
// pass if nothing ever fired (an inert harness proves nothing).
int64_t g_dropped_round_trips = 0;
int64_t g_retries = 0;
int64_t g_injected = 0;
int64_t g_degraded_commits = 0;
int64_t g_gap_txns = 0;
int64_t g_deadlock_client_retries = 0;
int64_t g_quarantine_rejects = 0;
int64_t g_shard_down_rejects = 0;

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "chaos: FAILED (seed %llu): %s\n",
               static_cast<unsigned long long>(g_seed), msg.c_str());
  std::exit(1);
}

void Require(bool cond, const std::string& msg) {
  if (!cond) Fail(msg);
}

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  Require(r.ok(), sql + " -> " + r.status().ToString());
  return std::move(r).value();
}

// Index ≡ heap-scan oracle: for every table, every live row must be
// reachable through each of its indexes at its exact RowLoc, and each index
// must hold exactly one entry per live row (no stale tombstone entries, no
// losses). Run before and after repairs — compensation rewrites rows through
// the same maintenance paths the workload uses, so a divergence here means
// an index would silently change query answers.
void RequireIndexesMatchHeap(Database* db, const std::string& when) {
  for (const std::string& name : db->catalog().TableNames()) {
    const HeapTable* table = db->catalog().Find(name);
    Require(table != nullptr, "index oracle: table vanished: " + name);
    std::vector<const TableIndex*> indexes;
    if (table->index() != nullptr) indexes.push_back(table->index());
    for (const auto& sec : table->secondary_indexes()) {
      indexes.push_back(sec.get());
    }
    if (indexes.empty()) continue;
    const RowCodec& codec = table->codec();
    int64_t rows = 0;
    table->Scan([&](RowLoc loc, std::string_view bytes) {
      ++rows;
      for (const TableIndex* index : indexes) {
        std::string key;
        for (int c : index->key_columns()) {
          auto v = codec.DecodeColumn(bytes, static_cast<size_t>(c));
          Require(v.ok(), "index oracle: undecodable key column in " + name);
          AppendEncodedKeyValue(*v, &key);
        }
        bool found = false;
        for (auto r = index->Scan(key, key); r.Valid(); r.Next()) {
          found |= r.loc() == loc;
        }
        Require(found, "index oracle (" + when + "): live row in " + name +
                           " unreachable through an index");
      }
    });
    for (const TableIndex* index : indexes) {
      Require(static_cast<int64_t>(index->entry_count()) == rows,
              "index oracle (" + when + "): " + name + " index holds " +
                  std::to_string(index->entry_count()) + " entries for " +
                  std::to_string(rows) + " live rows");
    }
  }
}

// The deployment under test. Construction happens with faults disarmed.
struct ChaosStack {
  explicit ChaosStack(proxy::DegradedMode mode)
      : db(FlavorTraits::Postgres()),
        server(&db),
        channel([this](std::string_view req) { return server.Handle(req); },
                LatencyParams::Local(), &db.io_model().clock()) {
    auto remote_or = RemoteConnection::Connect(&channel);
    IRDB_CHECK(remote_or.ok());
    remote = std::move(remote_or).value();
    proxy = std::make_unique<proxy::TrackingProxy>(remote.get(), &alloc,
                                                   FlavorTraits::Postgres());
    proxy->set_retry_clock(&db.io_model().clock());
    proxy->set_degraded_mode(mode);
    IRDB_CHECK(proxy->EnsureTrackingTables().ok());
  }

  // Faults must be disarmed before checks and before destruction (the remote
  // connection's parting disconnect should not be dropped); the backend
  // session may still hold a transaction whose ROLLBACK was lost — flush it
  // so uncommitted work cannot leak into the invariant checks.
  void Quiesce() {
    fail::Registry::Instance().DisarmAll();
    (void)remote->Execute("ROLLBACK");
    g_dropped_round_trips += channel.dropped_round_trips();
    g_retries += proxy->stats().retries + remote->retries();
    g_injected += proxy->stats().injected_faults_hit;
    g_degraded_commits += proxy->stats().degraded_commits;
    g_gap_txns += proxy->stats().tracking_gap_txns;
  }

  Database db;
  DbServer server;
  LoopbackChannel channel;
  proxy::TxnIdAllocator alloc;
  std::unique_ptr<RemoteConnection> remote;
  std::unique_ptr<proxy::TrackingProxy> proxy;
};

// A fault profile scales the per-site base rates, shifting chaos toward the
// wire or the commit path (tools/run_chaos.sh sweeps seeds x profiles).
struct FaultProfile {
  const char* name;
  double wire_mult;
  double engine_mult;
  double commit_mult;
  double net_mult;   // scales socket-reset injection in the TCP iterations
  double lock_mult;  // scales lock-window widening in the contention runs
};

constexpr FaultProfile kProfiles[] = {
    {"default", 1.0, 1.0, 1.0, 1.0, 1.0},
    {"wire-heavy", 4.0, 2.0, 0.5, 1.0, 1.0},
    {"commit-heavy", 0.5, 0.5, 3.0, 1.0, 1.0},
    // Shifts chaos onto the real-socket transport: frequent connection
    // resets mid-transaction, exercising reconnect + the degraded-commit
    // path over TCP (tests/net_test.cc covers the deterministic variant).
    {"net-reset", 0.0, 0.5, 0.5, 4.0, 1.0},
    // Shifts chaos onto the lock manager: "lock.acquire.delay" widens every
    // lock-hold window so conflicting transactions pile onto the waits-for
    // graph and deadlock storms become routine rather than rare.
    {"lock-contention", 0.5, 0.5, 0.5, 0.0, 4.0},
    // Shifts chaos onto the online repair: an attack lands mid-load over
    // real TCP connections, RepairOnline quarantines and heals while the
    // clients keep hammering, and widened lock windows maximize the odds
    // of open transactions pinning fenced slices when the drain arrives.
    {"serve-through", 0.0, 0.5, 0.5, 0.0, 2.0},
    // Shifts chaos onto the reenactment demotion path: commit-heavy faults
    // maximize tracking gaps in the workload histories, so the replay
    // planner's conservative gap/downstream demotions (rather than the
    // clean all-replayed case) carry the undo≡reenact oracle.
    {"reenact", 0.5, 0.5, 3.0, 0.0, 0.0},
    // Shifts chaos onto the sharded deployment: one shard is partitioned
    // away mid-load (clients see retryable shard-down rejects and retry),
    // widened lock windows raise 2PC branch contention, and the coordinated
    // repair runs against the concurrently produced cross-shard history.
    {"shard-split", 0.5, 0.5, 0.5, 0.0, 2.0},
};

FaultProfile g_profile = kProfiles[0];

void ArmMixFaults(double wire_p, double engine_p, double dep_p,
                  double annot_p) {
  auto& reg = fail::Registry::Instance();
  reg.Arm("wire.roundtrip",
          fail::Trigger::Probability(wire_p * g_profile.wire_mult));
  reg.Arm("engine.execute",
          fail::Trigger::Probability(engine_p * g_profile.engine_mult));
  reg.Arm("proxy.commit.trans_dep",
          fail::Trigger::Probability(dep_p * g_profile.commit_mult));
  reg.Arm("proxy.commit.annot",
          fail::Trigger::Probability(annot_p * g_profile.commit_mult));
}

// Snapshots the proxy's txn id and pending dependency set just before each
// COMMIT it forwards; a successful COMMIT is recorded as client-side ground
// truth for the completeness check.
class ShadowConnection : public DbConnection {
 public:
  explicit ShadowConnection(proxy::TrackingProxy* proxy) : proxy_(proxy) {}

  Result<ResultSet> Execute(std::string_view sql) override {
    const bool is_commit = EqualsIgnoreCase(sql, "COMMIT");
    const int64_t trid = proxy_->current_txn_id();
    std::vector<proxy::DepEntry> deps;
    if (is_commit && trid != 0) deps = proxy_->pending_deps();
    auto r = proxy_->Execute(sql);
    if (is_commit && trid != 0 && r.ok()) committed[trid] = std::move(deps);
    return r;
  }

  void SetAnnotation(std::string_view label) override {
    proxy_->SetAnnotation(label);
  }
  std::string Describe() const override {
    return "shadow(" + proxy_->Describe() + ")";
  }

  std::map<int64_t, std::vector<proxy::DepEntry>> committed;

 private:
  proxy::TrackingProxy* proxy_;
};

std::set<int64_t> TransDepIds(DbConnection* admin) {
  std::set<int64_t> ids;
  ResultSet rs = Must(admin, "SELECT tr_id FROM trans_dep");
  for (const auto& row : rs.rows) ids.insert(row[0].as_int());
  return ids;
}

// Invariant A. `baseline` holds trans_dep ids written during the fault-free
// setup/load phase, which the per-txn checks skip.
void CheckTrackingCompleteness(
    DbConnection* admin,
    const std::map<int64_t, std::vector<proxy::DepEntry>>& committed,
    const std::set<int64_t>& baseline, proxy::DegradedMode mode) {
  // Reassemble chunked payloads in row (= insertion) order.
  std::map<int64_t, std::string> payloads;
  ResultSet dep_rs = Must(admin, "SELECT tr_id, dep_tr_ids FROM trans_dep");
  for (const auto& row : dep_rs.rows) {
    std::string& p = payloads[row[0].as_int()];
    const std::string chunk = row[1].as_string();
    if (!p.empty() && !chunk.empty()) p += ' ';
    p += chunk;
  }
  std::set<int64_t> gaps;
  ResultSet gap_rs = Must(admin, "SELECT tr_id FROM tracking_gaps");
  for (const auto& row : gap_rs.rows) gaps.insert(row[0].as_int());

  if (mode == proxy::DegradedMode::kAbort) {
    Require(gaps.empty(), "tracking_gaps must stay empty under kAbort, has " +
                              std::to_string(gaps.size()) + " rows");
  }

  for (const auto& [trid, deps] : committed) {
    const std::string who = "committed txn " + std::to_string(trid);
    if (gaps.count(trid) > 0) {
      // Degraded commit: any trans_dep rows that did land before the fault
      // must still be a subset of the true dependency set.
      auto it = payloads.find(trid);
      if (it != payloads.end()) {
        auto partial = proxy::ParseDepTokens(it->second);
        Require(partial.ok(), who + ": unparseable partial payload");
        for (const auto& d : *partial) {
          Require(std::find(deps.begin(), deps.end(), d) != deps.end(),
                  who + ": phantom dependency in partial payload");
        }
      }
      continue;
    }
    auto it = payloads.find(trid);
    Require(it != payloads.end(),
            who + " has neither trans_dep rows nor a tracking_gaps entry");
    auto parsed = proxy::ParseDepTokens(it->second);
    Require(parsed.ok(), who + ": unparseable trans_dep payload");
    Require(*parsed == deps, who + ": dependency set mismatch (" +
                                 std::to_string(parsed->size()) +
                                 " recorded vs " + std::to_string(deps.size()) +
                                 " observed)");
  }

  // No phantom metadata: a trans_dep or tracking_gaps row whose txn the
  // client never saw commit means an abort failed to roll metadata back.
  for (const auto& [id, payload] : payloads) {
    (void)payload;
    if (baseline.count(id) > 0) continue;
    Require(committed.count(id) > 0,
            "trans_dep row for txn " + std::to_string(id) +
                " which the client never saw commit");
  }
  for (int64_t id : gaps) {
    Require(committed.count(id) > 0,
            "tracking_gaps row for txn " + std::to_string(id) +
                " which the client never saw commit");
  }
}

// Invariant B.
void CheckWalDurability(Database& db) {
  const std::string clean = SerializeWal(db.wal());
  auto decoded = DecodeWal(clean);
  Require(decoded.ok(), "clean WAL decode: " + decoded.status().ToString());
  Require(!decoded->truncated_tail, "clean WAL decode reported a torn tail");
  Require(static_cast<int64_t>(decoded->records.size()) == db.wal().size(),
          "clean WAL decode lost records");

  auto rec_or = RecoverDatabaseFromBytes(clean, db.traits());
  Require(rec_or.ok(), "recovery from bytes: " + rec_or.status().ToString());
  for (const std::string& name : db.catalog().TableNames()) {
    const HeapTable* orig = db.catalog().Find(name);
    const HeapTable* rec = (*rec_or)->catalog().Find(name);
    Require(rec != nullptr, "recovered database lost table " + name);
    Require(rec->page_count() == orig->page_count(),
            "page count mismatch on " + name);
    for (int p = 0; p < orig->page_count(); ++p) {
      Require(rec->GetPage(p)->RawBytes() == orig->GetPage(p)->RawBytes(),
              "page " + std::to_string(p) + " of " + name +
                  " not byte-exact after recovery");
    }
  }

  if (db.wal().size() == 0) return;
  fail::Registry::Instance().Arm("wal.serialize.torn",
                                 fail::Trigger::OneShot());
  const std::string torn = SerializeWal(db.wal());
  fail::Registry::Instance().Disarm("wal.serialize.torn");
  Require(torn.size() < clean.size() &&
              clean.compare(0, torn.size(), torn) == 0,
          "torn serialization is not a pure truncation of the clean bytes");
  WalRecoveryInfo info;
  auto torn_rec = RecoverDatabaseFromBytes(torn, db.traits(), &info);
  Require(torn_rec.ok(),
          "torn-tail recovery: " + torn_rec.status().ToString());
  Require(info.truncated_tail, "torn-tail recovery did not flag truncation");
  Require(info.records_recovered == db.wal().size() - 1,
          "torn tail should cost exactly the final record");
  Require(info.dropped_bytes > 0, "torn-tail recovery dropped no bytes");
}

// ---------------------------------------------------------------------------
// Part 1: TPC-C mix under wire / engine / commit-metadata faults.

void RunTpccChaosIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 1000003 + static_cast<uint64_t>(iter));
  const proxy::DegradedMode mode = (iter % 2 == 0)
                                       ? proxy::DegradedMode::kAbort
                                       : proxy::DegradedMode::kCommitUntracked;
  ChaosStack s(mode);

  tpcc::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 20;
  cfg.orders_per_district = 6;
  cfg.seed = g_seed + static_cast<uint64_t>(iter);
  auto load = tpcc::LoadDatabase(s.proxy.get(), cfg);
  Require(load.ok(), "TPC-C load: " + load.status().ToString());

  DirectConnection admin(&s.db);
  const std::set<int64_t> baseline = TransDepIds(&admin);

  ShadowConnection shadow(s.proxy.get());
  tpcc::TpccDriver driver(&shadow, cfg, g_seed + 17 * static_cast<uint64_t>(iter));

  ArmMixFaults(/*wire_p=*/0.02, /*engine_p=*/0.01, /*dep_p=*/0.06,
               /*annot_p=*/0.04);
  int ok_txns = 0, failed_txns = 0;
  for (int t = 0; t < 30; ++t) {
    auto r = driver.RunMixed();
    if (r.ok()) {
      ++ok_txns;
    } else {
      ++failed_txns;
    }
  }
  s.Quiesce();

  CheckTrackingCompleteness(&admin, shadow.committed, baseline, mode);
  CheckWalDurability(s.db);

  std::printf("chaos: tpcc iter %2d mode=%s ok=%d failed=%d tracked=%zu "
              "dropped=%lld gaps=%lld\n",
              iter, mode == proxy::DegradedMode::kAbort ? "abort" : "degrade",
              ok_txns, failed_txns, shadow.committed.size(),
              static_cast<long long>(s.channel.dropped_round_trips()),
              static_cast<long long>(s.proxy->stats().tracking_gap_txns));
}

// ---------------------------------------------------------------------------
// Part 1b: the same TPC-C mix over a REAL socket — engine -> NetProxyServer
// -> TCP -> TcpChannel -> remote client -> client-side tracking proxy —
// under injected connection resets ("net.roundtrip.send" tears the socket
// down before the frame is written, so a reset request never executed).
// The remote layer runs with RetryPolicy::None(): the tracking proxy's own
// bounded retry is the only layer riding through resets, which is exactly
// the PR 2 degraded-commit contract carried onto real connections.

struct NetChaosStack {
  explicit NetChaosStack(proxy::DegradedMode mode) : db(FlavorTraits::Postgres()) {
    net::NetServerOptions sopts;
    sopts.track = false;  // tracking lives on the client in this deployment
    server = std::make_unique<net::NetProxyServer>(&db, &alloc, sopts);
    IRDB_CHECK(server->Start().ok());
    net::TcpChannelOptions copts;
    copts.port = server->port();
    channel = std::make_unique<net::TcpChannel>(copts);
    auto remote_or = RemoteConnection::Connect(channel.get(), RetryPolicy::None());
    IRDB_CHECK(remote_or.ok());
    remote = std::move(remote_or).value();
    proxy = std::make_unique<proxy::TrackingProxy>(remote.get(), &alloc,
                                                   FlavorTraits::Postgres());
    proxy->set_degraded_mode(mode);
    IRDB_CHECK(proxy->EnsureTrackingTables().ok());
  }

  void Quiesce() {
    fail::Registry::Instance().DisarmAll();
    (void)remote->Execute("ROLLBACK");
    g_dropped_round_trips += channel->dropped_round_trips();
    g_retries += proxy->stats().retries + remote->retries();
    g_injected += proxy->stats().injected_faults_hit;
    g_degraded_commits += proxy->stats().degraded_commits;
    g_gap_txns += proxy->stats().tracking_gap_txns;
  }

  // Declaration order doubles as the teardown contract: the proxy and the
  // remote (whose parting BYE still needs the channel and the server) go
  // first, the server stops before the database dies.
  Database db;
  proxy::TxnIdAllocator alloc;
  std::unique_ptr<net::NetProxyServer> server;
  std::unique_ptr<net::TcpChannel> channel;
  std::unique_ptr<RemoteConnection> remote;
  std::unique_ptr<proxy::TrackingProxy> proxy;
};

void RunNetChaosIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 7778777 + static_cast<uint64_t>(iter));
  const proxy::DegradedMode mode = (iter % 2 == 0)
                                       ? proxy::DegradedMode::kAbort
                                       : proxy::DegradedMode::kCommitUntracked;
  NetChaosStack s(mode);

  tpcc::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 20;
  cfg.orders_per_district = 6;
  cfg.seed = g_seed + 31 * static_cast<uint64_t>(iter);
  auto load = tpcc::LoadDatabase(s.proxy.get(), cfg);
  Require(load.ok(), "TPC-C load over TCP: " + load.status().ToString());

  DirectConnection admin(&s.db);
  const std::set<int64_t> baseline = TransDepIds(&admin);

  ShadowConnection shadow(s.proxy.get());
  tpcc::TpccDriver driver(&shadow, cfg, g_seed + 53 * static_cast<uint64_t>(iter));

  reg.Arm(net::kSendFailpoint,
          fail::Trigger::Probability(0.05 * g_profile.net_mult));
  int ok_txns = 0, failed_txns = 0;
  for (int t = 0; t < 30; ++t) {
    auto r = driver.RunMixed();
    if (r.ok()) {
      ++ok_txns;
    } else {
      ++failed_txns;
    }
  }
  const int64_t drops = s.channel->dropped_round_trips();
  s.Quiesce();

  CheckTrackingCompleteness(&admin, shadow.committed, baseline, mode);
  CheckWalDurability(s.db);

  std::printf("chaos: net  iter %2d mode=%s ok=%d failed=%d tracked=%zu "
              "resets=%lld reconnects=%lld gaps=%lld\n",
              iter, mode == proxy::DegradedMode::kAbort ? "abort" : "degrade",
              ok_txns, failed_txns, shadow.committed.size(),
              static_cast<long long>(drops),
              static_cast<long long>(s.channel->reconnects()),
              static_cast<long long>(s.proxy->stats().tracking_gap_txns));
}

// ---------------------------------------------------------------------------
// Part 2: deterministic account scripts -> atomicity + repair soundness.

constexpr size_t kAttackIndex = 4;
constexpr int kAccounts = 10;

struct Script {
  std::string label;
  std::vector<std::string> stmts;
};

// All statement text is fixed up front so the fault-free replay reruns the
// exact same transactions. Updates are additive constants: a transaction's
// writes never depend on its reads through values, only through the tracked
// read set, so replaying any dependency-closed subset is state-equivalent.
std::vector<Script> MakeScripts(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Script> scripts;
  for (size_t j = 0; j < n; ++j) {
    Script sc;
    if (j == kAttackIndex) {
      sc.label = "Attack";
      sc.stmts.push_back(
          "UPDATE account SET balance = balance + 1000 WHERE id = 1");
    } else {
      sc.label = "Txn_" + std::to_string(j);
      const int reads = static_cast<int>(rng.Uniform(1, 2));
      for (int k = 0; k < reads; ++k) {
        sc.stmts.push_back("SELECT balance FROM account WHERE id = " +
                           std::to_string(rng.Uniform(1, kAccounts)));
      }
      const int writes = static_cast<int>(rng.Uniform(1, 2));
      for (int k = 0; k < writes; ++k) {
        sc.stmts.push_back("UPDATE account SET balance = balance + " +
                           std::to_string(rng.Uniform(1, 50)) +
                           " WHERE id = " +
                           std::to_string(rng.Uniform(1, kAccounts)));
      }
      if (rng.Bernoulli(0.2)) {
        sc.stmts.push_back("INSERT INTO account(id, balance) VALUES (" +
                           std::to_string(100 + j) + ", 10.0)");
      }
    }
    scripts.push_back(std::move(sc));
  }
  return scripts;
}

void SetupAccounts(DbConnection* conn) {
  // The primary key gives the lock manager key granularity: conflicting
  // transactions only collide on the rows they actually touch, which is
  // what lets the lock-contention iterations build real deadlock cycles.
  Must(conn, "CREATE TABLE account (id INTEGER NOT NULL, balance DOUBLE, "
             "PRIMARY KEY(id))");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Setup");
  std::string values;
  for (int id = 1; id <= kAccounts; ++id) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(id) + ", " + std::to_string(100 * id) +
              ".0)";
  }
  Must(conn, "INSERT INTO account(id, balance) VALUES " + values);
  Must(conn, "COMMIT");
}

// Fault-free replay of the committed scripts minus `excluded`, hashed.
uint64_t ReplayHash(const std::vector<Script>& scripts,
                    const std::vector<bool>& committed_mask,
                    const std::set<size_t>& excluded) {
  Database db(FlavorTraits::Postgres());
  DirectConnection direct(&db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, FlavorTraits::Postgres());
  IRDB_CHECK(proxy.EnsureTrackingTables().ok());
  SetupAccounts(&proxy);
  for (size_t j = 0; j < scripts.size(); ++j) {
    if (!committed_mask[j] || excluded.count(j) > 0) continue;
    Must(&proxy, "BEGIN");
    proxy.SetAnnotation(scripts[j].label);
    for (const std::string& sql : scripts[j].stmts) Must(&proxy, sql);
    Must(&proxy, "COMMIT");
  }
  return db.StateHash({"account"}, {"trid"});
}

void RunRepairChaosIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 9176423 + static_cast<uint64_t>(iter));
  const proxy::DegradedMode mode = (iter % 2 == 0)
                                       ? proxy::DegradedMode::kCommitUntracked
                                       : proxy::DegradedMode::kAbort;
  ChaosStack s(mode);
  SetupAccounts(s.proxy.get());

  DirectConnection admin(&s.db);
  const std::set<int64_t> baseline = TransDepIds(&admin);
  const std::vector<Script> scripts =
      MakeScripts(g_seed + 31 * static_cast<uint64_t>(iter), 18);

  ArmMixFaults(/*wire_p=*/0.03, /*engine_p=*/0.02, /*dep_p=*/0.10,
               /*annot_p=*/0.05);
  std::vector<bool> committed_mask(scripts.size(), false);
  std::map<int64_t, std::vector<proxy::DepEntry>> committed;
  std::map<int64_t, size_t> trid_to_script;
  for (size_t j = 0; j < scripts.size(); ++j) {
    if (!s.proxy->Execute("BEGIN").ok()) continue;
    s.proxy->SetAnnotation(scripts[j].label);
    bool failed = false;
    for (const std::string& sql : scripts[j].stmts) {
      if (!s.proxy->Execute(sql).ok()) {
        failed = true;
        break;
      }
    }
    if (failed) {
      (void)s.proxy->Execute("ROLLBACK");
      continue;
    }
    const int64_t trid = s.proxy->current_txn_id();
    std::vector<proxy::DepEntry> deps = s.proxy->pending_deps();
    if (s.proxy->Execute("COMMIT").ok()) {
      committed_mask[j] = true;
      committed[trid] = std::move(deps);
      trid_to_script[trid] = j;
    }
  }
  s.Quiesce();

  CheckTrackingCompleteness(&admin, committed, baseline, mode);
  CheckWalDurability(s.db);

  // C (atomicity): faults may abort transactions but never leave fractions
  // of one behind.
  const uint64_t actual = s.db.StateHash({"account"}, {"trid"});
  const uint64_t expected = ReplayHash(scripts, committed_mask, {});
  Require(actual == expected,
          "post-chaos state diverges from a replay of the committed scripts");

  // C (repair soundness): undoing the attack yields the same state as never
  // running the undo set at all.
  int64_t attack_trid = 0;
  for (const auto& [trid, j] : trid_to_script) {
    if (j == kAttackIndex) attack_trid = trid;
  }
  size_t undo_size = 0;
  if (attack_trid != 0) {
    RequireIndexesMatchHeap(&s.db, "before offline repair");
    repair::RepairEngine engine(&s.db);
    auto report =
        engine.Repair({attack_trid}, repair::DbaPolicy::TrackEverything());
    Require(report.ok(), "repair: " + report.status().ToString());
    std::set<size_t> excluded;
    for (int64_t id : report->undo_set) {
      auto it = trid_to_script.find(id);
      if (it != trid_to_script.end()) excluded.insert(it->second);
    }
    Require(excluded.count(kAttackIndex) > 0, "attack txn not in undo set");
    undo_size = report->undo_set.size();
    const uint64_t repaired = s.db.StateHash({"account"}, {"trid"});
    const uint64_t expect2 = ReplayHash(scripts, committed_mask, excluded);
    Require(repaired == expect2,
            "repaired state diverges from a replay without the undo set");
    RequireIndexesMatchHeap(&s.db, "after offline repair");
  }

  std::printf("chaos: repair iter %2d mode=%s committed=%zu undo=%zu "
              "gaps=%lld\n",
              iter, mode == proxy::DegradedMode::kAbort ? "abort" : "degrade",
              committed.size(), undo_size,
              static_cast<long long>(s.proxy->stats().tracking_gap_txns));
}

// ---------------------------------------------------------------------------
// Part 6: reenactment repair chaos (DESIGN.md §5i). The same scripted
// histories as Part 2 run under commit-path faults (tracking gaps exercise
// the conservative demotion path), then the attack is repaired with the
// kReenact strategy. The scripts are count-commuting (additive updates,
// SELECTs of rows that always exist, distinct-key inserts), so:
//   - the undo≡reenact oracle holds: the reenacted state must equal a
//     fault-free replay of the committed scripts minus what STAYED undone
//     (seed + demotions) — exactly the undo-only-then-reapply state;
//   - no replay may diverge (every fingerprint is count-stable), so every
//     demotion must be a tracking gap or downstream of one;
//   - replay restores the innocents' trans_dep/annot metadata (the journal
//     captured the proxy-rewritten text), so tracking completeness over the
//     surviving transactions still holds after the repair.

void RunReenactChaosIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 6553421 + static_cast<uint64_t>(iter));
  const proxy::DegradedMode mode = (iter % 2 == 0)
                                       ? proxy::DegradedMode::kCommitUntracked
                                       : proxy::DegradedMode::kAbort;
  ChaosStack s(mode);
  SetupAccounts(s.proxy.get());

  DirectConnection admin(&s.db);
  const std::set<int64_t> baseline = TransDepIds(&admin);
  const std::vector<Script> scripts =
      MakeScripts(g_seed + 47 * static_cast<uint64_t>(iter), 18);

  ArmMixFaults(/*wire_p=*/0.02, /*engine_p=*/0.01, /*dep_p=*/0.08,
               /*annot_p=*/0.04);
  std::vector<bool> committed_mask(scripts.size(), false);
  std::map<int64_t, std::vector<proxy::DepEntry>> committed;
  std::map<int64_t, size_t> trid_to_script;
  for (size_t j = 0; j < scripts.size(); ++j) {
    if (!s.proxy->Execute("BEGIN").ok()) continue;
    s.proxy->SetAnnotation(scripts[j].label);
    bool failed = false;
    for (const std::string& sql : scripts[j].stmts) {
      if (!s.proxy->Execute(sql).ok()) {
        failed = true;
        break;
      }
    }
    if (failed) {
      (void)s.proxy->Execute("ROLLBACK");
      continue;
    }
    const int64_t trid = s.proxy->current_txn_id();
    std::vector<proxy::DepEntry> deps = s.proxy->pending_deps();
    if (s.proxy->Execute("COMMIT").ok()) {
      committed_mask[j] = true;
      committed[trid] = std::move(deps);
      trid_to_script[trid] = j;
    }
  }
  s.Quiesce();
  // The workload took the faults; the repair itself runs clean — replay
  // failures here would be harness noise, not the divergence semantics
  // under test.
  reg.DisarmAll();

  CheckTrackingCompleteness(&admin, committed, baseline, mode);
  CheckWalDurability(s.db);

  int64_t attack_trid = 0;
  for (const auto& [trid, j] : trid_to_script) {
    if (j == kAttackIndex) attack_trid = trid;
  }
  size_t replayed = 0, demoted = 0;
  if (attack_trid != 0) {
    RequireIndexesMatchHeap(&s.db, "before reenactment repair");
    // Alternate serial and parallel replay across iterations.
    repair::RepairEngine engine(&s.db, iter % 2 == 0 ? 4 : 1);
    auto report = engine.RepairReenact({attack_trid},
                                       repair::DbaPolicy::TrackEverything());
    Require(report.ok(), "reenact: " + report.status().ToString());
    Require(report->repair.undo_set.count(attack_trid) > 0,
            "attack txn not among the transactions that stayed undone");
    Require(report->replayed.size() + report->demoted.size() + 1 ==
                report->closure.size(),
            "reenact accounting: replayed + demoted + seed != closure");
    Require(report->diverged == 0,
            "count-commuting history produced a replay divergence");
    for (const auto& [id, reason] : report->demoted) {
      Require(reason == repair::DemoteReason::kTrackingGap ||
                  reason == repair::DemoteReason::kDownstream,
              "unexpected demotion reason for T" + std::to_string(id) + ": " +
                  repair::DemoteReasonName(reason));
    }
    replayed = report->replayed.size();
    demoted = report->demoted.size();

    // The undo≡reenact oracle: final state == fault-free replay of the
    // committed scripts minus exactly what stayed undone.
    std::set<size_t> excluded;
    for (int64_t id : report->repair.undo_set) {
      auto it = trid_to_script.find(id);
      if (it != trid_to_script.end()) excluded.insert(it->second);
    }
    Require(excluded.count(kAttackIndex) > 0, "attack script not excluded");
    const uint64_t actual = s.db.StateHash({"account"}, {"trid"});
    const uint64_t expected = ReplayHash(scripts, committed_mask, excluded);
    Require(actual == expected,
            "reenacted state diverges from the undo-then-reapply oracle");
    RequireIndexesMatchHeap(&s.db, "after reenactment repair");

    // Replay restored the innocents' tracking metadata; the undone
    // transactions' rows were compensated away with their data. (Gap-table
    // rows from untracked survivors outside the closure legitimately
    // remain, so the original mode governs the emptiness assertion.)
    std::map<int64_t, std::vector<proxy::DepEntry>> surviving = committed;
    for (int64_t id : report->repair.undo_set) surviving.erase(id);
    CheckTrackingCompleteness(&admin, surviving, baseline, mode);
  }

  std::printf("chaos: reen iter %2d mode=%s committed=%zu replayed=%zu "
              "demoted=%zu gaps=%lld\n",
              iter, mode == proxy::DegradedMode::kAbort ? "abort" : "degrade",
              committed.size(), replayed, demoted,
              static_cast<long long>(s.proxy->stats().tracking_gap_txns));
}

// ---------------------------------------------------------------------------
// Part 3: lock-contention chaos — genuinely concurrent threads, each with its
// own engine session and tracking proxy, hammering overlapping account rows
// while the "lock.acquire.delay" failpoint widens every lock-hold window.
// Random per-script key orders make deadlock storms routine; clients retry
// whole transactions on "[deadlock]" aborts. Invariants:
//   - tracking completeness with ZERO gaps (no wire faults are armed here,
//     so every commit the clients saw must have its exact dependency set);
//   - replay equivalence: all updates are additive constants and all inserts
//     have thread-distinct keys, so the concurrent history commutes and the
//     final state must equal a serial fault-free replay of exactly the
//     committed scripts;
//   - repair equivalence: undoing the attack transaction (plus its tracked
//     closure) equals the same replay with the undo set omitted — the PR 3
//     repair property, now over a concurrently produced history.

std::vector<Script> MakeContentionScripts(uint64_t seed, int thread,
                                          size_t n) {
  Rng rng(seed);
  std::vector<Script> scripts;
  for (size_t j = 0; j < n; ++j) {
    Script sc;
    if (thread == 0 && j == kAttackIndex) {
      sc.label = "Attack";
      sc.stmts.push_back(
          "UPDATE account SET balance = balance + 1000 WHERE id = 1");
    } else {
      sc.label = "Lk_" + std::to_string(thread) + "_" + std::to_string(j);
      // Two or three additive updates over distinct rows in random order —
      // the classic recipe for cross-key deadlock cycles under 2PL.
      const int touches = static_cast<int>(rng.Uniform(2, 3));
      std::set<int64_t> ids;
      while (static_cast<int>(ids.size()) < touches) {
        ids.insert(rng.Uniform(1, kAccounts));
      }
      std::vector<int64_t> order(ids.begin(), ids.end());
      for (size_t k = order.size(); k > 1; --k) {
        std::swap(order[k - 1], order[rng.Uniform(0, k - 1)]);
      }
      for (int64_t id : order) {
        sc.stmts.push_back("UPDATE account SET balance = balance + " +
                           std::to_string(rng.Uniform(1, 50)) +
                           " WHERE id = " + std::to_string(id));
      }
      if (rng.Bernoulli(0.2)) {
        // Thread-distinct key: inserts commute with everything.
        sc.stmts.push_back("INSERT INTO account(id, balance) VALUES (" +
                           std::to_string(500 + thread * 64 +
                                          static_cast<int>(j)) +
                           ", 10.0)");
      }
    }
    scripts.push_back(std::move(sc));
  }
  return scripts;
}

void RunLockContentionIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 5551231 + static_cast<uint64_t>(iter));

  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  DirectConnection setup_conn(&db);
  proxy::TrackingProxy setup(&setup_conn, &alloc, FlavorTraits::Postgres());
  IRDB_CHECK(setup.EnsureTrackingTables().ok());
  SetupAccounts(&setup);

  DirectConnection admin(&db);
  const std::set<int64_t> baseline = TransDepIds(&admin);

  constexpr int kThreads = 4;
  constexpr size_t kScriptsPerThread = 6;
  std::vector<std::vector<Script>> per_thread;
  for (int t = 0; t < kThreads; ++t) {
    per_thread.push_back(MakeContentionScripts(
        g_seed + 97 * static_cast<uint64_t>(iter) + t, t, kScriptsPerThread));
  }

  reg.Arm("lock.acquire.delay",
          fail::Trigger::Probability(0.25 * g_profile.lock_mult));

  struct ThreadOutcome {
    std::vector<bool> committed_mask;
    std::map<int64_t, std::vector<proxy::DepEntry>> committed;
    std::map<int64_t, size_t> trid_to_script;  // index within this thread
    int64_t deadlock_retries = 0;
  };
  std::vector<ThreadOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &alloc, &per_thread, &outcomes, t] {
      DirectConnection conn(&db);
      proxy::TrackingProxy proxy(&conn, &alloc, FlavorTraits::Postgres());
      ThreadOutcome& out = outcomes[t];
      out.committed_mask.assign(per_thread[t].size(), false);
      for (size_t j = 0; j < per_thread[t].size(); ++j) {
        const Script& sc = per_thread[t][j];
        for (int attempt = 0; attempt < 200; ++attempt) {
          if (!proxy.Execute("BEGIN").ok()) continue;
          proxy.SetAnnotation(sc.label);
          Status failure = Status::Ok();
          for (const std::string& sql : sc.stmts) {
            auto r = proxy.Execute(sql);
            if (!r.ok()) {
              failure = r.status();
              break;
            }
          }
          if (!failure.ok()) {
            (void)proxy.Execute("ROLLBACK");
            if (concurrency::IsDeadlockAbort(failure)) {
              ++out.deadlock_retries;
              continue;  // whole-transaction client retry
            }
            break;  // non-deadlock failure: give the script up
          }
          const int64_t trid = proxy.current_txn_id();
          std::vector<proxy::DepEntry> deps = proxy.pending_deps();
          auto commit = proxy.Execute("COMMIT");
          if (commit.ok()) {
            out.committed_mask[j] = true;
            out.committed[trid] = std::move(deps);
            out.trid_to_script[trid] = j;
            break;
          }
          if (concurrency::IsDeadlockAbort(commit.status())) {
            ++out.deadlock_retries;
            continue;
          }
          break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  reg.DisarmAll();

  // Flatten thread-major for the replay oracle and the completeness check.
  std::vector<Script> flat;
  std::vector<bool> flat_mask;
  std::map<int64_t, std::vector<proxy::DepEntry>> committed;
  std::map<int64_t, size_t> trid_to_flat;
  int64_t retries = 0;
  for (int t = 0; t < kThreads; ++t) {
    const size_t base = flat.size();
    for (size_t j = 0; j < per_thread[t].size(); ++j) {
      flat.push_back(per_thread[t][j]);
      flat_mask.push_back(outcomes[t].committed_mask[j]);
    }
    for (auto& [trid, deps] : outcomes[t].committed) {
      committed[trid] = std::move(deps);
    }
    for (const auto& [trid, j] : outcomes[t].trid_to_script) {
      trid_to_flat[trid] = base + j;
    }
    retries += outcomes[t].deadlock_retries;
  }
  g_deadlock_client_retries += retries;

  // No wire/commit faults were armed, so tracking must be exact: every
  // committed transaction has its full dependency set and zero gaps.
  CheckTrackingCompleteness(&admin, committed, baseline,
                            proxy::DegradedMode::kAbort);
  CheckWalDurability(db);

  const uint64_t actual = db.StateHash({"account"}, {"trid"});
  const uint64_t expected = ReplayHash(flat, flat_mask, {});
  Require(actual == expected,
          "concurrent lock-contention state diverges from the commuting "
          "serial replay of the committed scripts");

  int64_t attack_trid = 0;
  for (const auto& [trid, j] : trid_to_flat) {
    if (flat[j].label == "Attack") attack_trid = trid;
  }
  size_t undo_size = 0;
  if (attack_trid != 0) {
    RequireIndexesMatchHeap(&db, "before offline repair (concurrent history)");
    repair::RepairEngine engine(&db);
    auto report =
        engine.Repair({attack_trid}, repair::DbaPolicy::TrackEverything());
    Require(report.ok(), "repair after lock-contention chaos: " +
                             report.status().ToString());
    std::set<size_t> excluded;
    for (int64_t id : report->undo_set) {
      auto it = trid_to_flat.find(id);
      if (it != trid_to_flat.end()) excluded.insert(it->second);
    }
    Require(excluded.count(trid_to_flat[attack_trid]) > 0,
            "attack txn not in its own undo set");
    undo_size = report->undo_set.size();
    const uint64_t repaired = db.StateHash({"account"}, {"trid"});
    const uint64_t expect2 = ReplayHash(flat, flat_mask, excluded);
    Require(repaired == expect2,
            "repaired state diverges from a replay without the undo set "
            "(concurrent history)");
    RequireIndexesMatchHeap(&db, "after offline repair (concurrent history)");
  }

  const auto lstats = db.txn_manager().locks().stats();
  std::printf("chaos: lock iter %2d committed=%zu retries=%lld waits=%lld "
              "deadlocks=%lld undo=%zu\n",
              iter, committed.size(), static_cast<long long>(retries),
              static_cast<long long>(lstats.waits),
              static_cast<long long>(lstats.deadlocks), undo_size);
}

// ---------------------------------------------------------------------------
// Part 5: serve-through repair — RepairOnline races a live TCP workload
// (DESIGN.md §5g).
//
// Invariants on top of A/B:
//   D. repair soundness under fire — the post-release state equals a
//      fault-free replay of the committed scripts minus the undo set, i.e.
//      exactly what an offline repair of the same history produces;
//   E. zero tracking gaps — every transaction that survives the repair has
//      its full dependency set in trans_dep (DegradedMode::kAbort, and the
//      quarantine gate rejects rather than degrades);
//   F. full release — no quarantine slice outlives the repair.

// Client-visible failures the serve-through workload recovers from with
// ROLLBACK + whole-script retry: quarantine rejections and forced evictions
// (retryable kUnavailable), deadlock aborts, and the poisoned-transaction
// acknowledgement handshake.
bool RetryableClientFailure(const Status& st) {
  return st.IsRetryable() || concurrency::IsDeadlockAbort(st) ||
         st.code() == StatusCode::kFailedPrecondition;
}

void RunServeThroughIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 9119113 + static_cast<uint64_t>(iter));

  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  net::NetServerOptions sopts;
  sopts.track = false;  // tracking lives in the per-client proxies
  net::NetProxyServer server(&db, &alloc, sopts);
  IRDB_CHECK(server.Start().ok());

  {
    // Bootstrap over the same TCP front door the workload uses.
    net::TcpChannelOptions copts;
    copts.port = server.port();
    net::TcpChannel boot_channel(copts);
    auto boot_or = RemoteConnection::Connect(&boot_channel, RetryPolicy::None());
    IRDB_CHECK(boot_or.ok());
    proxy::TrackingProxy boot(boot_or->get(), &alloc, FlavorTraits::Postgres());
    IRDB_CHECK(boot.EnsureTrackingTables().ok());
    SetupAccounts(&boot);
  }

  DirectConnection admin(&db);
  const std::set<int64_t> baseline = TransDepIds(&admin);
  RequireIndexesMatchHeap(&db, "before online repair");

  constexpr int kThreads = 4;
  constexpr size_t kScriptsPerThread = 8;
  std::vector<std::vector<Script>> per_thread;
  for (int t = 0; t < kThreads; ++t) {
    per_thread.push_back(MakeContentionScripts(
        g_seed + 131 * static_cast<uint64_t>(iter) + t, t, kScriptsPerThread));
  }

  // Widened lock windows make open transactions linger on their keys, so
  // the drain regularly meets pinned slices and must evict, not wait.
  reg.Arm("lock.acquire.delay",
          fail::Trigger::Probability(0.1 * g_profile.lock_mult));

  std::atomic<int64_t> attack_trid{0};
  struct ThreadOutcome {
    std::vector<bool> committed_mask;
    std::map<int64_t, std::vector<proxy::DepEntry>> committed;
    std::map<int64_t, size_t> trid_to_script;
    int64_t deadlock_retries = 0;
    int64_t quarantine_rejects = 0;
  };
  std::vector<ThreadOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &server, &alloc, &per_thread, &outcomes,
                          &attack_trid, t] {
      (void)db;
      net::TcpChannelOptions copts;
      copts.port = server.port();
      net::TcpChannel channel(copts);
      auto remote_or = RemoteConnection::Connect(&channel, RetryPolicy::None());
      IRDB_CHECK(remote_or.ok());
      proxy::TrackingProxy proxy(remote_or->get(), &alloc,
                                 FlavorTraits::Postgres());
      ThreadOutcome& out = outcomes[t];
      out.committed_mask.assign(per_thread[t].size(), false);
      for (size_t j = 0; j < per_thread[t].size(); ++j) {
        const Script& sc = per_thread[t][j];
        for (int attempt = 0; attempt < 500; ++attempt) {
          if (!proxy.Execute("BEGIN").ok()) {
            (void)proxy.Execute("ROLLBACK");
            continue;
          }
          proxy.SetAnnotation(sc.label);
          Status failure = Status::Ok();
          for (const std::string& sql : sc.stmts) {
            auto r = proxy.Execute(sql);
            if (!r.ok()) {
              failure = r.status();
              break;
            }
          }
          if (failure.ok()) {
            const int64_t trid = proxy.current_txn_id();
            std::vector<proxy::DepEntry> deps = proxy.pending_deps();
            auto commit = proxy.Execute("COMMIT");
            if (commit.ok()) {
              out.committed_mask[j] = true;
              out.committed[trid] = std::move(deps);
              out.trid_to_script[trid] = j;
              if (sc.label == "Attack") {
                attack_trid.store(trid, std::memory_order_release);
              }
              break;
            }
            failure = commit.status();
          }
          (void)proxy.Execute("ROLLBACK");
          if (!RetryableClientFailure(failure)) break;  // give the script up
          if (concurrency::IsDeadlockAbort(failure)) {
            ++out.deadlock_retries;
          } else if (failure.message().rfind(kQuarantineTag, 0) == 0) {
            // Fenced slice: back off until the repair releases it.
            ++out.quarantine_rejects;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
      out.quarantine_rejects += proxy.stats().quarantine_rejects;
    });
  }

  // The repair races the load: as soon as the attack commits, quarantine
  // its closure and heal while the other clients keep going.
  Status repair_status = Status::Ok();
  repair::OnlineRepairReport report;
  std::thread repair_thread([&db, &attack_trid, &repair_status, &report] {
    for (int spin = 0; spin < 5000; ++spin) {
      if (attack_trid.load(std::memory_order_acquire) != 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const int64_t seed_trid = attack_trid.load(std::memory_order_acquire);
    if (seed_trid == 0) {
      repair_status = Status::Internal("attack never committed");
      return;
    }
    // Let a few dependents land so the closure is non-trivial.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    repair::RepairEngine engine(&db, /*threads=*/2);
    for (int attempt = 0; attempt < 5; ++attempt) {
      auto rep = engine.RepairOnline({seed_trid},
                                     repair::DbaPolicy::TrackEverything());
      if (rep.ok()) {
        report = *rep;
        repair_status = Status::Ok();
        return;
      }
      repair_status = rep.status();
      // Analyze can lose a deadlock to the live load; the claim was
      // released on the way out, so retrying is safe.
      if (!rep.status().IsRetryable() &&
          rep.status().code() != StatusCode::kAborted) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (auto& th : threads) th.join();
  repair_thread.join();
  reg.DisarmAll();
  Require(repair_status.ok(),
          "online repair under live TCP load: " + repair_status.ToString());
  Require(!db.quarantine().active(),
          "quarantine still active after RepairOnline returned");
  Require(db.quarantine().stats().slices == 0,
          "quarantine slices survived the repair");
  RequireIndexesMatchHeap(&db, "after online repair");

  // Flatten thread-major (the replay oracle's order).
  std::vector<Script> flat;
  std::vector<bool> flat_mask;
  std::map<int64_t, std::vector<proxy::DepEntry>> committed;
  std::map<int64_t, size_t> trid_to_flat;
  int64_t retries = 0, rejects = 0;
  for (int t = 0; t < kThreads; ++t) {
    const size_t base = flat.size();
    for (size_t j = 0; j < per_thread[t].size(); ++j) {
      flat.push_back(per_thread[t][j]);
      flat_mask.push_back(outcomes[t].committed_mask[j]);
    }
    for (auto& [trid, deps] : outcomes[t].committed) {
      committed[trid] = std::move(deps);
    }
    for (const auto& [trid, j] : outcomes[t].trid_to_script) {
      trid_to_flat[trid] = base + j;
    }
    retries += outcomes[t].deadlock_retries;
    rejects += outcomes[t].quarantine_rejects;
  }
  g_deadlock_client_retries += retries;
  g_quarantine_rejects += rejects;

  // E. The repair compensated the undo set's metadata along with its data,
  // so completeness is asserted over the surviving transactions; everything
  // else about invariant A holds verbatim — and kAbort means zero gaps.
  std::map<int64_t, std::vector<proxy::DepEntry>> surviving = committed;
  std::set<size_t> excluded;
  for (int64_t id : report.repair.undo_set) {
    surviving.erase(id);
    auto it = trid_to_flat.find(id);
    if (it != trid_to_flat.end()) excluded.insert(it->second);
  }
  Require(excluded.count(trid_to_flat[attack_trid.load()]) > 0,
          "attack txn not in its own undo set");
  CheckTrackingCompleteness(&admin, surviving, baseline,
                            proxy::DegradedMode::kAbort);
  CheckWalDurability(db);

  // D. Byte-for-byte offline equivalence: replaying the committed history
  // without the undo set is exactly the state an offline repair of this
  // history would leave behind.
  const uint64_t actual = db.StateHash({"account"}, {"trid"});
  const uint64_t expected = ReplayHash(flat, flat_mask, excluded);
  Require(actual == expected,
          "post-release state diverges from the offline-repair oracle "
          "(replay of committed scripts minus the undo set)");

  std::printf("chaos: serv iter %2d committed=%zu undo=%zu rejects=%lld "
              "rounds=%d slices=%d released=%d lanes=%d evict_retries=%lld\n",
              iter, committed.size(), report.repair.undo_set.size(),
              static_cast<long long>(rejects), report.rounds,
              report.slices_installed, report.slices_released, report.lanes,
              static_cast<long long>(retries));
}

// ---------------------------------------------------------------------------
// Part 6: shard-split chaos — a ShardCluster under genuinely concurrent
// routed load while one shard is partitioned away mid-run (DESIGN.md §5j).
//
// Threads drive RoutedSessions with a mix of single-shard and cross-shard
// (2PC) account scripts; the controller flips the shard owning warehouse 1
// down once a third of the scripts have committed and restores it after the
// router has demonstrably turned clients away. Invariants:
//   G. zero tracking gaps on EVERY shard, every committed branch trid has
//      its trans_dep row on its owning shard, and no non-baseline trans_dep
//      row exists for a transaction no client saw commit (2PC validation
//      plus transactional metadata keep partial global commits out);
//   H. merged-replay equivalence — all updates are additive and all insert
//      keys thread-distinct, so each shard's state must equal that shard's
//      slice of a fault-free serial replay of exactly the committed scripts
//      on a fresh cluster of the same shape;
//   I. coordinated-repair soundness — ShardRepairCoordinator (strategy
//      rotates offline/online/reenact per iteration) seeded with the attack
//      branch undoes a sibling-closed set (a cross-shard script is never
//      half-undone), and the post-repair per-shard state equals the merged
//      replay minus the scripts that stayed undone.

constexpr int kShardCount = 3;
constexpr int kShardAccounts = 8;  // ids 1..8 per warehouse

std::string ShardAcctWhere(int64_t w, int64_t id) {
  return " WHERE w_id = " + std::to_string(w) +
         " AND id = " + std::to_string(id);
}

std::vector<Script> MakeShardScripts(uint64_t seed, int thread, size_t n) {
  Rng rng(seed);
  std::vector<Script> scripts;
  for (size_t j = 0; j < n; ++j) {
    Script sc;
    if (thread == 0 && j == kAttackIndex) {
      sc.label = "Attack";
      sc.stmts.push_back("UPDATE account SET balance = balance + 1000" +
                         ShardAcctWhere(1, 1));
    } else {
      sc.label = "Sh_" + std::to_string(thread) + "_" + std::to_string(j);
      if (rng.Bernoulli(0.35)) {
        // Cross-shard: read one warehouse, write another — the commit takes
        // the 2PC path and records the merged dependency set on both shards.
        const int64_t wa = rng.Uniform(1, kShardCount);
        const int64_t wb = 1 + (wa % kShardCount);
        sc.stmts.push_back("SELECT balance FROM account" +
                           ShardAcctWhere(wa, rng.Uniform(1, kShardAccounts)));
        sc.stmts.push_back("UPDATE account SET balance = balance + " +
                           std::to_string(rng.Uniform(1, 50)) +
                           ShardAcctWhere(wb, rng.Uniform(1, kShardAccounts)));
        if (rng.Bernoulli(0.5)) {
          sc.stmts.push_back(
              "UPDATE account SET balance = balance + " +
              std::to_string(rng.Uniform(1, 50)) +
              ShardAcctWhere(wa, rng.Uniform(1, kShardAccounts)));
        }
      } else {
        const int64_t w = rng.Uniform(1, kShardCount);
        const int writes = static_cast<int>(rng.Uniform(1, 2));
        for (int k = 0; k < writes; ++k) {
          sc.stmts.push_back(
              "UPDATE account SET balance = balance + " +
              std::to_string(rng.Uniform(1, 50)) +
              ShardAcctWhere(w, rng.Uniform(1, kShardAccounts)));
        }
        if (rng.Bernoulli(0.2)) {
          // Thread-distinct key: inserts commute with everything.
          sc.stmts.push_back(
              "INSERT INTO account(w_id, id, balance) VALUES (" +
              std::to_string(w) + ", " +
              std::to_string(500 + thread * 64 + static_cast<int>(j)) +
              ", 10.0)");
        }
      }
    }
    scripts.push_back(std::move(sc));
  }
  return scripts;
}

void SetupShardAccounts(DbConnection* conn) {
  Must(conn, "CREATE TABLE account (w_id INTEGER NOT NULL, id INTEGER NOT "
             "NULL, balance DOUBLE, PRIMARY KEY(w_id, id))");
  for (int64_t w = 1; w <= kShardCount; ++w) {
    Must(conn, "BEGIN");
    conn->SetAnnotation("Setup");
    std::string values;
    for (int id = 1; id <= kShardAccounts; ++id) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(w) + ", " + std::to_string(id) + ", " +
                std::to_string(100 * id) + ".0)";
    }
    Must(conn, "INSERT INTO account(w_id, id, balance) VALUES " + values);
    Must(conn, "COMMIT");
  }
}

shard::ShardClusterOptions ShardChaosOptions() {
  shard::ShardClusterOptions opts;
  opts.shards = kShardCount;
  opts.routing = shard::RoutingPolicy::Tpcc().Shard("account", "w_id");
  return opts;
}

// Fault-free serial replay of the committed scripts minus `excluded` on a
// fresh cluster of the same shape; returns each shard's account-state hash.
std::vector<uint64_t> ShardReplayHashes(const std::vector<Script>& scripts,
                                        const std::vector<bool>& mask,
                                        const std::set<size_t>& excluded) {
  shard::ShardCluster cluster(ShardChaosOptions());
  IRDB_CHECK(cluster.Bootstrap().ok());
  auto conn = cluster.Connect();
  SetupShardAccounts(conn.get());
  for (size_t j = 0; j < scripts.size(); ++j) {
    if (!mask[j] || excluded.count(j) > 0) continue;
    Must(conn.get(), "BEGIN");
    conn->SetAnnotation(scripts[j].label);
    for (const std::string& sql : scripts[j].stmts) Must(conn.get(), sql);
    Must(conn.get(), "COMMIT");
  }
  std::vector<uint64_t> hashes;
  for (int s = 0; s < cluster.shards(); ++s) {
    hashes.push_back(cluster.db(s).StateHash({"account"}, {"trid"}));
  }
  return hashes;
}

void RunShardSplitIteration(int iter) {
  auto& reg = fail::Registry::Instance();
  reg.DisarmAll();
  reg.ResetStats();
  reg.Seed(g_seed * 7436429 + static_cast<uint64_t>(iter));

  shard::ShardCluster cluster(ShardChaosOptions());
  IRDB_CHECK(cluster.Bootstrap().ok());
  {
    auto setup = cluster.Connect();
    SetupShardAccounts(setup.get());
  }

  std::vector<std::set<int64_t>> baseline;
  for (int s = 0; s < cluster.shards(); ++s) {
    DirectConnection admin(&cluster.db(s));
    baseline.push_back(TransDepIds(&admin));
  }

  constexpr int kThreads = 3;
  constexpr size_t kScriptsPerThread = 6;
  std::vector<std::vector<Script>> per_thread;
  for (int t = 0; t < kThreads; ++t) {
    per_thread.push_back(MakeShardScripts(
        g_seed + 131 * static_cast<uint64_t>(iter) + t, t, kScriptsPerThread));
  }

  // Widened lock windows raise the odds that 2PC branches collide with
  // single-shard traffic on their home shards.
  reg.Arm("lock.acquire.delay",
          fail::Trigger::Probability(0.15 * g_profile.lock_mult));

  struct ThreadOutcome {
    std::vector<bool> committed_mask;
    // Per committed script: the global trid of every branch (one per
    // participant shard), captured just before the COMMIT that succeeded.
    std::vector<std::vector<int64_t>> branch_trids;
    int64_t retries = 0;
  };
  std::vector<ThreadOutcome> outcomes(kThreads);
  std::atomic<int> commits{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster, &per_thread, &outcomes, &commits,
                          &finished, t] {
      auto conn = cluster.Connect();
      auto* routed = static_cast<shard::RoutedSession*>(conn.get());
      ThreadOutcome& out = outcomes[t];
      out.committed_mask.assign(per_thread[t].size(), false);
      out.branch_trids.assign(per_thread[t].size(), {});
      for (size_t j = 0; j < per_thread[t].size(); ++j) {
        const Script& sc = per_thread[t][j];
        for (int attempt = 0; attempt < 400; ++attempt) {
          if (!conn->Execute("BEGIN").ok()) continue;
          conn->SetAnnotation(sc.label);
          Status failure = Status::Ok();
          for (const std::string& sql : sc.stmts) {
            auto r = conn->Execute(sql);
            if (!r.ok()) {
              failure = r.status();
              break;
            }
          }
          if (!failure.ok()) {
            (void)conn->Execute("ROLLBACK");
            if (RetryableClientFailure(failure)) {
              ++out.retries;
              std::this_thread::sleep_for(std::chrono::microseconds(500));
              continue;  // whole-script client retry (deadlock / shard down)
            }
            break;  // non-retryable failure: give the script up
          }
          std::vector<int64_t> trids;
          for (int s = 0; s < cluster.shards(); ++s) {
            if (const int64_t trid = routed->branch_trid(s); trid != 0) {
              trids.push_back(trid);
            }
          }
          auto commit = conn->Execute("COMMIT");
          if (commit.ok()) {
            out.committed_mask[j] = true;
            out.branch_trids[j] = std::move(trids);
            commits.fetch_add(1);
            break;
          }
          // A failed COMMIT already reset the routed transaction (2PC
          // validation aborts every branch before any commits).
          if (RetryableClientFailure(commit.status())) {
            ++out.retries;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            continue;
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      finished.fetch_add(1);
    });
  }

  // Partition controller: once a third of the scripts have committed, take
  // down the shard owning warehouse 1 (also the attack's home) and hold the
  // partition until the router has demonstrably turned clients away.
  const int victim = cluster.ShardOf(1);
  const int total = kThreads * static_cast<int>(kScriptsPerThread);
  const int64_t rejects_before =
      cluster.router_stats().shard_down_rejects.load();
  for (int spin = 0; spin < 20000; ++spin) {
    if (commits.load() >= total / 3 || finished.load() == kThreads) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (finished.load() < kThreads) {
    cluster.SetShardDown(victim, true);
    for (int spin = 0; spin < 20000; ++spin) {
      if (cluster.router_stats().shard_down_rejects.load() - rejects_before >=
              3 ||
          finished.load() == kThreads) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    cluster.SetShardDown(victim, false);
  }
  for (auto& th : threads) th.join();
  reg.DisarmAll();

  const int64_t down_rejects =
      cluster.router_stats().shard_down_rejects.load() - rejects_before;
  g_shard_down_rejects += down_rejects;
  int64_t retries = 0;
  for (const auto& out : outcomes) retries += out.retries;
  g_deadlock_client_retries += retries;

  // Flatten thread-major for the replay oracle and the tracking checks.
  std::vector<Script> flat;
  std::vector<bool> flat_mask;
  std::vector<std::vector<int64_t>> flat_trids;
  std::map<int64_t, size_t> trid_to_flat;
  size_t committed_count = 0;
  int64_t attack_trid = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < per_thread[t].size(); ++j) {
      const size_t idx = flat.size();
      flat.push_back(per_thread[t][j]);
      flat_mask.push_back(outcomes[t].committed_mask[j]);
      flat_trids.push_back(outcomes[t].branch_trids[j]);
      if (outcomes[t].committed_mask[j]) ++committed_count;
      for (int64_t trid : flat_trids.back()) {
        trid_to_flat[trid] = idx;
        if (flat.back().label == "Attack") attack_trid = trid;
      }
    }
  }

  // G. Tracking is exact on every shard: zero gaps, every committed branch
  // has its trans_dep row on its owning shard, and no phantom rows.
  std::set<int64_t> committed_trids;
  for (size_t j = 0; j < flat.size(); ++j) {
    if (!flat_mask[j]) continue;
    committed_trids.insert(flat_trids[j].begin(), flat_trids[j].end());
  }
  for (int s = 0; s < cluster.shards(); ++s) {
    DirectConnection admin(&cluster.db(s));
    ResultSet gap_rs = Must(&admin, "SELECT tr_id FROM tracking_gaps");
    Require(gap_rs.rows.empty(),
            "shard " + std::to_string(s) + " has " +
                std::to_string(gap_rs.rows.size()) +
                " tracking gaps (must be zero under kAbort)");
    const std::set<int64_t> ids = TransDepIds(&admin);
    for (int64_t id : ids) {
      if (baseline[static_cast<size_t>(s)].count(id) > 0) continue;
      Require(committed_trids.count(id) > 0,
              "shard " + std::to_string(s) + " trans_dep row for txn " +
                  std::to_string(id) + " which no client saw commit");
    }
    for (int64_t trid : committed_trids) {
      if (cluster.ShardOfTrid(trid) != s) continue;
      Require(ids.count(trid) > 0,
              "committed branch " + std::to_string(trid) +
                  " has no trans_dep row on its shard " + std::to_string(s));
    }
    RequireIndexesMatchHeap(&cluster.db(s),
                            "before coordinated repair (shard " +
                                std::to_string(s) + ")");
  }

  // H. Merged-replay equivalence (atomicity across the partition window).
  {
    const std::vector<uint64_t> expected =
        ShardReplayHashes(flat, flat_mask, {});
    for (int s = 0; s < cluster.shards(); ++s) {
      Require(cluster.db(s).StateHash({"account"}, {"trid"}) ==
                  expected[static_cast<size_t>(s)],
              "shard " + std::to_string(s) +
                  " state diverges from the merged serial replay of the "
                  "committed scripts");
    }
  }

  // I. Coordinated repair, rotating through the three strategies.
  size_t undo_scripts = 0, closure_size = 0;
  const char* strategy_name = "skipped";
  if (attack_trid != 0) {
    shard::ShardRepairOptions ropts;
    switch (iter % 3) {
      case 0:
        ropts.strategy = shard::ShardRepairStrategy::kOffline;
        strategy_name = "offline";
        break;
      case 1:
        ropts.strategy = shard::ShardRepairStrategy::kOnline;
        strategy_name = "online";
        break;
      default:
        ropts.strategy = shard::ShardRepairStrategy::kReenact;
        strategy_name = "reenact";
        break;
    }
    shard::ShardRepairCoordinator coord(&cluster, ropts);
    auto report = coord.Repair({attack_trid});
    Require(report.ok(),
            "coordinated repair: " + report.status().ToString());
    closure_size = report->closure.size();

    // A cross-shard script is never half-undone: the sibling links pull
    // every branch of a global transaction into the closure together.
    for (size_t j = 0; j < flat.size(); ++j) {
      if (!flat_mask[j] || flat_trids[j].size() < 2) continue;
      size_t in_closure = 0;
      for (int64_t trid : flat_trids[j]) {
        if (report->closure.count(trid) > 0) ++in_closure;
      }
      Require(in_closure == 0 || in_closure == flat_trids[j].size(),
              "script " + flat[j].label +
                  " is half-inside the repair closure (" +
                  std::to_string(in_closure) + " of " +
                  std::to_string(flat_trids[j].size()) + " branches)");
    }

    // What stayed undone, mapped back to whole scripts. Under reenact the
    // per-shard undo sets already exclude the replayed innocents.
    std::set<size_t> excluded;
    for (const auto& shard_report : report->per_shard) {
      for (int64_t trid : shard_report.undo_set) {
        auto it = trid_to_flat.find(trid);
        if (it != trid_to_flat.end()) excluded.insert(it->second);
      }
    }
    Require(excluded.count(trid_to_flat[attack_trid]) > 0,
            "attack script not in the coordinated undo set");
    undo_scripts = excluded.size();

    const std::vector<uint64_t> expected =
        ShardReplayHashes(flat, flat_mask, excluded);
    for (int s = 0; s < cluster.shards(); ++s) {
      Require(cluster.db(s).StateHash({"account"}, {"trid"}) ==
                  expected[static_cast<size_t>(s)],
              "shard " + std::to_string(s) + " post-repair (" +
                  strategy_name +
                  ") state diverges from the merged replay minus the undone "
                  "scripts");
      RequireIndexesMatchHeap(&cluster.db(s),
                              "after coordinated repair (shard " +
                                  std::to_string(s) + ")");
    }
  }

  const auto& rs = cluster.router_stats();
  std::printf("chaos: shrd iter %2d committed=%zu retries=%lld "
              "cross_shard=%lld 2pc_aborts=%lld down_rejects=%lld "
              "closure=%zu undo_scripts=%zu strategy=%s\n",
              iter, committed_count, static_cast<long long>(retries),
              static_cast<long long>(rs.cross_shard_txns.load()),
              static_cast<long long>(rs.twopc_aborts.load()),
              static_cast<long long>(down_rejects), closure_size,
              undo_scripts, strategy_name);
}

int ChaosMain(int argc, char** argv) {
  uint64_t seed = 20260805;
  if (const char* env = std::getenv("IRDB_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  int tpcc_iters = 13, repair_iters = 13, net_iters = 5, lock_iters = 5,
      serve_iters = 3, reenact_iters = 5, shard_iters = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--tpcc-iters=", 13) == 0) {
      tpcc_iters = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--repair-iters=", 15) == 0) {
      repair_iters = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--net-iters=", 12) == 0) {
      net_iters = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--lock-iters=", 13) == 0) {
      lock_iters = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--serve-iters=", 14) == 0) {
      serve_iters = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--reenact-iters=", 16) == 0) {
      reenact_iters = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--shard-iters=", 14) == 0) {
      shard_iters = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      const char* want = argv[i] + 10;
      bool found = false;
      for (const FaultProfile& p : kProfiles) {
        if (std::strcmp(p.name, want) == 0) {
          g_profile = p;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown profile '%s' (default, wire-heavy, "
                             "commit-heavy, net-reset, lock-contention, "
                             "serve-through, reenact, shard-split)\n",
                     want);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N] [--profile=NAME] [--tpcc-iters=N] "
                   "[--repair-iters=N] [--net-iters=N] [--lock-iters=N] "
                   "[--serve-iters=N] [--reenact-iters=N] [--shard-iters=N]\n"
                   "  (IRDB_CHAOS_SEED is honored when --seed is absent)\n",
                   argv[0]);
      return 2;
    }
  }
  g_seed = seed;
  std::printf("chaos: seed=%llu profile=%s tpcc_iters=%d repair_iters=%d "
              "net_iters=%d lock_iters=%d serve_iters=%d reenact_iters=%d "
              "shard_iters=%d\n",
              static_cast<unsigned long long>(seed), g_profile.name,
              tpcc_iters, repair_iters, net_iters, lock_iters, serve_iters,
              reenact_iters, shard_iters);

  for (int i = 0; i < tpcc_iters; ++i) RunTpccChaosIteration(i);
  for (int i = 0; i < net_iters; ++i) RunNetChaosIteration(i);
  for (int i = 0; i < repair_iters; ++i) RunRepairChaosIteration(i);
  for (int i = 0; i < reenact_iters; ++i) RunReenactChaosIteration(i);
  for (int i = 0; i < lock_iters; ++i) RunLockContentionIteration(i);
  for (int i = 0; i < serve_iters; ++i) RunServeThroughIteration(i);
  for (int i = 0; i < shard_iters; ++i) RunShardSplitIteration(i);

  Require(shard_iters < 3 || g_shard_down_rejects > 0,
          "no shard-down rejects across the whole run — the partition "
          "controller never bit");

  Require(g_dropped_round_trips + g_injected > 0,
          "no faults fired across the whole run — the harness is inert");

  // Observability invariants: counters and their paired journal events are
  // emitted at the same sites, so the totals must match exactly no matter
  // which fault profile ran.
  {
    const obs::Metrics& m = obs::Metrics::Get();
    Require(obs::CounterValue(m.proxy_degraded_commits) ==
                obs::EventJournal::Default().CountType(
                    obs::event::kProxyDegradedCommit),
            "degraded_commits counter != proxy.degraded_commit journal count");
    Require(obs::CounterValue(m.proxy_tracking_gap_txns) ==
                obs::EventJournal::Default().CountType(
                    obs::event::kProxyTrackingGap),
            "tracking_gap_txns counter != proxy.tracking_gap journal count");
    Require(obs::CounterValue(m.failpoint_trips) ==
                obs::EventJournal::Default().CountType(
                    obs::event::kFailpointTrip),
            "failpoint_trips counter != failpoint.trip journal count");
  }

  std::printf("chaos: OK  dropped_round_trips=%lld retries=%lld "
              "injected=%lld degraded_commits=%lld gap_txns=%lld "
              "deadlock_retries=%lld quarantine_rejects=%lld "
              "shard_down_rejects=%lld\n",
              static_cast<long long>(g_dropped_round_trips),
              static_cast<long long>(g_retries),
              static_cast<long long>(g_injected),
              static_cast<long long>(g_degraded_commits),
              static_cast<long long>(g_gap_txns),
              static_cast<long long>(g_deadlock_client_retries),
              static_cast<long long>(g_quarantine_rejects),
              static_cast<long long>(g_shard_down_rejects));
  return 0;
}

}  // namespace
}  // namespace irdb

int main(int argc, char** argv) { return irdb::ChaosMain(argc, argv); }
