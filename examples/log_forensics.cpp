// Log forensics tour (§4): the same short history inspected through each
// vendor's log-access mechanism —
//   PostgreSQL : raw WAL records with complete before/after images;
//   Oracle     : the LogMiner view with synthesized sql_redo / sql_undo;
//   Sybase     : `dbcc log` records (MODIFY carries only changed bytes) and
//                the §4.3 full-row reconstruction via `dbcc page`.
#include <cstdio>

#include "flavor/oracle_logminer.h"
#include "flavor/postgres_reader.h"
#include "flavor/sybase_reader.h"
#include "proxy/tracking_proxy.h"
#include "wire/connection.h"

using namespace irdb;

namespace {

// The same small history on any flavor: create, insert, update twice,
// delete — through a tracking proxy so trid stamping is visible.
void RunHistory(Database* db) {
  DirectConnection direct(db);
  proxy::TxnIdAllocator alloc;
  proxy::TrackingProxy proxy(&direct, &alloc, db->traits());
  IRDB_CHECK(proxy.EnsureTrackingTables().ok());
  auto run = [&](const char* sql) {
    auto r = proxy.Execute(sql);
    IRDB_CHECK_MSG(r.ok(), r.status().ToString());
  };
  run("CREATE TABLE account (id INTEGER, owner VARCHAR(12), balance DOUBLE)");
  run("BEGIN");
  run("INSERT INTO account(id, owner, balance) VALUES (1, 'alice', 100.0), "
      "(2, 'bob', 200.0)");
  run("COMMIT");
  run("BEGIN");
  run("UPDATE account SET balance = 150.0 WHERE id = 1");
  run("COMMIT");
  run("BEGIN");
  run("DELETE FROM account WHERE id = 2");
  run("COMMIT");
  run("BEGIN");
  run("UPDATE account SET owner = 'alicia' WHERE id = 1");
  run("COMMIT");
}

std::string Preview(const std::vector<std::pair<std::string, Value>>& values) {
  std::string out;
  for (const auto& [col, v] : values) {
    if (!out.empty()) out += ", ";
    out += col + "=" + v.ToString();
  }
  return out;
}

}  // namespace

int main() {
  // --- PostgreSQL -----------------------------------------------------
  {
    std::printf("=== PostgreSQL flavor: raw WAL reader ===\n");
    Database db(FlavorTraits::Postgres());
    RunHistory(&db);
    PostgresLogReader reader(&db);
    const std::vector<RepairOp> ops = reader.ReadCommitted().value();
    for (const RepairOp& op : ops) {
      if (op.table != "account") continue;
      std::printf("lsn=%-4lld txn=%-3lld %-6s %-9s rowid=%lld%s%s  [%s]\n",
                  (long long)op.lsn, (long long)op.internal_txn_id,
                  LogOpName(op.op), op.table.c_str(),
                  (long long)op.row_address,
                  op.before_trid ? " prev-writer=T" : "",
                  op.before_trid ? std::to_string(*op.before_trid).c_str() : "",
                  Preview(op.values).c_str());
    }
  }

  // --- Oracle ----------------------------------------------------------
  {
    std::printf("\n=== Oracle flavor: v$logmnr_contents ===\n");
    Database db(FlavorTraits::Oracle());
    RunHistory(&db);
    const std::vector<LogMinerRow> view =
        BuildLogMinerView(&db, db.wal().records()).value();
    for (const LogMinerRow& row : view) {
      if (row.table_name != "account") continue;
      std::printf("scn=%-4lld xid=%-3lld %-6s\n    redo: %s\n    undo: %s\n",
                  (long long)row.scn, (long long)row.xid,
                  row.operation.c_str(), row.sql_redo.c_str(),
                  row.sql_undo.c_str());
    }
  }

  // --- Sybase ----------------------------------------------------------
  {
    std::printf("\n=== Sybase flavor: dbcc log + §4.3 reconstruction ===\n");
    Database db(FlavorTraits::Sybase());
    RunHistory(&db);
    std::vector<SybaseLogRow> log = DbccLog(db.wal().records());
    auto page_reader = [&](int32_t table_id, int32_t page) {
      return DbccPage(&db, table_id, page);
    };
    auto slot_offset = [&](int32_t table_id, int32_t column) -> size_t {
      return (size_t)db.catalog().FindById(table_id)->schema().ColumnOffset(
          column);
    };
    auto account_id = db.catalog().TableId("account").value();
    for (size_t i = 0; i < log.size(); ++i) {
      const SybaseLogRow& rec = log[i];
      if (rec.table_id != account_id) continue;
      std::printf("lsn=%-4lld xid=%-3lld %-6s page=%d off=%-4d len=%d",
                  (long long)rec.lsn, (long long)rec.xid,
                  rec.op == LogOp::kUpdate ? "MODIFY" : LogOpName(rec.op),
                  rec.page, rec.offset, rec.len);
      if (rec.op == LogOp::kUpdate) {
        std::printf("  changed-slots={");
        for (size_t d = 0; d < rec.diff.size(); ++d) {
          std::printf("%s#%d", d ? "," : "", rec.diff[d].column);
        }
        std::printf("}");
        // The rid column is NOT in the diff — reconstruct the full row.
        auto images = RestoreFullImages(log, i, page_reader, slot_offset);
        IRDB_CHECK(images.ok());
        const HeapTable* t = db.catalog().Find("account");
        auto row = t->codec().Decode(images->before).value();
        std::printf("\n    reconstructed before-image:");
        for (size_t c = 0; c < row.values.size(); ++c) {
          std::printf(" %s=%s", t->schema().column(c).name.c_str(),
                      row.values[c].ToString().c_str());
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
