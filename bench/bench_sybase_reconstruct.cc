// §4.3 micro-benchmark: cost of the Sybase full-row reconstruction algorithm
// as a function of log length and same-page DELETE density.
//
// Each iteration reconstructs the before/after images of every MODIFY record
// in a synthetic single-page history generated against a live Sybase-flavor
// table, validating that reconstruction stays affordable relative to the
// repair pass that consumes it.
#include <benchmark/benchmark.h>

#include "engine/database.h"
#include "flavor/sybase_reader.h"
#include "util/rng.h"
#include "wire/connection.h"

namespace irdb {
namespace {

// Builds a history of n_ops random INSERT/UPDATE/DELETE statements over a
// Sybase-flavor table, with `delete_permille` of operations being deletes.
std::unique_ptr<Database> BuildHistory(int n_ops, int delete_permille,
                                       Rng* rng) {
  auto db = std::make_unique<Database>(FlavorTraits::Sybase());
  DirectConnection conn(db.get());
  IRDB_CHECK(conn.Execute("CREATE TABLE t (k INTEGER, v INTEGER, "
                          "rid INTEGER IDENTITY)").ok());
  std::vector<int> live_keys;
  for (int i = 0; i < n_ops; ++i) {
    const int roll = static_cast<int>(rng->Uniform(0, 999));
    if (live_keys.empty() || roll >= 600) {
      IRDB_CHECK(conn.Execute("INSERT INTO t(k, v) VALUES (" +
                              std::to_string(i) + ", 0)").ok());
      live_keys.push_back(i);
    } else if (roll < delete_permille) {
      size_t pick = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(live_keys.size()) - 1));
      IRDB_CHECK(conn.Execute("DELETE FROM t WHERE k = " +
                              std::to_string(live_keys[pick])).ok());
      live_keys[pick] = live_keys.back();
      live_keys.pop_back();
    } else {
      IRDB_CHECK(conn.Execute("UPDATE t SET v = v + 1 WHERE k % 7 = " +
                              std::to_string(rng->Uniform(0, 6))).ok());
    }
  }
  return db;
}

void BM_SybaseReconstruct(benchmark::State& state) {
  const int n_ops = static_cast<int>(state.range(0));
  const int delete_permille = static_cast<int>(state.range(1));
  Rng rng(1234);
  auto db = BuildHistory(n_ops, delete_permille, &rng);
  std::vector<SybaseLogRow> log = DbccLog(db->wal().records());
  auto page_reader = [&](int32_t table_id, int32_t page) {
    return DbccPage(db.get(), table_id, page);
  };
  auto slot_offset = [&](int32_t table_id, int32_t column) -> size_t {
    return static_cast<size_t>(db->catalog()
                                   .FindById(table_id)
                                   ->schema()
                                   .ColumnOffset(column));
  };
  int64_t modifies = 0;
  for (auto _ : state) {
    modifies = 0;
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].op != LogOp::kUpdate) continue;
      auto images = RestoreFullImages(log, i, page_reader, slot_offset);
      IRDB_CHECK(images.ok());
      benchmark::DoNotOptimize(images);
      ++modifies;
    }
  }
  state.counters["log_records"] = static_cast<double>(log.size());
  state.counters["modify_records"] = static_cast<double>(modifies);
}
BENCHMARK(BM_SybaseReconstruct)
    ->Args({200, 50})
    ->Args({200, 300})
    ->Args({1000, 50})
    ->Args({1000, 300})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace irdb

BENCHMARK_MAIN();
