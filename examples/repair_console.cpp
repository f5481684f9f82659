// Interactive damage-repair console (the paper's §6 "interactive database
// damage repair tool"). Reads commands from stdin — scriptable:
//
//   echo "seed Attack
//   whatif-derived warehouse Payment
//   explain
//   summary
//   repair
//   quit" | ./build/examples/repair_console
//
// Commands:
//   seed <label-prefix>            seed every txn whose label starts so
//   whatif-table <table>           ignore all dependencies via a table
//   whatif-derived <table> <pref>  ignore <table> deps written by <pref>*
//   whatif-edge <reader> <writer>  ignore one edge (proxy txn ids)
//   reset                          drop all assumptions
//   perimeter | explain | summary | dot
//   repair                         execute the selective undo
//   quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/resilient_db.h"
#include "repair/whatif.h"
#include "tpcc/loader.h"
#include "tpcc/workload.h"

using namespace irdb;

int main() {
  // Stage a compromised TPC-C system for the console session.
  DeploymentOptions opts;
  opts.traits = FlavorTraits::Postgres();
  opts.arch = ProxyArch::kSingleProxy;
  ResilientDb rdb(opts);
  IRDB_CHECK(rdb.Bootstrap().ok());
  auto conn = rdb.Connect().value();
  tpcc::TpccConfig config = tpcc::TpccConfig::Scaled(2);
  IRDB_CHECK(tpcc::LoadDatabase(conn.get(), config).ok());
  tpcc::TpccDriver driver(conn.get(), config, 555);
  for (int i = 0; i < 20; ++i) IRDB_CHECK(driver.RunMixed().ok());
  IRDB_CHECK(driver.AttackInflateBalance(1, 2, 7, 77777.0).ok());
  for (int i = 0; i < 40; ++i) IRDB_CHECK(driver.RunMixed().ok());

  auto analysis = rdb.repair().Analyze().value();
  repair::WhatIfSession session(std::move(analysis));
  std::printf("compromised TPC-C staged; attack label is Attack_1_2_7\n");
  std::printf("%s\n> ", session.Summary().c_str());
  std::fflush(stdout);

  auto print_delta = [](const repair::PerimeterDelta& d) {
    std::printf("perimeter change: +%zu / -%zu transactions\n",
                d.added.size(), d.removed.size());
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      // fallthrough to prompt
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "seed") {
      std::string prefix;
      in >> prefix;
      int n = session.AddSeedsByLabelPrefix(prefix);
      std::printf("seeded %d transaction(s)\n", n);
    } else if (cmd == "whatif-table") {
      std::string table;
      in >> table;
      print_delta(session.IgnoreTable(table));
    } else if (cmd == "whatif-derived") {
      std::string table, prefix;
      in >> table >> prefix;
      print_delta(session.IgnoreDerived(table, prefix));
    } else if (cmd == "whatif-edge") {
      int64_t reader = 0, writer = 0;
      in >> reader >> writer;
      print_delta(session.IgnoreEdge(reader, writer));
    } else if (cmd == "reset") {
      print_delta(session.Reset());
    } else if (cmd == "perimeter") {
      for (int64_t id : session.Perimeter()) {
        std::printf("%s ", session.analysis().graph.Label(id).c_str());
      }
      std::printf("\n");
    } else if (cmd == "explain") {
      std::fputs(session.Explain().c_str(), stdout);
    } else if (cmd == "summary") {
      std::printf("%s\n", session.Summary().c_str());
    } else if (cmd == "dot") {
      std::fputs(session.Dot().c_str(), stdout);
    } else if (cmd == "repair") {
      auto report = rdb.repair().CompensateUndoSet(session.analysis(),
                                                   session.Perimeter());
      if (!report.ok()) {
        std::printf("repair failed: %s\n", report.status().ToString().c_str());
      } else {
        std::printf("undid %zu transactions (%lld compensating statements)\n",
                    report->undo_set.size(),
                    static_cast<long long>(report->ops_compensated));
      }
    } else {
      std::printf("unknown command: %s\n", cmd.c_str());
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("bye\n");
  return 0;
}
