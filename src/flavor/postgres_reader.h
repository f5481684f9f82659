// PostgreSQL-flavor log reader (§4.2).
//
// PostgreSQL keeps complete before/after row images in its WAL; the paper's
// authors reverse-engineered the format and built a "LogMiner-kind" plugin.
// This reader is that plugin: it walks raw WAL records and decodes the full
// byte images against the catalog's row layout.
#pragma once

#include "flavor/log_reader.h"

namespace irdb {

class PostgresLogReader : public FlavorLogReader {
 public:
  using FlavorLogReader::FlavorLogReader;
  using FlavorLogReader::ReadCommitted;

  Result<std::vector<RepairOp>> ReadCommitted(const WalView& log) override;

  std::string name() const override { return "postgres-walreader"; }
};

}  // namespace irdb
