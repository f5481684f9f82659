// Reenactment repair (DESIGN.md §5i) — replay innocent dependents instead of
// cascading the undo.
//
// The paper's repair only *undoes*: every transaction in the dependency
// closure of a malicious seed is compensated away, destroying the intended
// effects of innocent dependents. Reenactment (Ultraverse / the Reenactment
// papers) heals differently: after the closure is mechanically compensated —
// which is exactly the state "history minus the closure" — the closure's
// innocent members are re-executed from the statement journal in dependency
// order, so their intent is recomputed against the corrected state and only
// the seeds stay undone.
//
// Replay contract:
//   - Order: ascending proxy id. Proxy ids are assigned in commit order and
//     every trans_dep edge points from a later reader to an earlier writer,
//     so ascending id is a topological order of the kept dependency graph.
//   - Parallelism: connected components of the kept-edge graph restricted to
//     the replay set share no tracked dependency and are replayed
//     concurrently (one lane per component); members of one component replay
//     serially in ascending id. 2PL arbitrates physical conflicts between
//     lanes; deadlocked replays retry bounded, and a lane whose transaction
//     exhausts them stops its component there — after the lanes join, the
//     stopped components resume one at a time in component order, so a
//     lost lock race never demotes (serial and parallel reports agree).
//   - Divergence: a replayed statement that errors, or whose result
//     fingerprint (SELECT row count / DML affected count) differs from the
//     journaled one, demotes its transaction to undo — the replay rolls back
//     and the transaction's downstream closure within the replay set stays
//     undone too. Value-level differences do NOT demote: recomputing new
//     values against the corrected state is the point of reenactment.
//   - Demotion is conservative: tracking-gap transactions (dependency set
//     lost) and transactions with no journal entry (e.g. history predating a
//     recovery) are demoted up front, with their downstream closure.
//     Dependence on a *seed* never demotes — that would collapse
//     reenactment back into undo-only.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "repair/analyzer.h"
#include "repair/compensator.h"
#include "repair/dba_policy.h"
#include "txn/stmt_journal.h"

namespace irdb::repair {

// Why a closure member stayed undone instead of being replayed.
enum class DemoteReason {
  kTrackingGap,   // dependency metadata lost; replay order unknowable
  kNoJournal,     // no journaled statements (history predates the journal)
  kDiverged,      // replay fingerprint mismatch or statement error
  kDownstream,    // depends (through kept edges) on a demoted transaction
  kReplayFailed,  // infrastructure failure (e.g. deadlock retries exhausted
                  // with no other replay lane running)
};

const char* DemoteReasonName(DemoteReason r);

// Outcome of RepairEngine::RepairReenact.
struct ReenactReport {
  // Compensation accounting for the mechanical closure undo. `undo_set` is
  // rewritten to the transactions that STAYED undone after replay: the
  // seeds plus every demotion.
  RepairReport repair;
  std::set<int64_t> closure;   // full dependency closure of the seeds
  std::set<int64_t> replayed;  // innocent members successfully re-executed
  std::map<int64_t, DemoteReason> demoted;
  int64_t diverged = 0;        // demotions caused by a fingerprint mismatch
  int64_t stmts_replayed = 0;
  int components = 0;          // independent subgraphs replayed
  int replay_lanes = 1;        // concurrent component lanes (1 when serial)
  double replay_wall_ms = 0;
};

// The deterministic part of reenactment: which closure members replay, in
// what order, grouped how. Pure function of its inputs — the parallel replay
// consumes the same plan the serial one does.
struct ReenactPlan {
  // Replayable members in ascending proxy id (global replay order).
  std::vector<int64_t> replay_order;
  // Members demoted before any replay ran (gaps, missing journal entries,
  // and their kept-edge downstream closure).
  std::map<int64_t, DemoteReason> pre_demoted;
  // Connected components of the kept-edge graph restricted to
  // `replay_order`, each sorted ascending; components are mutually
  // dependency-free and safe to replay concurrently.
  std::vector<std::vector<int64_t>> components;
};

ReenactPlan PlanReenact(const DependencyAnalysis& analysis,
                        const std::set<int64_t>& closure,
                        const std::vector<int64_t>& seed_proxy_ids,
                        const DbaPolicy& policy, const StmtJournal& journal);

// Replays the plan against `db` (closure already compensated), filling the
// replay fields of `out`. A multi-lane `pool` replays components
// concurrently; pass nullptr for the serial walk. Never fails the repair:
// replay problems demote the transaction involved (plus its downstream
// within its component) and the report says so.
void ExecuteReenactPlan(Database* db, const DependencyAnalysis& analysis,
                        const DbaPolicy& policy, const StmtJournal& journal,
                        const ReenactPlan& plan, util::ThreadPool* pool,
                        ReenactReport* out);

}  // namespace irdb::repair
