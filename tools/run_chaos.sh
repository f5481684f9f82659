#!/usr/bin/env bash
# Chaos soak: runs the seeded fault-injection harness across N seeds and
# every fault profile (including net-reset, which tears down real TCP
# connections mid-transaction), in both the regular build and an
# AddressSanitizer build, failing on the first invariant violation (the
# harness prints the seed so any failure replays exactly). A third,
# ThreadSanitizer build (-DIRDB_SANITIZE=thread) then runs the `parallel`,
# `net`, `concurrency`, `storage`, `reenact`, and `shard` ctest labels — the
# parallel repair pipeline's determinism and equivalence tests and the WAL
# snapshot-under-appends test (parallel_repair_test), the sharded
# metrics-registry hammer (obs_test), the networked front-end's
# concurrent-session suite (net_test), the lock-manager/concurrent-execution
# suite (concurrency_test), the serve-through quarantine suite
# (quarantine_test), the B+ tree / buffer-pool / tombstone-heap suite
# (storage_test), and the multi-shard router/2PC/coordinated-repair suite
# (shard_test) — and finally every chaos profile for the first seed, where
# repair races live traffic (serve-through's RepairOnline scans the WAL
# while commits append to it). ThreadSanitizer exits non-zero on any
# warning, so data races in the worker pool, the WAL's segmented snapshots,
# sharded closure, batched compensation, the shard-per-thread registry, the
# executors' one-shot connection ownership (each connection's mutex, the
# connection table, the drain at Stop), the lock manager and latch layering, the
# online-repair quarantine gate, the storage layer's pin/evict accounting,
# or the router tier's session/stat folding surface here rather than in
# production.
#
# The serve-through profile races RepairOnline against a live TCP workload
# and checks the post-release state byte-for-byte against the offline-repair
# oracle with zero tracking gaps (DESIGN.md §5g).
#
# The reenact profile shifts faults onto the commit path so the reenactment
# iterations exercise the conservative demotion planner, and every iteration
# checks the reenacted state byte-for-byte against the undo-then-reapply
# oracle (DESIGN.md §5i).
#
# The shard-split profile partitions one shard of a routed cluster away
# mid-load and checks zero tracking gaps on every shard plus per-shard state
# equality against a merged replay oracle, before and after a coordinated
# cross-shard repair (DESIGN.md §5j).
#
# Usage: tools/run_chaos.sh [num_seeds] [base_seed]
#   num_seeds  seeds per profile per config (default 5)
#   base_seed  first seed; seeds are base_seed..base_seed+num_seeds-1
#              (default 20260805)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
num_seeds="${1:-5}"
base_seed="${2:-20260805}"
profiles=(default wire-heavy commit-heavy net-reset lock-contention serve-through reenact shard-split)

run_config() {
  local build_dir="$1"; shift
  local label="$1"; shift
  cmake -B "$build_dir" -S "$repo" "$@" >/dev/null
  cmake --build "$build_dir" --target chaos_test -j"$(nproc)" >/dev/null
  for profile in "${profiles[@]}"; do
    for ((i = 0; i < num_seeds; ++i)); do
      seed=$((base_seed + i))
      echo "[$label] profile=$profile seed=$seed"
      "$build_dir/tests/chaos_test" --seed="$seed" --profile="$profile" \
        | tail -1
    done
  done
}

run_config "$repo/build" "plain"
run_config "$repo/build-asan" "asan" -DIRDB_SANITIZE=address

echo "[tsan] parallel repair + net front-end + lock manager + quarantine + storage + reenact + shard under ThreadSanitizer"
cmake -B "$repo/build-tsan" -S "$repo" -DIRDB_SANITIZE=thread >/dev/null
cmake --build "$repo/build-tsan" --target parallel_repair_test obs_test net_test concurrency_test quarantine_test storage_test reenact_test shard_test chaos_test -j"$(nproc)" >/dev/null
(cd "$repo/build-tsan" && ctest -L 'parallel|net|concurrency|storage|reenact|shard' --output-on-failure)
for profile in "${profiles[@]}"; do
  echo "[tsan] profile=$profile seed=$base_seed"
  "$repo/build-tsan/tests/chaos_test" --seed="$base_seed" --profile="$profile" \
    | tail -1
done

echo "chaos soak passed: ${#profiles[@]} profiles x $num_seeds seeds x 2 configs + tsan parallel/net/concurrency/storage/reenact/shard suites + tsan ${#profiles[@]} profiles x 1 seed"
