#!/usr/bin/env bash
# Builds and runs one bench binary, leaving BENCH_<name>.json in the repo
# root (or $2 if given). Every acceptance gate lives in the bench binary's
# own exit code, so this script exits non-zero exactly when the bench does.
#
# Usage: tools/run_bench.sh <name> [out.json]
#
#   concurrency  serial-mode baseline vs the lock manager, connection sweep
#                with realtime I/O stalls (gate: >= 3x at 8 connections,
#                no tracking gaps)
#   index        heap scan vs B+ tree index at 1e4/1e5/1e6 rows (gate: 10x
#                at 1e6 rows, identical answers)
#   net          networked front-end throughput over an emulated LAN link
#   online       serve-through repair availability vs offline repair, 8 TCP
#                connections (gate: >= 90% clean-key availability)
#   proxy        plan-cache ablation (cold vs cached statements/s)
#   reenact      reenactment vs undo-only repair under the simulated disk
#                model (gate: more innocent rows kept at no worse wall time)
#   repair       repair-pipeline thread scaling over {1,2,4,8} workers
#                (gate: identical undo sets and repaired states)
#   shard        1/2/4/8 engine shards behind the router (gate: no tracking
#                gaps, 2PC commits at N >= 2, >= 3x at 8 shards)
set -euo pipefail

usage() {
  echo "usage: $0 <concurrency|index|net|online|proxy|reenact|repair|shard>" \
       "[out.json]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
name="$1"
case "$name" in
  concurrency) target=bench_concurrency ;;
  index) target=bench_index ;;
  net) target=bench_net_throughput ;;
  online) target=bench_online_repair ;;
  proxy) target=bench_proxy_cache ;;
  reenact) target=bench_reenact ;;
  repair) target=bench_repair_speed ;;
  shard) target=bench_shard ;;
  *) usage ;;
esac

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${2:-$repo/BENCH_$name.json}"

cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" --target "$target" -j"$(nproc)" >/dev/null

"$repo/build/bench/$target" --out="$out"
