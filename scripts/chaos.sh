#!/usr/bin/env bash
# Chaos sweep for the replication fault-injection subsystem.
#
# 1. Runs the fault_test chaos harness (20-seed sweep across every fault
#    profile: convergence, no replica errors, no asserts).
# 2. Runs the CLI twice with the same fault seed and diffs the exported
#    metrics + trace byte-for-byte: the end-to-end determinism contract.
# 3. Sweeps hattrick_cli across fault seeds to prove no schedule can
#    crash a full benchmark run.
# Steps 2 and 3 run on every user of the shared standby chain
# (StandbySet): postgres-sr, and tidb-dist at 1 and 3 shards.
#
# Usage: scripts/chaos.sh [seeds]   (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-20}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target fault_test hattrick_cli

echo "== fault_test: chaos sweep =="
./build/tests/fault_test

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# One system per standby-chain user: the isolated engine's standby, and
# the sharded engine's per-shard learners at 1 and 3 shards.
SYSTEMS=("--system=postgres-sr"
         "--system=tidb-dist --shards=1"
         "--system=tidb-dist --shards=3")

run_cli() {  # run_cli <system flags> <seed> <suffix>
  # shellcheck disable=SC2086  # the system flags are meant to split
  ./build/tools/hattrick_cli point $1 --sf=0.5 \
      --t=2 --a=1 --warmup=0.05 --measure=0.2 \
      --fault-profile=chaos --fault-seed="$2" \
      --metrics-out="$TMP/m$3.json" --trace-out="$TMP/t$3.json" \
      > "$TMP/stdout$3.txt"
}

for system in "${SYSTEMS[@]}"; do
  echo "== CLI same-seed determinism ($system) =="
  run_cli "$system" 7 a
  run_cli "$system" 7 b
  diff "$TMP/ma.json" "$TMP/mb.json" \
    || { echo "FAIL: same-seed metrics diverged ($system)" >&2; exit 1; }
  diff "$TMP/ta.json" "$TMP/tb.json" \
    || { echo "FAIL: same-seed traces diverged ($system)" >&2; exit 1; }
  # The report prints the output paths in '#' comment lines; compare the
  # measured values only.
  diff <(grep -v '^#' "$TMP/stdouta.txt") <(grep -v '^#' "$TMP/stdoutb.txt") \
    || { echo "FAIL: same-seed reports diverged ($system)" >&2; exit 1; }
done

for system in "${SYSTEMS[@]}"; do
  echo "== CLI fault-seed sweep (1..$SEEDS, $system) =="
  for seed in $(seq 1 "$SEEDS"); do
    for profile in drop crash chaos; do
      # shellcheck disable=SC2086
      ./build/tools/hattrick_cli point $system --sf=0.25 \
          --t=2 --a=1 --warmup=0.05 --measure=0.1 \
          --fault-profile="$profile" --fault-seed="$seed" >/dev/null \
        || { echo "FAIL: $system profile=$profile seed=$seed" >&2; exit 1; }
    done
    echo -n "."
  done
  echo
done
echo "OK"
