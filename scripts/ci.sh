#!/usr/bin/env bash
# ci.sh — the checks `go test ./...` cannot make.
#
# Tier-1 (`go build ./... && go test ./...`) is the gate for every
# deterministic property: the golden transcript, byte-identical sweep rows
# across workers, compile caches, shards, the artifact store, batching,
# coordination, fault plans and HTTP, the CLI usage errors, the served
# daemon and the ivliw-vet smoke module. This script adds what needs the
# race detector, the fuzzer, formatting or wall-clock time. It runs, in
# order:
#   1. go vet ./...
#   2. gofmt -l: any file it lists fails the run
#   3. go test -race ./... (which also replays every committed fuzz seed
#      corpus), then a time-boxed -fuzz run of every Fuzz target that
#      `go test -list` finds
#   4. the makespan gate of cost-balanced chunks with work stealing on the
#      skew grid (cmd/ivliw-bench/testdata/skew.json): the heavier of the
#      two count-balanced `-shard i/2` halves takes >= 200ms, and the
#      2-worker makespan of the coordinator's chunks beats it by >= 1.5x
#
# The step-4 calibration file is written under the run's temporary
# directory, never into the tree.
#
# Usage: scripts/ci.sh
# To refresh the golden transcript after an *intentional* output change:
#   go run ./cmd/ivliw-bench -exp all > cmd/ivliw-bench/testdata/exp_all.golden
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== 1/4 go vet ./... =="
go vet ./...

echo "== 2/4 gofmt -l =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt would reformat:" >&2
  echo "$unformatted" >&2
  exit 1
fi
echo "every Go file is gofmt-clean"

echo "== 3/4 go test -race ./... and time-boxed fuzzing =="
go test -race ./...
# Every Fuzz function of the module is fuzzed: `go test -list` prints each
# package's matching names, then an "ok <package>" line.
list="$(go test -list '^Fuzz' ./...)"
targets=()
names=()
while read -r first pkg _; do
  case "$first" in
    Fuzz*) names+=("$first") ;;
    ok)
      for name in ${names[@]+"${names[@]}"}; do targets+=("$name $pkg"); done
      names=()
      ;;
  esac
done <<< "$list"
if [ "${#targets[@]}" -eq 0 ]; then
  echo "FAIL: go test -list found no Fuzz targets:" >&2
  echo "$list" >&2
  exit 1
fi
echo "fuzzing ${#targets[@]} targets:"
printf '  %s\n' "${targets[@]}"
# -fuzzminimizetime bounds the minimization of each new input to 50
# executions: under Go's 60 s default, a target whose executions take
# milliseconds spends its whole time box minimizing and barely fuzzes.
for target in "${targets[@]}"; do
  read -r name pkg <<< "$target"
  go test -run '^$' -fuzz "^$name\$" -fuzztime 10s -fuzzminimizetime 50x -parallel 2 "$pkg"
done

echo "== 4/4 cost-balanced chunks + work stealing: the makespan gate =="
go build -o "$tmp/ivliw-bench" ./cmd/ivliw-bench
# The skew grid: the 2-cluster half compiles in tens of milliseconds, the
# 8-cluster half in hundreds — the workload shape cost-balanced cuts exist
# for. Its two benchmarks have the suite's steepest compile curves (epicdec
# about 12x, jpegdec about 5x from 2 to 8 clusters), so the light half stays
# a small share of the work; the six cache capacities give six 8-cluster
# atoms, which the claim queue can split evenly between two workers.
# TestCostBalancedChunks (cmd/ivliw-bench) checks that every run below
# writes the unsharded rows; this step only times them.
skew=cmd/ivliw-bench/testdata/skew.json
now_ns() { date +%s%N; }
# run_bench keeps stderr in a log that is replayed if the invocation fails.
run_bench() { # out_file, args...
  local out="$1"; shift
  if ! "$tmp/ivliw-bench" "$@" > "$out" 2> "$tmp/stderr.log"; then
    echo "FAIL: ivliw-bench $* crashed:" >&2
    cat "$tmp/stderr.log" >&2
    exit 1
  fi
}
# Calibrate the cost model that sizes and orders the chunks on this host.
calibration="$tmp/CALIBRATION.json"
run_bench /dev/null -spec "$skew" -calibrate "$calibration"
# This container may have a single CPU, so end-to-end wall time of
# concurrent workers only measures time-slicing; instead, serialize
# launches (-coordinate-parallel 1) for contention-free per-chunk wall
# times from the manifest, then compute the 2-worker makespan by replaying
# exactly the coordinator's schedule (heaviest-first claim by the next idle
# worker). That makespan is the wall time of any machine with >= 2 free
# cores. The count-balanced baseline is the two equal-row-count halves a
# manual `-shard i/2` split runs, timed one after the other; with one
# worker per half, its makespan is the slower half. Both sides evaluate
# their rows on one goroutine (-workers 1), as the replay assumes: a count
# half has a dozen compiles to spread over the host's cores, a one-atom
# chunk only two, so letting each process use every core would measure the
# host's free cores instead of the schedule.
makespan() { # manifest_file workers
  grep -o '"wall_ms": [0-9]*' "$1" | awk -v W="$2" '
    { w[n++] = $2 }
    END {
      for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
          if (w[j] > w[i]) { t = w[i]; w[i] = w[j]; w[j] = t }
      for (k = 0; k < W; k++) load[k] = 0
      for (i = 0; i < n; i++) {
        m = 0
        for (k = 1; k < W; k++) if (load[k] < load[m]) m = k
        load[m] += w[i]
      }
      best = 0
      for (k = 0; k < W; k++) if (load[k] > best) best = load[k]
      print best
    }'
}
count_ms=0
for i in 0 1; do
  t0=$(now_ns)
  run_bench "$tmp/count_$i.jsonl" -spec "$skew" -workers 1 -shard "$i/2"
  shard_ms=$(( ($(now_ns) - t0) / 1000000 ))
  if [ "$shard_ms" -gt "$count_ms" ]; then count_ms=$shard_ms; fi
done
run_bench /dev/null -spec "$skew" -coordinate 2 -coordinate-dir "$tmp/steal" -out "$tmp/steal.jsonl" \
  -workers 1 -coordinate-parallel 1 -coordinate-calibration "$calibration"
# A timed run that wrote other rows would time other work.
cat "$tmp/count_0.jsonl" "$tmp/count_1.jsonl" > "$tmp/count.jsonl"
if ! cmp -s "$tmp/count.jsonl" "$tmp/steal.jsonl"; then
  echo "FAIL: the count-balanced halves and the coordinated run wrote different rows" >&2
  exit 1
fi
steal_ms=$(makespan "$tmp/steal/manifest.json" 2)
echo "2-worker makespan: count ${count_ms}ms, cost+steal ${steal_ms}ms"
# The gate below only means something while the grid is skewed: count
# balancing must leave one half with real work.
if [ "$count_ms" -lt 200 ]; then
  echo "FAIL: the heavier count-balanced half ran only ${count_ms}ms (< 200ms); the skew grid has lost its skew and the makespan gate would measure noise" >&2
  exit 1
fi
if [ "$(( count_ms * 10 ))" -lt "$(( steal_ms * 15 ))" ]; then
  echo "FAIL: cost+stealing makespan ${steal_ms}ms is not >= 1.5x better than count-balanced ${count_ms}ms" >&2
  exit 1
fi

echo "CI PASS"
