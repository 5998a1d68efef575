#!/usr/bin/env bash
# ci.sh — the mechanical regression gate.
#
# Runs, in order:
#   1. go build ./...
#   2. go vet ./...
#   3. go test -race ./...       (includes the StreamCells determinism and
#                                 compile-key property tests, and replays
#                                 the committed fuzz seed corpora), then a
#                                 time-boxed -fuzz run of each fuzz target:
#                                 the beat decoder, the fault-plan parser,
#                                 ivliw-bench's -shard/-claim parsers, the
#                                 spec parser, the coordinator manifest
#                                 decoder, ivliw-served's submission
#                                 endpoint, and the differential simulator
#                                 target (RunLoop, RunLoopBatch lanes and
#                                 the reference simulator must agree)
#   4. byte-identity of `ivliw-bench -exp all` at 1 and 2 workers against
#      the committed golden transcript (cmd/ivliw-bench/testdata/
#      exp_all.golden), so any drift in the paper reproduction is caught
#      before it lands; `-exp fig5`, `-exp fig7` and `-exp headlines`, each
#      in a fresh process, must equal their sections of it (inside `-exp
#      all` those sections reuse cells the earlier figures simulated)
#   5. sweep determinism: `ivliw-bench -spec` of the committed default spec
#      (cmd/ivliw-bench/testdata/default.json; tri.json, mshr.json and
#      skew.json there are the grids of steps 7, 8 and 9) must emit
#      identical JSON across worker counts (1 vs 8) AND across the
#      compiled-schedule cache being disabled (-compile-cache 0) vs
#      enabled — the staged pipeline's byte-identity invariant
#   6. sharding, the disk artifact store and usage errors: the default spec
#      run as 3 concatenated -shard slices over a fresh -artifact-dir, and
#      re-run against the then-warm store, must be byte-identical to the
#      cache-disabled single-process reference; malformed -shard values,
#      removed flags (-sweep, -spec-out, -coordinate-backoff) and sweep
#      flags without -spec (-coordinate, -shard, -spec-hash) must exit 2
#   7. coordinated runs over a health-checked pool of worker subprocesses:
#      `-coordinate 3` (3 workers sharing the default grid's 2
#      cost-balanced tasks) must stitch output byte-identical to the
#      unsharded reference and record the serving worker per task in the
#      manifest — including a run where one task's first attempt is crashed
#      by a scripted fault plan (IVLIW_FAULT_PLAN, see ivliw/sweep/fault)
#      and retried — and rerunning over the same -coordinate-dir must
#      resume all tasks from the manifest with zero launches; on the tri
#      grid, which the coordinator cuts into 3 tasks, a fault plan that
#      kills one worker and hangs one task (caught by the stale-heartbeat
#      monitor, the only hang detector) must still stitch identical bytes;
#      the run snapshot (pool wall time, fault recovery time) is written to
#      BENCH_6.json
#   8. batched simulation: `-sim-batch 8` (sibling cells sharing one pass
#      over the access stream) must emit bytes identical to the batch-off
#      reference — serial, parallel, and through the coordinator's worker
#      pool — and must actually engage (the "sim batches:" stderr line);
#      so must `-sim-batch 16` on the MSHR grid (mshr.json), whose lanes
#      form MSHR families sharing one back half until their fill bound can
#      bite; the BenchmarkSweepBatch1/2/4/8 scaling curve (plus the
#      batch-off 4-sibling baseline) is written to BENCH_7.json
#   9. cost-balanced chunks + work stealing: on the skew grid, a
#      mixed-cluster grid (its 2-cluster half compiles in tens of
#      milliseconds, its 8-cluster half in hundreds), `-calibrate` must
#      round-trip through a calibration file; `-coordinate 2` must stitch
#      byte-identically — including a run with an injected chunk crash —
#      and a corrupt calibration file must degrade to the default model
#      with a warning, never a failure. The grid must stay skewed (the
#      heavier of the two count-balanced `-shard i/2` runs takes >= 200ms).
#      The hard perf gate: the 2-worker makespan of the coordinator's
#      chunks (from contention-free serialized per-chunk wall times,
#      scheduled exactly as the claim queue does) must beat those two
#      count-balanced shards by >= 1.5x; the measured makespans land in
#      BENCH_8.json
#  10. sweep as a service: start `ivliw-served` (a worker pool of
#      ivliw-bench subprocesses), submit the default spec over HTTP with
#      `ivliw-load -submit`, gate its job ID equal to `ivliw-bench
#      -spec-hash` of the same spec file (clients predict job IDs
#      offline), gate the streamed JSONL byte-identical to the direct CLI
#      run, gate dedup (a second identical submission reports
#      cached=true and the server's execution counter does not move), and
#      gate the SIGTERM drain; the 1000-submission replay property (every
#      duplicate dedups: executions == distinct specs, zero failures) is
#      the in-process TestReplayDedupsOverlappingSubmissions in step 3
#  11. static analysis: build `ivliw-vet` (internal/lintcheck) and gate the
#      repo clean under all five analyzers (atomicwrite, strictjson,
#      determinism, ctxplumb, nopanic) plus annotation validation; then a
#      seeded-violation smoke module must fail with exit 1 and the expected
#      diagnostics, and -json must emit them as parseable JSON — so a
#      silently broken analyzer can never fake a clean repo. The analyzer
#      wall time per KLoC lands in BENCH_10.json
#
# The BENCH_6-8.json and BENCH_10.json snapshots and the step-9
# calibration file are written under the run's temporary directory, never
# into the tree; each snapshot's path and contents are printed when it is
# written.
#
# Usage: scripts/ci.sh
# To refresh the golden transcript after an *intentional* output change:
#   go run ./cmd/ivliw-bench -exp all > cmd/ivliw-bench/testdata/exp_all.golden
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
served_pid=""
trap 'if [ -n "$served_pid" ]; then kill "$served_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT
# The committed spec files steps 5-10 run.
specs=cmd/ivliw-bench/testdata

echo "== 1/11 go build ./... =="
go build ./...

echo "== 2/11 go vet ./... =="
go vet ./...

echo "== 3/11 go test -race ./... and time-boxed fuzzing =="
go test -race ./...
# Fuzz the parsers of input that crosses a process boundary (beat files,
# fault plans, the -shard/-claim arguments a pool worker receives, spec
# files, coordinator manifests and the bodies ivliw-served accepts) and the
# simulator from loop to cycles against its reference (FuzzSimulate). Their
# committed seed corpora (testdata/fuzz) already ran in the line above.
# -fuzzminimizetime bounds the minimization of each new input to 50
# executions: under Go's 60 s default, a target whose executions take
# milliseconds spends its whole time box minimizing and barely fuzzes.
for target in "FuzzReadBeat ./sweep" "FuzzParse ./sweep/fault" \
    "FuzzParseShard ./cmd/ivliw-bench" "FuzzParseClaim ./cmd/ivliw-bench" \
    "FuzzParseSpec ./sweep" "FuzzOpenManifest ./sweep" \
    "FuzzSubmitBody ./sweep/serve" "FuzzSimulate ./internal/sim"; do
  read -r name pkg <<< "$target"
  go test -run '^$' -fuzz "^$name\$" -fuzztime 10s -fuzzminimizetime 50x -parallel 2 "$pkg"
done

echo "== 4/11 paper-output byte identity (ivliw-bench -exp all, fig5, fig7, headlines) =="
go build -o "$tmp/ivliw-bench" ./cmd/ivliw-bench
golden=cmd/ivliw-bench/testdata/exp_all.golden
for w in 1 2; do
  "$tmp/ivliw-bench" -exp all -workers "$w" > "$tmp/exp_all_w$w.txt"
  if ! cmp -s "$golden" "$tmp/exp_all_w$w.txt"; then
    echo "FAIL: ivliw-bench -exp all -workers $w drifted from the golden transcript:" >&2
    diff "$golden" "$tmp/exp_all_w$w.txt" | head -40 >&2
    exit 1
  fi
done
# golden_section prints the golden section whose first line starts with $1,
# up to the next line starting with $2 (to the end when $2 is empty),
# without the blank line `-exp all` writes after each section.
golden_section() { # first_line_prefix next_section_prefix
  awk -v start="$1" -v stop="$2" '
    index($0, start) == 1 { on = 1 }
    on && stop != "" && index($0, stop) == 1 { exit }
    on { lines[n++] = $0 }
    END { for (i = 0; i < n - 1; i++) print lines[i] }' "$golden"
}
# Inside -exp all these sections read cells the earlier figures left in the
# figure functions' tables; alone, in a fresh process, they start cold.
for section in "fig5|Figure 5:|Figure 6:" "fig7|Figure 7:|Figure 8:" "headlines|Headline numbers|"; do
  IFS='|' read -r exp start stop <<< "$section"
  golden_section "$start" "$stop" > "$tmp/golden_$exp.txt"
  "$tmp/ivliw-bench" -exp "$exp" > "$tmp/exp_$exp.txt"
  if [ ! -s "$tmp/golden_$exp.txt" ] || ! cmp -s "$tmp/golden_$exp.txt" "$tmp/exp_$exp.txt"; then
    echo "FAIL: ivliw-bench -exp $exp differs from its section of the golden transcript:" >&2
    diff "$tmp/golden_$exp.txt" "$tmp/exp_$exp.txt" | head -40 >&2
    exit 1
  fi
done
echo "byte-identical (-exp all at 1 and 2 workers; fig5, fig7, headlines alone)"

echo "== 5/11 sweep determinism across workers and compile cache =="
# run_sweep keeps stderr (cache-stats noise, but also any crash) in a log
# that is replayed if the invocation fails.
run_sweep() { # out_file, args...
  local out="$1"; shift
  if ! "$tmp/ivliw-bench" "$@" > "$out" 2> "$tmp/sweep_stderr.log"; then
    echo "FAIL: ivliw-bench $* crashed:" >&2
    cat "$tmp/sweep_stderr.log" >&2
    exit 1
  fi
}
# Reference: serial, no schedule cache (every cell compiles from scratch).
run_sweep "$tmp/sweep_ref.jsonl" -spec "$specs/default.json" -workers 1 -compile-cache 0
# Parallel with the default cache: must be byte-identical to the reference.
run_sweep "$tmp/sweep_cache8.jsonl" -spec "$specs/default.json" -workers 8
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_cache8.jsonl"; then
  echo "FAIL: -spec output depends on -compile-cache/-workers (cache on, 8 workers)" >&2
  exit 1
fi
# Serial with the cache and parallel without it cover the remaining corners.
run_sweep "$tmp/sweep_cache1.jsonl" -spec "$specs/default.json" -workers 1
run_sweep "$tmp/sweep_nocache8.jsonl" -spec "$specs/default.json" -workers 8 -compile-cache 0
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_cache1.jsonl" || \
   ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_nocache8.jsonl"; then
  echo "FAIL: -spec output depends on -compile-cache or -workers" >&2
  exit 1
fi
# Streaming to -out must produce the same bytes as stdout.
run_sweep /dev/null -spec "$specs/default.json" -workers 8 -out "$tmp/sweep_file.jsonl"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_file.jsonl"; then
  echo "FAIL: -spec -out differs from stdout stream" >&2
  exit 1
fi
rows=$(wc -l < "$tmp/sweep_ref.jsonl")
if [ "$rows" -lt 12 ]; then
  echo "FAIL: default sweep produced only $rows rows (< 12)" >&2
  exit 1
fi
echo "deterministic ($rows rows; workers 1/8 × cache on/off × stdout/-out)"

echo "== 6/11 sharding, the disk artifact store and usage errors =="
# The default spec as 3 shards over a fresh shared artifact directory: the
# concatenation must reproduce the single-process reference exactly.
art="$tmp/artifacts"
for i in 0 1 2; do
  run_sweep "$tmp/shard_$i.jsonl" -spec "$specs/default.json" -shard "$i/3" -artifact-dir "$art"
done
cat "$tmp/shard_0.jsonl" "$tmp/shard_1.jsonl" "$tmp/shard_2.jsonl" > "$tmp/sweep_sharded.jsonl"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_sharded.jsonl"; then
  echo "FAIL: concatenated -shard outputs differ from the unsharded run" >&2
  exit 1
fi
# Warm pass: the shards populated the store, so this run must compile
# nothing and still emit identical bytes.
run_sweep "$tmp/sweep_warm.jsonl" -spec "$specs/default.json" -artifact-dir "$art"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_warm.jsonl"; then
  echo "FAIL: warm artifact-store run differs from the cold reference" >&2
  exit 1
fi
if ! grep -q 'artifact store' "$tmp/sweep_stderr.log"; then
  echo "FAIL: warm run never reported the artifact store (did -artifact-dir stop plumbing through?)" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
if grep 'artifact store' "$tmp/sweep_stderr.log" | grep -vq ', 0 compiles,'; then
  echo "FAIL: warm artifact-store run recompiled artifacts:" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
# Usage errors (exit 2): malformed or out-of-range -shard values, flags
# that are gone (the spec file is the only sweep description), and sweep
# flags without the -spec they shape.
want_usage_error() { # args...
  local rc=0
  "$tmp/ivliw-bench" "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: ivliw-bench $* exited $rc, want the usage error 2" >&2
    exit 1
  fi
}
for bad in "3/3" "-1/3" "x/3" "1x3" "0/0"; do
  want_usage_error -spec "$specs/default.json" -shard "$bad"
done
want_usage_error -sweep
want_usage_error -spec-out "$tmp/spec_out.json"
want_usage_error -spec "$specs/default.json" -coordinate 2 -coordinate-backoff 1s
want_usage_error -coordinate 2
want_usage_error -shard 0/2
want_usage_error -spec-hash
echo "shard/store byte-identical (3 shards; warm store compiles nothing); usage errors exit 2"

echo "== 7/11 coordinated runs over a worker pool: stitch, retry, resume, dead worker, hang =="
now_ns() { date +%s%N; }
# Plain coordinated run: 3 worker subprocesses of ivliw-bench with
# heartbeat monitoring on. The stitched output must reproduce the
# cache-disabled single-process reference byte for byte, and the manifest
# must attribute every task to the worker that served it.
coord="$tmp/coord"
t0=$(now_ns)
if ! "$tmp/ivliw-bench" -spec "$specs/default.json" -coordinate 3 -coordinate-dir "$coord" \
    -out "$tmp/coord.jsonl" 2> "$tmp/coord_stderr.log"; then
  echo "FAIL: ivliw-bench -coordinate 3 crashed:" >&2
  cat "$tmp/coord_stderr.log" >&2
  exit 1
fi
pool_ns=$(( $(now_ns) - t0 ))
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord.jsonl"; then
  echo "FAIL: coordinated output differs from the unsharded reference" >&2
  exit 1
fi
if ! grep -q '"worker": "w' "$coord/manifest.json"; then
  echo "FAIL: coordinator manifest does not attribute tasks to workers:" >&2
  cat "$coord/manifest.json" >&2
  exit 1
fi
# Forced failure: a scripted fault plan crashes shard 1's first attempt
# (and only that attempt — events are keyed by shard AND attempt, no marker
# files); the coordinator must retry it and still stitch identical bytes.
echo '{"events":[{"op":"crash","shard":1,"attempt":1}]}' > "$tmp/crash_plan.json"
if ! IVLIW_FAULT_PLAN="$tmp/crash_plan.json" \
    "$tmp/ivliw-bench" -spec "$specs/default.json" -coordinate 3 -coordinate-dir "$tmp/coord_retry" \
    -out "$tmp/coord_retry.jsonl" 2> "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: coordinator did not survive the injected shard failure:" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! grep -q 'fault: crash' "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: the fault plan never fired (IVLIW_FAULT_PLAN stopped plumbing through):" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! grep -q '1 retries' "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: coordinator did not report the retry:" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord_retry.jsonl"; then
  echo "FAIL: coordinated output with a retried shard differs from the reference" >&2
  exit 1
fi
# Resume: rerunning over the completed work dir must launch nothing (both
# tasks restored from the manifest) and still emit identical bytes.
if ! "$tmp/ivliw-bench" -spec "$specs/default.json" -coordinate 3 -coordinate-dir "$coord" \
    -out "$tmp/coord_resume.jsonl" 2> "$tmp/coord_resume_stderr.log"; then
  echo "FAIL: coordinator resume crashed:" >&2
  cat "$tmp/coord_resume_stderr.log" >&2
  exit 1
fi
if ! grep -q '3 workers, 2 tasks, 2 resumed, 0 launches' "$tmp/coord_resume_stderr.log"; then
  echo "FAIL: resume relaunched tasks it should have restored from the manifest:" >&2
  cat "$tmp/coord_resume_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord_resume.jsonl"; then
  echo "FAIL: resumed coordinator output differs from the reference" >&2
  exit 1
fi
# Fault plan: worker w1 dies on its first launch (its in-flight task must
# requeue and the worker quarantine) and task 2's first two attempts hang
# without heartbeating (the stale monitor must kill and retry them). Two
# hanging attempts pin the hang: when task 2's first attempt is w1's first
# launch, it dies before it can hang, and its retry hangs instead; a third
# attempt finishes within -coordinate-attempts 4. The stitched bytes must
# still be identical. The plan needs a task 2, and the default grid's
# 8-cluster atom outweighs its other two together, so -coordinate 3 cuts
# it into only 2 tasks. The tri grid has 3 compile-key atoms (one per
# cache capacity) of equal cost, which it cuts into 3. Retries start at
# once and a quarantine lasts the default 0.5-1s.
run_sweep "$tmp/tri_ref.jsonl" -spec "$specs/tri.json" -workers 1 -compile-cache 0
echo '{"events":[{"op":"dead-worker","worker":"w1"},{"op":"hang","shard":2,"attempt":1},{"op":"hang","shard":2,"attempt":2}]}' \
  > "$tmp/pool_plan.json"
t0=$(now_ns)
if ! IVLIW_FAULT_PLAN="$tmp/pool_plan.json" \
    "$tmp/ivliw-bench" -spec "$specs/tri.json" -coordinate 3 \
    -pool-stale 1s -coordinate-attempts 4 -coordinate-dir "$tmp/pool_fault" \
    -out "$tmp/pool_fault.jsonl" 2> "$tmp/pool_fault_stderr.log"; then
  echo "FAIL: coordinated run did not survive the fault plan:" >&2
  cat "$tmp/pool_fault_stderr.log" >&2
  exit 1
fi
pool_fault_ns=$(( $(now_ns) - t0 ))
if ! cmp -s "$tmp/tri_ref.jsonl" "$tmp/pool_fault.jsonl"; then
  echo "FAIL: coordinated output under the fault plan differs from the reference" >&2
  exit 1
fi
for want in '3 workers, 3 tasks' 'worker w1 died' 'quarantined' 'heartbeat stale'; do
  if ! grep -q "$want" "$tmp/pool_fault_stderr.log"; then
    echo "FAIL: faulted coordinated run never reported '$want':" >&2
    cat "$tmp/pool_fault_stderr.log" >&2
    exit 1
  fi
done
# Snapshot for PERFORMANCE.md. Byte-identity above is the hard gate; the
# timings are recorded, not thresholded (sub-second runs are noisy).
awk -v pool_ns="$pool_ns" -v fault_ns="$pool_fault_ns" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" 'BEGIN {
  printf "{\n"
  printf "  \"snapshot\": 6,\n"
  printf "  \"date\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", gover
  printf "  \"pool_seconds\": %.3f,\n", pool_ns / 1e9
  printf "  \"pool_fault_recovery_seconds\": %.3f\n", fault_ns / 1e9
  printf "}\n"
}' > "$tmp/BENCH_6.json"
echo "coordinated runs byte-identical (3 workers, 2 tasks; 1 injected failure retried; resume launches 0; dead-worker+hang fault plan); manifest attributes workers"
echo "snapshot written to $tmp/BENCH_6.json:"
cat "$tmp/BENCH_6.json"

echo "== 8/11 batched simulation: -sim-batch byte-identity and scaling curve =="
# The default grid's AB axis (0 vs 16 entries) is simulate-only, so every
# compile key owns 2 sibling cells — batching has real lanes to merge.
# Serial batched run: must be byte-identical to the batch-off reference.
run_sweep "$tmp/sweep_batch1.jsonl" -spec "$specs/default.json" -sim-batch 8 -workers 1
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_batch1.jsonl"; then
  echo "FAIL: -sim-batch 8 (serial) output differs from the batch-off reference" >&2
  exit 1
fi
# The stderr line proves batching actually engaged — a silently-off batch
# path would pass the cmp above while measuring nothing.
if ! grep -q 'sim batches:' "$tmp/sweep_stderr.log"; then
  echo "FAIL: -sim-batch 8 never reported sim batches (batching silently off?):" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
# Parallel batched run: batches are scheduled as tasks, rows still reorder
# back to grid order.
run_sweep "$tmp/sweep_batch8.jsonl" -spec "$specs/default.json" -sim-batch 8 -workers 8
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_batch8.jsonl"; then
  echo "FAIL: -sim-batch 8 (8 workers) output differs from the batch-off reference" >&2
  exit 1
fi
# Coordinator pool path: -sim-batch travels to worker subprocesses through
# the shared base spec, so every shard simulates in batches and the
# stitched output must still be byte-identical.
if ! "$tmp/ivliw-bench" -spec "$specs/default.json" -sim-batch 8 -coordinate 3 \
    -coordinate-dir "$tmp/pool_batch" -out "$tmp/pool_batch.jsonl" \
    2> "$tmp/pool_batch_stderr.log"; then
  echo "FAIL: pool run with -sim-batch 8 crashed:" >&2
  cat "$tmp/pool_batch_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/pool_batch.jsonl"; then
  echo "FAIL: pool output with -sim-batch 8 differs from the batch-off reference" >&2
  exit 1
fi
echo "batch-on byte-identical (serial, 8 workers, coordinator pool)"
# MSHR families: mshr.json crosses AB {0, 16} with MSHRs {0, 1, 2, 4, 8, 16}
# over four benchmarks, one of them overflowing the L1, so each benchmark's
# 12 siblings are one batch of two MSHR families whose shallow lanes fork
# from their leader mid-loop. Batched rows must equal the batch-off run.
run_sweep "$tmp/mshr_ref.jsonl" -spec "$specs/mshr.json" -workers 1
for w in 1 8; do
  run_sweep "$tmp/mshr_batch$w.jsonl" -spec "$specs/mshr.json" -sim-batch 16 -workers "$w"
  if ! cmp -s "$tmp/mshr_ref.jsonl" "$tmp/mshr_batch$w.jsonl" || \
     ! grep -q 'sim batches:' "$tmp/sweep_stderr.log"; then
    echo "FAIL: mshr.json with -sim-batch 16 ($w workers) differs from the batch-off run or never batched" >&2
    exit 1
  fi
done
if ! "$tmp/ivliw-bench" -spec "$specs/mshr.json" -sim-batch 16 -coordinate 3 \
    -coordinate-dir "$tmp/pool_mshr" -out "$tmp/pool_mshr.jsonl" \
    2> "$tmp/pool_mshr_stderr.log"; then
  echo "FAIL: pool run of mshr.json with -sim-batch 16 crashed:" >&2
  cat "$tmp/pool_mshr_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/mshr_ref.jsonl" "$tmp/pool_mshr.jsonl"; then
  echo "FAIL: pool output of mshr.json with -sim-batch 16 differs from the batch-off run" >&2
  exit 1
fi
echo "MSHR families byte-identical (serial, 8 workers, coordinator pool)"
# Scaling snapshot for PERFORMANCE.md: cells/s over 1/2/4/8 sibling lanes
# plus the batch-off 4-sibling baseline. Byte-identity above is the hard
# gate; the throughputs are recorded, not thresholded.
if ! go test -run '^$' -bench 'BenchmarkSweepBatch' -benchtime 500x . \
    > "$tmp/bench_batch.txt" 2>&1; then
  echo "FAIL: BenchmarkSweepBatch run crashed:" >&2
  cat "$tmp/bench_batch.txt" >&2
  exit 1
fi
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
  /^BenchmarkSweepBatch/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkSweepBatch/, "", name)
    for (i = 2; i < NF; i++) if ($(i + 1) == "cells/s") rate[name] = $i
  }
  END {
    printf "{\n"
    printf "  \"snapshot\": 7,\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"grid\": \"2 benches x 2 clusters x N simulate-only siblings, warm disk store, 1 worker\",\n"
    printf "  \"batch1_cells_per_s\": %s,\n", rate["1"]
    printf "  \"batch2_cells_per_s\": %s,\n", rate["2"]
    printf "  \"batch4_cells_per_s\": %s,\n", rate["4"]
    printf "  \"batch8_cells_per_s\": %s,\n", rate["8"]
    printf "  \"batch4_off_cells_per_s\": %s\n", rate["4Off"]
    printf "}\n"
  }' "$tmp/bench_batch.txt" > "$tmp/BENCH_7.json"
if grep -q ': ,' "$tmp/BENCH_7.json"; then
  echo "FAIL: BENCH_7.json has missing rates — benchmark output not parsed:" >&2
  cat "$tmp/bench_batch.txt" >&2
  exit 1
fi
echo "snapshot written to $tmp/BENCH_7.json:"
cat "$tmp/BENCH_7.json"

echo "== 9/11 cost-balanced chunks + work stealing =="
# The skew grid: the 2-cluster half compiles in tens of milliseconds, the
# 8-cluster half in hundreds — the workload shape cost-balanced cuts exist
# for. Its two benchmarks have the suite's steepest compile curves (epicdec
# about 12x, jpegdec about 5x from 2 to 8 clusters), so the light half stays
# a small share of the work; the six cache capacities give six 8-cluster
# atoms, which the claim queue can split evenly between two workers.
run_sweep "$tmp/skew_ref.jsonl" -spec "$specs/skew.json"
# Calibration round-trip: measure this machine, persist next to the BENCH
# snapshots, and prove the coordinator actually loads the file back.
calibration="$tmp/CALIBRATION.json"
t0=$(now_ns)
if ! "$tmp/ivliw-bench" -spec "$specs/skew.json" -calibrate "$calibration" \
    2> "$tmp/calibrate_stderr.log"; then
  echo "FAIL: ivliw-bench -calibrate crashed:" >&2
  cat "$tmp/calibrate_stderr.log" >&2
  exit 1
fi
calibrate_ns=$(( $(now_ns) - t0 ))
if ! grep -q 'calibration written to' "$tmp/calibrate_stderr.log"; then
  echo "FAIL: -calibrate never confirmed the write:" >&2
  cat "$tmp/calibrate_stderr.log" >&2
  exit 1
fi
# Byte-identity of the coordinator's cost-balanced chunks.
coord_skew() { # work_dir out_file extra_args...
  local work="$1" out="$2"; shift 2
  if ! "$tmp/ivliw-bench" -spec "$specs/skew.json" -coordinate 2 \
      -coordinate-dir "$work" -out "$out" "$@" 2> "$tmp/skew_stderr.log"; then
    echo "FAIL: skew coordinate run ($*) crashed:" >&2
    cat "$tmp/skew_stderr.log" >&2
    exit 1
  fi
  if ! cmp -s "$tmp/skew_ref.jsonl" "$out"; then
    echo "FAIL: skew coordinate run ($*) differs from the unsharded reference" >&2
    exit 1
  fi
}
coord_skew "$tmp/skew_pool" "$tmp/skew_pool.jsonl" \
  -coordinate-calibration "$calibration" -pool-stale 5s
if ! grep -qF "calibration loaded from $calibration" "$tmp/skew_stderr.log"; then
  echo "FAIL: the coordinator never loaded CALIBRATION.json back (round trip broken):" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# Injected crash while workers claim chunks: chunk 1's first attempt dies;
# the retry must converge on identical bytes.
echo '{"events":[{"op":"crash","shard":1,"attempt":1}]}' > "$tmp/skew_crash.json"
# Subshell: an env assignment prefixed to a *function* call would persist in
# this shell and poison every later run.
(
  export IVLIW_FAULT_PLAN="$tmp/skew_crash.json"
  coord_skew "$tmp/skew_crash" "$tmp/skew_crash.jsonl" \
    -coordinate-calibration "$calibration"
)
if ! grep -q 'fault: crash' "$tmp/skew_stderr.log"; then
  echo "FAIL: the skew crash plan never fired:" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# A corrupt calibration must degrade to the default model with a warning —
# and still stitch identical bytes.
echo '{"clusters": [], "broken' > "$tmp/corrupt_cal.json"
coord_skew "$tmp/skew_corrupt" "$tmp/skew_corrupt.jsonl" \
  -coordinate-calibration "$tmp/corrupt_cal.json"
if ! grep -q 'unusable.*default cost model' "$tmp/skew_stderr.log"; then
  echo "FAIL: corrupt calibration did not degrade with a warning:" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# The perf gate. This container may have a single CPU, so end-to-end wall
# time of concurrent workers only measures time-slicing; instead, serialize
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
  run_sweep "$tmp/skew_count_$i.jsonl" -spec "$specs/skew.json" -workers 1 -shard "$i/2"
  shard_ms=$(( ($(now_ns) - t0) / 1000000 ))
  if [ "$shard_ms" -gt "$count_ms" ]; then count_ms=$shard_ms; fi
done
cat "$tmp/skew_count_0.jsonl" "$tmp/skew_count_1.jsonl" > "$tmp/skew_count.jsonl"
if ! cmp -s "$tmp/skew_ref.jsonl" "$tmp/skew_count.jsonl"; then
  echo "FAIL: the count-balanced -shard i/2 halves differ from the unsharded reference" >&2
  exit 1
fi
coord_skew "$tmp/skew_t_steal" "$tmp/skew_t_steal.jsonl" -workers 1 \
  -coordinate-parallel 1 -coordinate-calibration "$calibration"
steal_ms=$(makespan "$tmp/skew_t_steal/manifest.json" 2)
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
echo "cost+steal byte-identical (1 injected crash; corrupt calibration degraded)"
echo "2-worker makespan: count ${count_ms}ms, cost+steal ${steal_ms}ms"
awk -v count_ms="$count_ms" -v steal_ms="$steal_ms" -v calibrate_ns="$calibrate_ns" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" 'BEGIN {
  printf "{\n"
  printf "  \"snapshot\": 8,\n"
  printf "  \"date\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", gover
  printf "  \"grid\": \"clusters 2,8 x cache 4-128KB x AB 0,16 x epicdec,jpegdec (48 rows, 12 compile-key atoms)\",\n"
  printf "  \"count_makespan_ms\": %d,\n", count_ms
  printf "  \"steal_makespan_ms\": %d,\n", steal_ms
  printf "  \"steal_vs_count_speedup\": %.2f,\n", count_ms / steal_ms
  printf "  \"calibrate_seconds\": %.3f\n", calibrate_ns / 1e9
  printf "}\n"
}' > "$tmp/BENCH_8.json"
echo "snapshot written to $tmp/BENCH_8.json:"
cat "$tmp/BENCH_8.json"

echo "== 10/11 sweep as a service: ivliw-served + ivliw-load =="
go build -o "$tmp/ivliw-served" ./cmd/ivliw-served
go build -o "$tmp/ivliw-load" ./cmd/ivliw-load
# Start the daemon on an ephemeral port: a worker pool of real
# subprocesses of the step-4 ivliw-bench, durable state under $tmp/served.
"$tmp/ivliw-served" -addr 127.0.0.1:0 -addr-file "$tmp/served.addr" \
  -dir "$tmp/served" -executors 2 -worker-bin "$tmp/ivliw-bench" \
  2> "$tmp/served_stderr.log" &
served_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/served.addr" ] && break
  if ! kill -0 "$served_pid" 2>/dev/null; then
    echo "FAIL: ivliw-served died on startup:" >&2
    cat "$tmp/served_stderr.log" >&2
    exit 1
  fi
  sleep 0.05
done
if [ ! -s "$tmp/served.addr" ]; then
  echo "FAIL: ivliw-served never wrote its address file" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
served_url="http://$(cat "$tmp/served.addr")"
# First submission: executed once, rows streamed back byte-identical to the
# direct CLI run of the very same spec file (the step-5 reference).
if ! "$tmp/ivliw-load" -addr "$served_url" -submit "$specs/default.json" \
    -rows "$tmp/served_rows.jsonl" > "$tmp/submit1.txt" 2> "$tmp/load_stderr.log"; then
  echo "FAIL: HTTP submission failed:" >&2
  cat "$tmp/load_stderr.log" "$tmp/served_stderr.log" >&2
  exit 1
fi
if ! grep -q 'state=done dedup=false cached=false' "$tmp/submit1.txt"; then
  echo "FAIL: first submission was not a fresh executed job: $(cat "$tmp/submit1.txt")" >&2
  exit 1
fi
# The job ID is the spec's semantic hash, which clients predict offline.
want_job=$("$tmp/ivliw-bench" -spec "$specs/default.json" -spec-hash)
got_job=$(grep -o 'job=[0-9a-f]*' "$tmp/submit1.txt" | cut -d= -f2)
if [ "$got_job" != "$want_job" ]; then
  echo "FAIL: served job ID '$got_job' differs from ivliw-bench -spec-hash '$want_job'" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/served_rows.jsonl"; then
  echo "FAIL: served JSONL differs from the direct CLI run of the same spec" >&2
  exit 1
fi
# Second identical submission: a cache hit — served from the results store,
# rows identical, and the server's execution counter must not move.
if ! "$tmp/ivliw-load" -addr "$served_url" -submit "$specs/default.json" \
    -rows "$tmp/served_rows2.jsonl" > "$tmp/submit2.txt" 2>> "$tmp/load_stderr.log"; then
  echo "FAIL: duplicate HTTP submission failed:" >&2
  cat "$tmp/load_stderr.log" >&2
  exit 1
fi
if ! grep -q 'state=done dedup=true cached=true' "$tmp/submit2.txt"; then
  echo "FAIL: duplicate submission was not served from the cache: $(cat "$tmp/submit2.txt")" >&2
  exit 1
fi
exec1=$(grep -o 'executions=[0-9]*' "$tmp/submit1.txt" | cut -d= -f2)
exec2=$(grep -o 'executions=[0-9]*' "$tmp/submit2.txt" | cut -d= -f2)
if [ "$exec1" != "$exec2" ]; then
  echo "FAIL: duplicate submission moved the execution counter ($exec1 -> $exec2)" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/served_rows2.jsonl"; then
  echo "FAIL: cached rows differ from the executed rows" >&2
  exit 1
fi
echo "served rows byte-identical; duplicate submission cached with zero new executions"
# Graceful drain: SIGTERM must stop the daemon cleanly (exit 0).
kill -TERM "$served_pid"
rc=0
wait "$served_pid" || rc=$?
served_pid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: ivliw-served exited $rc on SIGTERM:" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
if ! grep -q 'drained' "$tmp/served_stderr.log"; then
  echo "FAIL: ivliw-served never reported the drain:" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
echo "SIGTERM drained, exit 0"

echo "== 11/11 static analysis: ivliw-vet clean gate + seeded-violation smoke =="
go build -o "$tmp/ivliw-vet" ./cmd/ivliw-vet
# Clean gate, timed: the repo must satisfy its own analyzers. A warm-up run
# first so the measurement is the analysis, not `go list` compiling export
# data for the dependency graph.
"$tmp/ivliw-vet" ./... > /dev/null
vet_start_ms=$(date +%s%3N)
if ! "$tmp/ivliw-vet" ./... > "$tmp/vet_repo.txt" 2>&1; then
  echo "FAIL: ivliw-vet found violations in the repo:" >&2
  cat "$tmp/vet_repo.txt" >&2
  exit 1
fi
vet_end_ms=$(date +%s%3N)
vet_wall_ms=$((vet_end_ms - vet_start_ms))
if [ -s "$tmp/vet_repo.txt" ]; then
  echo "FAIL: ivliw-vet exited 0 but printed output:" >&2
  cat "$tmp/vet_repo.txt" >&2
  exit 1
fi
echo "repo clean under all five analyzers (${vet_wall_ms} ms)"
# Seeded-violation smoke: a scratch module carrying one violation per
# analyzer. ivliw-vet must exit 1 (not 0: analyzer asleep; not 2: loader
# broke) and name each expected finding.
mkdir -p "$tmp/vetsmoke/lib"
cat > "$tmp/vetsmoke/go.mod" <<'EOF'
module vetsmoke

go 1.24
EOF
cat > "$tmp/vetsmoke/lib/lib.go" <<'EOF'
package lib

import (
	"context"
	"encoding/json"
	"os"
)

type T struct{ A int }

func Bad(path string, data []byte) error {
	var t T
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	_ = context.Background()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	panic("boom")
}

//ivliw:bogus not a real verb
func Weird() {}
EOF
rc=0
"$tmp/ivliw-vet" -dir "$tmp/vetsmoke" ./... > "$tmp/vet_smoke.txt" 2>/dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: ivliw-vet exited $rc on the seeded-violation module, want 1:" >&2
  cat "$tmp/vet_smoke.txt" >&2
  exit 1
fi
for expect in \
  '\[strictjson\] json.Unmarshal' \
  '\[ctxplumb\] context.Background' \
  '\[atomicwrite\] os.WriteFile' \
  '\[nopanic\] panic in library code' \
  '\[annotation\] unknown annotation verb "bogus"'; do
  if ! grep -q "$expect" "$tmp/vet_smoke.txt"; then
    echo "FAIL: seeded violation not reported (want /$expect/):" >&2
    cat "$tmp/vet_smoke.txt" >&2
    exit 1
  fi
done
# -json mode must carry the same findings as a JSON array.
"$tmp/ivliw-vet" -json -dir "$tmp/vetsmoke" ./... > "$tmp/vet_smoke.json" 2>/dev/null || true
smoke_lines=$(wc -l < "$tmp/vet_smoke.txt")
json_count=$(grep -c '"analyzer":' "$tmp/vet_smoke.json")
if [ "$json_count" -ne "$smoke_lines" ]; then
  echo "FAIL: -json emitted $json_count findings, text mode $smoke_lines:" >&2
  cat "$tmp/vet_smoke.json" >&2
  exit 1
fi
echo "seeded-violation smoke: exit 1, all 5 expected diagnostics, -json agrees ($json_count findings)"
# BENCH_10.json: analyzer cost normalized per KLoC of non-test module source.
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/lintcheck/testdata/*' \
  -exec cat {} + | wc -l)
ms_per_kloc=$(awk "BEGIN { printf \"%.2f\", $vet_wall_ms * 1000 / $loc }")
printf '{\n  "snapshot": 10,\n  "date": "%s",\n  "go": "%s",\n  "analyzers": ["atomicwrite", "strictjson", "determinism", "ctxplumb", "nopanic", "annotation"],\n  "repo_findings": 0,\n  "non_test_loc": %s,\n  "wall_ms": %s,\n  "ms_per_kloc": %s\n}\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(go env GOVERSION)" "$loc" "$vet_wall_ms" "$ms_per_kloc" > "$tmp/BENCH_10.json"
echo "snapshot written to $tmp/BENCH_10.json:"
cat "$tmp/BENCH_10.json"

echo "CI PASS"
