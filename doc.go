// Package ivliw is a from-scratch reproduction of "Effective Instruction
// Scheduling Techniques for an Interleaved Cache Clustered VLIW Processor"
// (Enric Gibert, Jesús Sánchez, Antonio González — MICRO-35, 2002).
//
// The library contains the paper's compiler — modulo scheduling with swing
// ordering, selective loop unrolling, profile-guided latency assignment,
// memory dependent chains and the BASE/IBC/IPBC cluster-assignment
// heuristics — together with a cycle-level simulator of the three machine
// organizations the paper evaluates: a word-interleaved distributed data
// cache (optionally with Attraction Buffers), the cache-coherent multiVLIW,
// and a unified centralized cache.
//
// # Quick start
//
// Build a loop, wrap it in a Program (which fixes the data layout for the
// profile and execution data sets), compile it with one of the paper's
// heuristics and simulate it:
//
//	cfg := ivliw.DefaultConfig()           // Table 2 machine, interleaved cache
//	cfg.AttractionBuffers = true
//
//	b := ivliw.NewLoop("saxpy", 256, 1)
//	x := b.Load("x", ivliw.MemInfo{Sym: "x", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
//	m := b.Op("mul", ivliw.OpFPALU)
//	s := b.Store("y", ivliw.MemInfo{Sym: "y", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
//	b.Flow(x, m).Flow(m, s)
//	loop := b.MustBuild()
//
//	prog, err := ivliw.NewProgram(cfg, loop)   // validates cfg once
//	if err != nil { ... }
//	compiled, err := prog.Compile(loop, ivliw.CompileOptions{
//	    Heuristic: ivliw.IPBC,
//	    Unroll:    ivliw.Selective,
//	})
//	if err != nil { ... }
//	res := prog.Run(compiled)
//	fmt.Println(res.II, res.TotalCycles(), res.LocalHitRatio())
//
// The full benchmark harness behind the paper's figures lives in
// cmd/ivliw-bench; per-figure drivers are exposed through the same module's
// internal/experiments package and the top-level benchmarks in
// bench_test.go.
//
// # Declarative sweeps
//
// The paper evaluates one machine point (Table 2). The public ivliw/sweep
// package generalizes every constant of that point into an axis of a
// declarative, JSON-serializable sweep.Spec — the one way to run
// design-space experiments — with four orthogonal pieces:
//
//   - sweep.Spec describes a whole run as data: the machine grid (cluster
//     count, interleaving factor, cache geometry, FU mix, register buses,
//     Attraction Buffer size and hint budget, MSHR depth, bus and memory
//     latencies), the workload selection (paper benchmarks by name,
//     explicit sweep.SynthSpec synthetic workloads, or a seeded generated
//     population), the compiler configuration, the shard, the artifact
//     store and the output. Specs Validate() and round-trip through
//     Encode/ParseSpec byte-identically, so a run is a reproducible file
//     instead of flag soup;
//   - artifact stores make runs start warm: stage-1 compilations resolve
//     through a bounded in-memory LRU, optionally layered over a
//     persistent content-addressed on-disk store (Spec.Store.Dir) that is
//     corruption-safe (a damaged file is a miss, recompiled and atomically
//     rewritten) and shared freely across processes;
//   - sweep.Shard{Index, Count} partitions the row grid contiguously by
//     row index: the concatenation of all shards' JSONL outputs is
//     byte-identical to the unsharded run, so a grid can fan out across
//     processes or hosts from one spec file and one artifact directory;
//   - sweep.Sink consumes the rows (JSONL writer, in-memory Collector,
//     Func callback); a failing cell — e.g. an infeasible machine point —
//     yields a row with Error set instead of aborting the run.
//
// `ivliw-bench` is a thin front end over the package: -spec runs a spec
// file (Spec.Encode writes one), and -shard/-artifact-dir select the slice
// and the persistent store. The sweep package's ExampleRun walks a small
// grid end to end, and its tests check spec files
// (TestSpecRoundTripByteIdentical), sharding (TestShardAlgebra) and warm
// disk-store starts (TestRunWarmDiskStore). Every run of a spec — local,
// library, coordinated or served — is bounded: the full grid may expand to
// at most 8 192 rows (points × benchmarks; a shard counts the whole grid,
// not its slice), and a synthetic entry may ask for at most 1 024 Iters
// and a 256 KiB footprint. A larger sweep is split into several specs.
//
// # Coordinated sweeps
//
// sweep.Coordinate turns the manual sharding pattern ("ship the spec file,
// run every shard, cat the outputs") into one crash-safe call over n
// workers (CoordinatorOptions.Shards). It cuts the grid into range tasks
// (see "Cost-balanced coordination" below), runs them through a pluggable
// sweep.Launcher — sweep.InProcess (goroutines) or sweep.Pool, the one
// launcher that starts worker subprocesses (`ivliw-bench -spec F -shard
// i/n -out O -claim lo:hi`; prefixing a worker's command with `ssh host`
// is the multi-host seam over a shared filesystem) — retries failed
// attempts within a per-task attempt cap, one attempt in flight at a time,
// and stitches the per-task JSONL files into the final output
// byte-identical to the unsharded run (TestCoordinatedCLI and
// TestCoordinateThreeWorkers in cmd/ivliw-bench).
//
// The coordinator is built on an all-or-nothing file discipline: task
// outputs, the manifest and the stitched result only ever appear via
// whole-file atomic renames, so no reader can observe a truncated file. A
// manifest in the work directory records the spec fingerprint and every
// task's row range, status and attempt count, rewritten atomically on each
// transition; a coordinator killed at any instant — including mid-write —
// resumes by rerunning the same command over the same directory, restoring
// completed tasks for free (and, with a shared Spec.Store.Dir, even the
// dead tasks' compilations). Canceling the context (SIGINT/SIGTERM in
// `ivliw-bench`, which then exits 130) tears attempts down promptly and
// leaves only committed state behind. `ivliw-bench -coordinate n` wraps
// the whole workflow as a CLI over a pool of n subprocess workers;
// TestCoordinateRetriesInjectedFailures and
// TestCoordinateResumeSkipsCompleted exercise failure injection, stitching
// and resume against the package.
//
// # Worker pools and health
//
// sweep.Pool is the health-checked Launcher: it schedules task attempts
// across a registry of sweep.Worker entries (each a command prefix — the
// ssh seam again, or empty for in-process goroutines — and a slot count
// bounding concurrent attempts). It is also the coordinator's only hang
// detector: the coordinator waits for each attempt it launches, and
// liveness is heartbeat-based. With Pool.StaleAfter set, every attempt
// writes an atomically renamed beat file (`ivliw-bench -heartbeat`, or
// Spec.Heartbeat via sweep.Run), the final beat carries the row count and
// the sha256 of the committed output, and the pool kills any attempt whose
// beats go stale for StaleAfter, failing it back to the coordinator for a
// retry. The done-beat checksum is re-verified against the task file
// before the attempt counts as complete, so a corrupted output is retried
// instead of stitched. InProcess runs, and pools with StaleAfter 0, have
// no hang detection.
//
// Failure domains are per worker: consecutive failures quarantine the
// worker under capped exponential backoff, jittered by the worker's name
// (readmitted after the delay), and a worker that dies requeues all of its
// in-flight tasks at once onto the survivors. The coordinator manifest
// records, per attempt, which worker served it and how it failed. A
// deterministic fault harness (ivliw/sweep/fault, armed via the
// IVLIW_FAULT_PLAN env var) scripts crashes, hangs, stale heartbeats,
// corrupt outputs and dead workers by task/attempt/worker, which is how
// TestCoordinateSurvivesDeadWorkerAndHang (cmd/ivliw-bench) shows that task
// outputs stay byte-identical under every recovery path. `ivliw-bench
// -coordinate n` wraps it (stale after -pool-stale, 2s by default);
// TestPoolDeadWorkerRequeues drives a faulted pool end to end.
//
// # Cost-balanced coordination
//
// Rows do not cost the same: the paper suite compiles about 6× slower at 8
// clusters than at 2 (BenchmarkCompile c8 against c2: 51 against 8.1 ms,
// -cpu 1, go1.24), so equal row counts would leave one worker with most of
// the wall time. sweep.Calibration is a small persisted
// cost model — per-cluster-count compile and simulate costs (geometrically
// interpolated between measured points), a cache-geometry exponent and a
// sim-batch sharing discount — that prices every row of a grid from its
// config axes. sweep.Calibrate measures it on the actual machine
// (`ivliw-bench -calibrate calibration.json`; the file is strict-parsed
// like a Spec and atomically written, meant to live next to the BENCH_N
// snapshots), and CoordinatorOptions.Calibration loads it back — a missing
// or corrupt file degrades to the built-in default model with a warning,
// never a failure.
//
// The coordinator has one cut policy. One worker runs the grid as a single
// task. n > 1 workers get a work-stealing queue: the grid is cut into up
// to 4n chunks of equal predicted cost, only on compile-key atom
// boundaries (sibling runs of rows sharing one compiled artifact, so no
// artifact is compiled twice across tasks, and never more chunks than
// atoms), and idle workers claim the heaviest remaining chunk — a slow
// chunk delays only itself. A cut that would come out empty (an atom
// heavier than its equal share) is dropped, so every task launches. Tasks
// pin explicit row ranges through Shard.Lo/Hi (CLI protocol: `ivliw-bench
// -spec F -claim lo:hi`), and byte-identity holds by construction: rows
// are keyed by grid index, tasks tile the grid exactly, and the stitcher
// concatenates committed task files in index order (TestCostBalancedChunks
// in cmd/ivliw-bench runs `ivliw-bench -coordinate` on the skew grid,
// including an injected chunk crash). The manifest records per-attempt
// wall time and cells/s, which is both the coordinator's slowest-task
// stats line and the raw material for recalibration.
//
// # Sweep as a service
//
// ivliw/sweep/serve turns the sweep engine into a long-running platform:
// `ivliw-served` is an HTTP/JSON daemon that accepts sweep.Spec
// submissions (POST /v1/jobs, strict-parsed with a bounded body), executes
// them through sweep.Coordinate on a bounded job queue with configurable
// executor slots — in-process, or on a worker pool of subprocesses when
// -worker-bin is set — and serves job status
// (GET /v1/jobs/{job}: state, coordinator stats, per-shard attempt history
// from the manifest) and result rows (GET /v1/jobs/{job}/rows) — the
// streamed JSONL is byte-identical to the unsharded CLI run of the same
// spec, because it is the coordinator's stitched output served verbatim.
//
// The dedup contract: a job's identity is its spec's semantic hash
// (sweep.Spec.Hash — grid, workloads and compile options; per-process
// knobs like workers, stores, sharding and output naming are excluded), so
// two identical submissions cost one execution. A concurrent duplicate
// attaches to the in-flight job (job-level single-flight, mirroring
// pipeline.Cache's artifact-level one), a duplicate of a completed job is
// served from the per-job results directory with zero executions, and a
// resubmission of a failed job requeues it. `ivliw-bench -spec-hash`
// prints the hash so clients can predict dedup keys offline. Two
// *different* specs declaring the same Output.Path are rejected at
// submission (409): results are stored per job under <dir>/jobs/<hash>,
// never at client-named paths, and the collision is almost always a bug.
//
// Duplicates are answered from the job table. A job ID is the sha256 of
// the spec's canonical encoding with the per-process knobs cleared, so a
// body whose sha256 is a known job ID is that job's canonical encoding —
// what Spec.Encode writes, and so what `ivliw-load` sends for a spec file
// Spec.Encode wrote — and
// gets its dedup answer without being parsed, validated or hashed; any
// other body takes the full path to the same answer. A done job's status
// is rendered on its first poll and the stored bytes answer every later
// poll: done is final in a running daemon, and an out-of-band edit of the
// job's coordinator manifest after that first poll is not reflected.
//
// The lifecycle is crash-safe end to end: each job directory holds the
// canonical spec, an atomically rewritten state record
// (queued/running/done/failed), the committed rows and the coordinator's
// own manifest; jobs share one content-addressed artifact store. SIGTERM
// drains gracefully — running jobs tear down through the existing
// context-cancellation path and are persisted back to queued, new
// submissions get 503 + Retry-After — and a restarted daemon over the same
// directory resumes requeued jobs from their coordinator manifests instead
// of recomputing completed shards. `ivliw-load -submit` sends one spec
// file and saves the job's rows. TestServedOverPool (cmd/ivliw-served)
// checks the daemon's rows over a subprocess pool byte-identical to the
// direct run, and a duplicate cached with zero new executions.
// TestReplayDedupsOverlappingSubmissions (sweep/serve) checks
// that 1 000 overlapping submissions of 12 specs from 32 clients execute
// exactly 12 jobs, and perfbench's served-replay workload measures the
// submit-to-done latency.
//
// # Pipeline stages
//
// Compilation and simulation are two explicit stages with a serializable
// artifact between them (internal/pipeline):
//
//   - Stage 1 (Compile) runs unroll → latency assignment → ordering →
//     cluster assignment/scheduling over a benchmark's loops and captures
//     the result as a content-addressed Artifact: the modulo schedule (II,
//     kernel, latency assignment), the unroll factor, and the
//     compiler→simulator annotations (preferred clusters, dispersion,
//     attractable hints) as plain data. Artifacts round-trip through
//     encoding/gob.
//   - The artifact key hashes every compile-relevant input — loop IR,
//     profile seed, compiler options, alignment, and the layout-relevant
//     subset of the configuration (arch.Config.CompileKey) — and nothing
//     else. Simulate-only axes (memory buses, next-level ports, MSHR
//     depth, Attraction Buffer geometry while hints are off) do not
//     perturb the key, so sweep cells differing only in those axes share
//     one compilation through a bounded, single-flight artifact cache
//     (pipeline.Cache).
//   - Stage 2 (Simulate) builds the execution layout and cache hierarchy
//     for the cell's full configuration and runs the cycle-level simulator
//     against the (read-only, freely shared) artifact.
//
// sweep.Run streams the (point × benchmark) grid through both stages: rows
// are emitted in grid order as their cells complete, with memory bounded
// by a reorder window and the store capacity rather than the grid size, so
// 10^5+ cell grids run in constant space. Output is byte-identical for any
// store configuration, worker count and sharding (TestSweepDeterminism and
// TestShardsAndWarmStore in cmd/ivliw-bench).
// On the root API, Program.CompileArtifact and Program.RunArtifact expose
// the same two stages per loop, with artifacts cached by content inside
// the Program.
//
// # Batched simulation
//
// Sweep grids are dominated by cells that differ only in simulate-only
// axes — MSHR depth, memory buses, next-level ports, Attraction Buffer
// geometry while hints are off — and those siblings share an identical
// compiled artifact, an identical execution layout, and therefore an
// identical access stream. Spec.SimBatch (CLI: -sim-batch) caps how many
// sibling cells are evaluated together in one simulation pass: the
// kernel-order walk, the per-instruction address streams and the address
// → (home cluster, cache block) decomposition run once per access, while
// each sibling keeps its own cache hierarchy, bus model and statistics as
// a structure-of-arrays lane (pipeline.SimulateBatch over
// sim.RunLoopBatch).
// Simulating k siblings costs one shared front half plus k per-lane back
// halves instead of k full passes.
//
// Lanes that differ only in MSHR depth share more: they form a family led
// by the deepest lane (0 = unbounded). A lane of depth m behaves exactly
// like the leader until m or more fills are outstanding at an access, so a
// follower whose tags equal the leader's at loop start is not simulated.
// At the first access where the leader's live fills reach its depth it
// forks — copies the leader's stall shift, bus and port pools, combining
// table, fills, tags and counters — and runs on its own; a follower that
// never forks takes the leader's counters and tags at loop end. Tags carry
// across a benchmark's loops, so a lane that forked in one loop reattaches
// in the next when its tags match again. A family is the part of it that
// one batch holds: the planner fills batches up to the cap, so a grid's
// family can straddle two batches, each part led by its own deepest lane.
//
// Batching is planned inside each shard's row range: cells group by
// benchmark and compile key (pipeline.SimKey), never across shard
// boundaries, so shard outputs still concatenate byte-identically. Rows
// flow through the same reorder window in grid order and every row's
// bytes are identical with batching on or off — the per-lane simulation
// is exactly the serial simulation, only the access iteration is shared
// (TestSimBatchIdentity in cmd/ivliw-bench, including the coordinator pool
// path; the -sim-batch flag travels to pool workers through the shared
// base spec). A batch that fails as a whole falls back to simulating its
// lanes serially, so one infeasible sibling cannot smear an error over
// the others. Run stats record the economy as SimCells/SimBatches (mean
// lane width); BENCH_7.json snapshots the measured cells/s scaling curve
// over 1/2/4/8 sibling lanes.
//
// # Performance architecture
//
// The two hot paths — the compile-side recurrence-II search and the
// simulate-side access stream — are engineered for throughput (see
// PERFORMANCE.md for design notes and measured numbers):
//
//   - internal/ir compiles each cyclic SCC into a RecEngine once per graph
//     and condenses it onto its k loop-carried edges. Its distance-0 edges
//     form a DAG, so one longest-path pass from the head of each carried
//     edge weighs a k-node carried graph. Each cycle of that graph is a
//     closed walk of the component with the same latency and distance
//     sums, and the two have positive cycles at exactly the same IIs. A
//     query then costs O(k·|E|), and its II probes relax at most k² arcs
//     instead of every edge of a component that has hundreds at unroll ×8
//     (every suite recurrence has k = 1 or 2). Single-load perturbations
//     (IIWithChange) keep warm binary-search bounds, and a probe reports
//     an II infeasible as soon as the relaxation's predecessor graph
//     closes a cycle, which under strict improvement is always a positive
//     cycle. internal/latassign probes only the candidates that can still
//     win a step: that positive cycle at curII−1 names the loads that can
//     lower the II at all, lowering a load by δ cycles lowers the II by at
//     most δ, and that caps each candidate's benefit, so candidates are
//     popped from a max-heap on the cap and the scan stops once the cap
//     falls below the best benefit found, leaving the rest unsorted;
//   - the rest of the compile path keeps its bookkeeping in flat,
//     preallocated arrays instead of maps, per-node slices and fmt.
//     ir.NewGraph's Out and In lists (a counting sort by edge index), its
//     sorted, deduplicated neighbor lists and its Tarjan components are
//     views into one array each; unroll.Unroll puts a loop's copies,
//     memory descriptors and names in one backing array each; sms.Order
//     computes heights and depths in one pass over a topological order of
//     the distance-0 edges (a DAG in every graph ir.NewGraph accepts) and
//     marks its sets and frontier per node; and the pipeline's compile
//     keys append every field with strconv into one buffer and hash it
//     once, the same bytes fmt wrote, so stored artifacts keep their
//     names. A suite compile at 2, 4 and 8 clusters allocates 12 813,
//     13 824 and 15 377 times (32 679, 48 238 and 78 768 before), and
//     TestCompileAllocBudget holds it there;
//   - internal/sim issues memory accesses in kernel order instead of
//     materializing and sorting the iters×mems event list: an instruction
//     at cycle q·II + r issues iteration i in window q+i, so walking the
//     windows upward and each one's instructions in a fixed precomputed
//     order (r ascending, q descending, ID ascending) yields global issue
//     order with no comparison per access. Each instruction's addresses
//     come from an addrspace.Stream that resolves the symbol base, hash
//     prefix and reduced stride once, and the cache models keep each tag
//     store's ways in one flat array whose single-scan Access replaces a
//     lookup followed by a fill;
//   - internal/experiments fans the (benchmark × variant) grid of every
//     figure across a bounded worker pool (GOMAXPROCS workers) with
//     deterministic result ordering, so cmd/ivliw-bench scales with cores
//     while emitting byte-identical reports. Each distinct cell is
//     computed once per process: a bounded table keyed by benchmark name
//     and the variant's full configuration, compiler options and
//     alignment (never its label) holds every simulated cell, so the
//     figures that reuse another figure's bars (Figure 5's are Figure 6's
//     no-AB bars, Figure 7's are Figure 4's) and the headline
//     recomputation simulate nothing, and `-exp all` simulates 154 cells
//     instead of 434. Underneath, internal/profile memoizes Run by exactly
//     the inputs it reads, so the IPBC, IBC, no-chains, multiVLIW and
//     unified compiles of one benchmark share their profiles (175
//     profiling passes for `-exp all` instead of 965). Both tables hand
//     out shared values that callers treat as read-only.
//
// # Static analysis
//
// The module's two load-bearing invariants — byte-identical output across
// workers/shards/caches/coordination, and temp+rename atomicity for every
// committed file — are proven, not just tested, by a custom analysis pass:
// internal/lintcheck, run as `ivliw-vet ./...` (cmd/ivliw-vet; the repo is
// kept clean by TestRepoIsClean, and TestSeededViolations shows that each
// analyzer fires). Five analyzers, stdlib-only (go/parser +
// go/types over `go list -deps -export`):
//
//   - atomicwrite: os.Create / os.WriteFile / os.OpenFile-for-write are
//     banned; destination files are staged through internal/atomicio
//     (CreateTemp + Rename), so no reader or restarted daemon ever sees a
//     half-written spec, manifest, beat, job record or row file.
//   - strictjson: json.Unmarshal and Decode-without-DisallowUnknownFields
//     are banned; every durable or wire record parses strictly, so format
//     drift between builds fails loudly instead of silently zeroing fields.
//   - determinism: in code reachable from sweep.Run, sim.RunLoopBatch or
//     sweep.Spec.Hash (the call graphs that produce row bytes and semantic
//     hashes), time.Now/Since, unseeded math/rand draws and map-iteration
//     into sinks/writers/hashes are banned.
//   - ctxplumb: exported work-launchers in sweep, sweep/serve and
//     internal/pipeline must accept a context.Context, and fresh root
//     contexts (context.Background/TODO) are banned in library code — the
//     `if ctx == nil { ctx = context.Background() }` default guard is the
//     one allowed form.
//   - nopanic: panic, os.Exit and log.Fatal* are banned outside package
//     main; libraries return errors.
//
// Findings are escaped — never silenced — with an annotation on the line
// above stating the reason, which the pass itself validates:
//
//	//ivliw:wallclock beat timestamps are liveness metadata, never row bytes
//	//ivliw:nonatomic fault injection: deliberately rewrites a committed file
//	//ivliw:invariant exhaustive switch over a closed enum
//
// (wallclock escapes determinism, nonatomic escapes atomicwrite, invariant
// escapes nopanic; strictjson and ctxplumb have no escape — those are
// fixed, not excused.)
package ivliw
