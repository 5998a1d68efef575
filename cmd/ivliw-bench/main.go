// Command ivliw-bench regenerates the paper's evaluation — every figure
// (4-8) and table (1-2) of §5 plus the headline numbers — and, with -spec,
// explores the design space around the paper's Table 2 point: a grid of
// (cluster count × interleaving factor × cache geometry × Attraction Buffer
// size × bus/memory latency) machine points against paper or synthetic
// benchmarks, emitted as machine-readable JSON lines.
//
// Usage:
//
//	ivliw-bench -exp table1|table2|fig4|fig5|fig6|fig7|fig8|headlines|all [-workers 4]
//	ivliw-bench -spec run.json [-shard i/n] [-claim lo:hi] [-artifact-dir DIR]
//	            [-compile-cache 256] [-sim-batch 8] [-out shard.jsonl]
//	ivliw-bench -spec run.json -calibrate calibration.json
//	ivliw-bench -spec run.json -spec-hash
//	ivliw-bench -spec run.json -coordinate 3 [-coordinate-dir DIR]
//	            [-coordinate-attempts 3] [-coordinate-parallel 0]
//	            [-coordinate-calibration calibration.json]
//	            [-pool-stale 2s] [-out sweep.jsonl]
//
// A sweep is a spec file: the JSON encoding of sweep.Spec, the same file
// the pool's workers load and ivliw-served accepts as a job. Grid axes left
// out take their Table 2 value, so this file runs three cluster counts,
// with and without Attraction Buffers, over three benchmarks:
//
//	{
//	  "grid": {"clusters": [2, 4, 8], "ab_entries": [0, 16]},
//	  "workloads": {"bench": ["gsmdec", "jpegenc", "mpeg2dec"]}
//	}
//
// Every flag but -exp and -workers needs -spec. The per-process ones
// (-workers, -sim-batch, -compile-cache, -artifact-dir, -shard, -out)
// override the file, so one spec drives every shard of a multi-process
// run. -shard i/n evaluates the i-th of n contiguous row slices — the
// concatenation of all shards' outputs is byte-identical to the unsharded
// run — and -artifact-dir layers the compile cache over a persistent
// content-addressed artifact store so repeated and sharded runs start warm.
// testdata/ holds the spec files the command's tests run.
//
// -coordinate n runs the whole sharded workflow in one command with n
// workers: the grid is cut into up to 4n never-empty chunks of equal
// predicted cost, on compile-key atom boundaries (one chunk when n is 1),
// and idle workers claim the next chunk, heaviest first. The workers, w0
// to w(n-1), are subprocesses of this binary in a health-checked pool
// (sweep.Pool). A failed attempt is retried at once, within
// -coordinate-attempts, and the chunk outputs are stitched into -out
// byte-identical to the unsharded run. The cost model can be calibrated to
// this machine (-calibrate writes the file, -coordinate-calibration loads
// it; a missing or corrupt file degrades to the built-in model with a
// warning). Workers receive their ranges through the -claim lo:hi
// protocol; byte-identity holds by construction, because rows stay keyed
// by grid index and the stitcher concatenates ranges in index order.
// Chunk outputs and the manifest live in -coordinate-dir; every state
// transition is committed atomically (temp+rename), so a coordinator
// killed mid-run resumes its completed chunks when rerun over the same
// directory. SIGINT/SIGTERM cancel sweep and coordinator runs cleanly —
// staged output files are discarded, never truncated — and exit 130.
//
// Each chunk attempt writes heartbeats (-heartbeat under the hood): an
// attempt whose heartbeat goes stale for -pool-stale is killed and retried
// — the only hang detection a coordinated run has; 0 turns heartbeats off
// — and a finished attempt's output must hash to the checksum its final
// heartbeat carries. A worker that fails twice in a row is quarantined for
// 0.5-1s, doubled per further quarantine up to 32s (the jitter is seeded
// by the worker's name). The IVLIW_FAULT_PLAN environment variable may
// name a JSON fault plan (see ivliw/sweep/fault) that deterministically
// crashes, hangs or wedges specific shard attempts and kills specific pool
// workers — the harness TestCoordinateSurvivesDeadWorkerAndHang uses to
// prove byte-identity survives worker failure.
//
// Sweeps run as a two-stage streaming pipeline: distinct compile keys are
// compiled once into the artifact store (-compile-cache memory artifacts, 0
// disables; plus the optional -artifact-dir disk tier) and rows are written
// to -out (default stdout) as their in-order cells complete, so memory
// stays bounded for arbitrarily large grids. -sim-batch k additionally runs
// up to k sibling cells — same benchmark and compile key, differing only in
// simulate-only axes like MSHR depth or Attraction Buffer geometry — as
// lanes of one batched simulation pass. The byte stream is identical for
// any store configuration, any -workers count, and any -sim-batch value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ivliw/internal/experiments"
	"ivliw/internal/pipeline"
	"ivliw/sweep"
	"ivliw/sweep/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivliw-bench: ")
	exp := flag.String("exp", "all", "experiment: table1, table2, fig4, fig5, fig6, fig7, fig8, headlines or all")
	workers := flag.Int("workers", 0, "worker pool size for the (benchmark × variant) grids (0: GOMAXPROCS)")
	specPath := flag.String("spec", "", "run the sweep described by this spec file (JSON, a sweep.Spec); every flag but -exp and -workers needs it")
	simBatch := flag.Int("sim-batch", 0, "batch up to this many sibling sweep cells (same compile key) into one simulation pass (0: off; output is identical either way)")
	compileCache := flag.Int("compile-cache", pipeline.DefaultCacheSize, "in-memory compiled-schedule cache capacity in artifacts (0 disables; output is identical either way)")
	artifactDir := flag.String("artifact-dir", "", "persist compiled schedule artifacts in this directory (content-addressed; repeated and sharded sweeps start warm)")
	shardFlag := flag.String("shard", "", "evaluate shard i/n of the sweep grid (e.g. 0/3); concatenating all shards' outputs reproduces the unsharded run byte-for-byte")
	claimFlag := flag.String("claim", "", "evaluate exactly rows lo:hi of the sweep grid (e.g. 12:16), overriding -shard's row arithmetic — the coordinator's cost-cut/work-stealing protocol")
	calibrate := flag.String("calibrate", "", "probe this machine's compile/simulate costs over the spec's cluster axis and write the calibration JSON to this file (no sweep rows are produced)")
	specHash := flag.Bool("spec-hash", false, "print the spec's semantic hash — the dedup/job key ivliw-served uses — and exit without running")
	out := flag.String("out", "", "write sweep JSONL rows to this file instead of stdout")
	coordinate := flag.Int("coordinate", 0, "run the sweep coordinated over this many workers: cut, launch, retry, resume, stitch (0: off)")
	coordDir := flag.String("coordinate-dir", "", "coordinator work dir (manifest + shard outputs); reuse it to resume a killed run (default: fresh temp dir)")
	coordAttempts := flag.Int("coordinate-attempts", 3, "max attempts per chunk (first try + retries)")
	coordParallel := flag.Int("coordinate-parallel", 0, "bound on concurrently running chunk attempts (0: one per worker); 1 serializes launches, e.g. for contention-free per-chunk timing")
	coordCalibration := flag.String("coordinate-calibration", "", "calibration JSON for the cost model that sizes and orders chunks (see -calibrate); a missing or corrupt file degrades to the built-in default with a warning")
	heartbeat := flag.String("heartbeat", "", "write liveness heartbeats to this file while the sweep runs")
	heartbeatInterval := flag.Duration("heartbeat-interval", 0, "heartbeat period (0: 500ms; needs -heartbeat)")
	poolStale := flag.Duration("pool-stale", 2*time.Second, "kill a coordinated chunk attempt whose heartbeat is older than this (0: no heartbeat monitoring)")
	flag.Parse()
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(flag.CommandLine.Output(), "ivliw-bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		usageErr("-workers must be >= 0, got %d", *workers)
	}
	if *simBatch < 0 {
		usageErr("-sim-batch must be >= 0, got %d", *simBatch)
	}
	if *compileCache < 0 {
		usageErr("-compile-cache must be >= 0, got %d", *compileCache)
	}
	shard, err := parseShard(*shardFlag)
	if err != nil {
		usageErr("%v", err)
	}
	claimLo, claimHi, err := parseClaim(*claimFlag)
	if err != nil {
		usageErr("%v", err)
	}
	experiments.SetWorkers(*workers)
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if !set["spec"] {
		// Every flag but -workers shapes a sweep. The -exp experiments
		// ignore them, and silently accepting one (e.g. -shard on three
		// hosts triplicating work, or -compile-cache 0 "disabling" a cache
		// the figure drivers never consult) would misconfigure without a
		// word.
		//
		// The experiments deliberately keep the default signal semantics
		// (SIGINT kills the process outright): they stream human-readable
		// text to stdout with no staged files to protect, so the sweep
		// path's cancel-and-discard machinery has nothing to save here.
		for _, name := range sortedNames(set) {
			if name != "exp" && name != "workers" {
				usageErr("-%s needs -spec (it shapes a sweep, not the -exp experiments)", name)
			}
		}
		if err := runExperiment(os.Stdout, *exp); err != nil {
			log.Fatal(err)
		}
		return
	}

	if set["exp"] {
		usageErr("-exp cannot be combined with -spec")
	}
	if *coordinate < 0 {
		usageErr("-coordinate must be >= 0, got %d", *coordinate)
	}
	if *coordinate == 0 {
		for _, name := range sortedNames(set) {
			if strings.HasPrefix(name, "coordinate-") || strings.HasPrefix(name, "pool-") {
				usageErr("-%s only applies with -coordinate n", name)
			}
		}
	} else {
		if set["shard"] {
			usageErr("-shard cannot be combined with -coordinate (the coordinator owns sharding)")
		}
		if set["claim"] {
			usageErr("-claim cannot be combined with -coordinate (the coordinator owns sharding)")
		}
		if *coordAttempts < 1 {
			usageErr("-coordinate-attempts must be >= 1, got %d", *coordAttempts)
		}
		if *coordParallel < 0 {
			usageErr("-coordinate-parallel must be >= 0, got %d", *coordParallel)
		}
		if set["heartbeat"] || set["heartbeat-interval"] {
			usageErr("-heartbeat is a per-worker knob; coordinated runs assign heartbeats to their workers (see -pool-stale)")
		}
	}
	if set["heartbeat-interval"] && !set["heartbeat"] {
		usageErr("-heartbeat-interval needs -heartbeat")
	}
	if *calibrate != "" {
		// Calibration is its own mode: it probes costs and writes one JSON
		// file. Flags that shape a row-producing run have nothing to shape.
		for _, name := range []string{"shard", "claim", "out"} {
			if set[name] {
				usageErr("-%s cannot be combined with -calibrate", name)
			}
		}
		if *coordinate > 0 {
			usageErr("-calibrate cannot be combined with -coordinate (calibrate first, then pass the file via -coordinate-calibration)")
		}
	}
	if *specHash {
		// Hashing is read-only: flags that run, shard or redirect a sweep
		// have nothing to act on.
		for _, name := range []string{"calibrate", "coordinate", "shard", "claim", "out"} {
			if set[name] {
				usageErr("-%s cannot be combined with -spec-hash", name)
			}
		}
	}

	spec, err := sweep.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	// Per-process knobs override the file: the same spec drives every
	// shard of a multi-process run. An explicit -claim range overrides the
	// shard's row arithmetic, since Shard.Range answers [Lo, Hi) whenever
	// Hi > Lo.
	if set["workers"] {
		spec.Workers = *workers
	}
	if set["sim-batch"] {
		spec.SimBatch = *simBatch
	}
	if set["compile-cache"] {
		spec.Store.Memory = memoryCapacity(*compileCache)
	}
	if set["artifact-dir"] {
		spec.Store.Dir = *artifactDir
	}
	if set["out"] {
		spec.Output.Path = *out
	}
	if set["shard"] {
		spec.Shard = shard
	}
	if set["claim"] {
		spec.Shard.Lo, spec.Shard.Hi = claimLo, claimHi
	}
	if set["heartbeat"] {
		spec.Heartbeat.Path = *heartbeat
	}
	if set["heartbeat-interval"] {
		spec.Heartbeat.IntervalMS = int(heartbeatInterval.Milliseconds())
	}
	if *specHash {
		// The semantic fingerprint over grid/workloads/compile — the job ID
		// an ivliw-served submission of this spec would get, so clients can
		// predict dedup keys offline. Validate first: a hash of an
		// unrunnable spec keys nothing.
		if err := spec.Validate(); err != nil {
			log.Fatal(err)
		}
		hash, err := spec.Hash()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(hash)
		return
	}
	if spec.Shard.Count > 1 && spec.Output.Path != "" && !set["out"] {
		// Every shard of this spec writes the same file; concurrent shards
		// would truncate each other's rows.
		log.Printf("warning: shard %d/%d writes the spec's pinned output %q; give each shard its own -out",
			spec.Shard.Index, spec.Shard.Count, spec.Output.Path)
	}
	// SIGINT/SIGTERM cancel the run: cells stop dispatching, the staged
	// output file is discarded (never a truncated JSONL), and the process
	// exits with the conventional 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *calibrate != "" {
		cal, err := sweep.Calibrate(ctx, spec)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Print("interrupted; no calibration file written")
				os.Exit(130)
			}
			log.Fatal(err)
		}
		if err := sweep.SaveCalibration(*calibrate, cal); err != nil {
			log.Fatal(err)
		}
		log.Printf("calibration written to %s (%.0f cells/s baseline, %d cluster points)",
			*calibrate, cal.CellsPerSec, len(cal.Clusters))
		return
	}
	if *coordinate > 0 {
		err = runCoordinated(ctx, spec, *poolStale, sweep.CoordinatorOptions{
			Shards:      *coordinate,
			Dir:         *coordDir,
			MaxAttempts: *coordAttempts,
			Parallel:    *coordParallel,
			Calibration: *coordCalibration,
			Log:         log.Printf,
		})
	} else {
		// A scripted fault plan (armed via IVLIW_FAULT_PLAN, inherited from
		// the coordinator) may make this worker crash, hang or wedge here —
		// or corrupt its committed output afterwards.
		plan, ferr := fault.FromEnv()
		if ferr != nil {
			log.Fatal(ferr)
		}
		ev := armFault(ctx, plan, spec)
		err = runSweep(ctx, spec)
		if err == nil && ev != nil && ev.Op == fault.CorruptOutput {
			corruptOutput(spec.Output.Path)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// File outputs are all-or-nothing (staged, never renamed on
			// cancel); a stdout stream necessarily keeps the rows already
			// written, so only claim the stronger guarantee when it held.
			if spec.Output.Path != "" || *coordinate > 0 {
				log.Print("interrupted; no partial output file written")
			} else {
				log.Print("interrupted")
			}
			os.Exit(130)
		}
		log.Fatal(err)
	}
}

// experimentOrder is the order `-exp all` runs the experiments in.
var experimentOrder = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "headlines"}

// experimentRunners write each experiment's section of the transcript.
var experimentRunners = map[string]func(w io.Writer) error{
	"table1": func(w io.Writer) error {
		fmt.Fprintln(w, "Table 1: benchmarks and inputs")
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.Table1())
		return nil
	},
	"table2": func(w io.Writer) error {
		fmt.Fprintln(w, "Table 2: configuration parameters")
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.Table2())
		return nil
	},
	"fig4":      fig4,
	"fig5":      fig5,
	"fig6":      fig6,
	"fig7":      fig7,
	"fig8":      fig8,
	"headlines": headlines,
}

// runExperiment writes the report of one -exp value to w: one section, or
// for "all" every section in experimentOrder, each followed by a blank
// line.
func runExperiment(w io.Writer, exp string) error {
	name := strings.ToLower(exp)
	if name == "all" {
		for _, n := range experimentOrder {
			if err := experimentRunners[n](w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := experimentRunners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(w)
}

func fig4(w io.Writer) error {
	rows, err := experiments.Figure4(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: memory access classification under IPBC")
	fmt.Fprintln(w, "bars: (i) no-unroll+align (ii) OUF,no-align (iii) OUF+align (iv) OUF+align,no-chains")
	fmt.Fprintln(w, "columns: local hits / remote hits / local misses / remote misses / combined")
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s", r.Bench)
		for _, b := range r.Bars {
			s := b.Shares
			fmt.Fprintf(w, "  | %4.2f %4.2f %4.2f %4.2f %4.2f", s[0], s[1], s[2], s[3], s[4])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig5(w io.Writer) error {
	rows, err := experiments.Figure5(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5: classification of accesses that generate stall time (remote-hit stall shares)")
	fmt.Fprintln(w, "columns: more-than-one-cluster / unclear-preferred / not-in-preferred / granularity")
	fmt.Fprintln(w, "(factors are not mutually exclusive; shares may sum above 1)")
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s IBC  %4.2f %4.2f %4.2f %4.2f   IPBC %4.2f %4.2f %4.2f %4.2f\n",
			r.Bench,
			r.IBC[0], r.IBC[1], r.IBC[2], r.IBC[3],
			r.IPBC[0], r.IPBC[1], r.IPBC[2], r.IPBC[3])
	}
	return nil
}

func fig6(w io.Writer) error {
	rows, err := experiments.Figure6(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6: stall time by access type, normalized to IBC without Attraction Buffers")
	fmt.Fprintln(w, "bars: IBC / IBC+AB / IPBC / IPBC+AB")
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s", r.Bench)
		for _, b := range r.Bars {
			fmt.Fprintf(w, "  %s=%.2f", b.Variant, b.Normalized)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig7(w io.Writer) error {
	rows, err := experiments.Figure7(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: workload balance under IPBC (0.25 = perfect, 1 = fully unbalanced)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-11s %-10s %-10s %s\n", "benchmark", "no-unroll", "OUF", "OUF,no-chains")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-10.2f %-10.2f %.2f\n", r.Bench, r.NoUnroll, r.OUF, r.OUFNoChains)
	}
	return nil
}

func fig8(w io.Writer) error {
	rows, err := experiments.Figure8(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: cycle counts normalized to a unified cache with 1-cycle latency")
	fmt.Fprintln(w, "bars: interleaved IPBC+AB / interleaved IBC+AB / multiVLIW / Unified(L=5); (s ...) = stall part")
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s", r.Bench)
		for _, b := range r.Bars {
			fmt.Fprintf(w, "  %s=%.3f(s%.3f)", b.Variant, b.Compute+b.Stall, b.Stall)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func headlines(w io.Writer) error {
	fig4, err := experiments.Figure4(context.Background())
	if err != nil {
		return err
	}
	fig6, err := experiments.Figure6(context.Background())
	if err != nil {
		return err
	}
	fig8, err := experiments.Figure8(context.Background())
	if err != nil {
		return err
	}
	h := experiments.ComputeHeadlines(fig4, fig6, fig8)
	fmt.Fprintln(w, "Headline numbers (paper value in parentheses):")
	fmt.Fprintf(w, "  local-hit-ratio gain from variable alignment:  %+.1f points (paper: ~+20%%)\n", 100*h.LocalHitGainAlignment)
	fmt.Fprintf(w, "  local-hit-ratio gain from OUF unrolling:       %+.1f points (paper: ~+27%%)\n", 100*h.LocalHitGainUnrolling)
	fmt.Fprintf(w, "  stall reduction from Attraction Buffers (IBC):  %.1f%% (paper: 34%%)\n", 100*h.StallReductionIBC)
	fmt.Fprintf(w, "  stall reduction from Attraction Buffers (IPBC): %.1f%% (paper: 29%%)\n", 100*h.StallReductionIPBC)
	fmt.Fprintf(w, "  speedup over Unified(L=5), IBC+AB:              %+.1f%% (paper: +10%%)\n", 100*h.SpeedupIBC)
	fmt.Fprintf(w, "  speedup over Unified(L=5), IPBC+AB:             %+.1f%% (paper: +5%%)\n", 100*h.SpeedupIPBC)
	fmt.Fprintf(w, "  interleaved(IBC+AB) vs multiVLIW cycle ratio:   %+.1f%% (paper: ~+7%% degradation)\n", 100*h.VsMultiVLIW)
	return nil
}

// sortedNames returns the explicitly-set flag names in a fixed order, so
// conflict errors are reproducible when several offending flags are set.
func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// memoryCapacity maps the -compile-cache flag (0 = disabled) onto the spec
// encoding (0 = default capacity, negative = disabled).
func memoryCapacity(flag int) int {
	if flag == 0 {
		return -1
	}
	return flag
}

// parseClaim parses the -claim lo:hi syntax ("" = no claim). The range is
// half-open, must not be inverted, and must be non-empty: claiming nothing
// is a flag mistake, not a request for an empty output.
func parseClaim(s string) (lo, hi int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, nil
	}
	l, h, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-claim must be lo:hi (e.g. 12:16), got %q", s)
	}
	if lo, err = strconv.Atoi(strings.TrimSpace(l)); err != nil {
		return 0, 0, fmt.Errorf("-claim lo %q: want an integer", l)
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(h)); err != nil {
		return 0, 0, fmt.Errorf("-claim hi %q: want an integer", h)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("-claim wants 0 <= lo < hi, got %d:%d", lo, hi)
	}
	return lo, hi, nil
}

// parseShard parses the -shard i/n syntax into a shard ("" = unsharded).
func parseShard(s string) (sweep.Shard, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return sweep.Shard{}, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return sweep.Shard{}, fmt.Errorf("-shard must be i/n (e.g. 0/3), got %q", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return sweep.Shard{}, fmt.Errorf("-shard index %q: want an integer", idx)
	}
	n, err := strconv.Atoi(strings.TrimSpace(count))
	if err != nil {
		return sweep.Shard{}, fmt.Errorf("-shard count %q: want an integer", count)
	}
	if n < 1 {
		return sweep.Shard{}, fmt.Errorf("-shard count must be >= 1, got %d", n)
	}
	if i < 0 || i >= n {
		return sweep.Shard{}, fmt.Errorf("-shard index must be in [0, %d), got %d", n, i)
	}
	return sweep.Shard{Index: i, Count: n}, nil
}

// runSweep executes the spec, streaming its JSON lines to the spec's output
// path (stdout by default): each row is encoded as its in-order cell
// completes, with distinct compile keys compiled once into the artifact
// store. Store effectiveness is reported on stderr; the row stream itself
// is byte-identical for any store configuration and worker count.
func runSweep(ctx context.Context, spec sweep.Spec) error {
	st, err := sweep.Run(ctx, spec, nil) // nil sink: buffered JSONL to Output.Path/stdout
	if err != nil {
		return err
	}
	log.Printf("compile cache: %d hits, %d misses, %d evictions", st.MemHits, st.MemMisses, st.MemEvictions)
	if st.SimBatches > 0 {
		log.Printf("sim batches: %d cells in %d batches (mean lane width %.2f)",
			st.SimCells, st.SimBatches, float64(st.SimCells)/float64(st.SimBatches))
	}
	if spec.Store.Dir != "" {
		log.Printf("artifact store %s: %d hits, %d compiles, %d writes, %d write errors",
			spec.Store.Dir, st.DiskHits, st.DiskMisses, st.DiskWrites, st.DiskWriteErrors)
	}
	return nil
}

// runCoordinated cuts the spec's grid into chunks for opts.Shards workers,
// executes them on a pool of as many subprocess workers of this binary
// with retries, and stitches the chunk outputs into the spec's output path
// (stdout by default) — byte-identical to the unsharded run. Reusing
// -coordinate-dir resumes completed chunks from the manifest after a kill.
func runCoordinated(ctx context.Context, spec sweep.Spec, stale time.Duration, opts sweep.CoordinatorOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for the worker pool: %w", err)
	}
	// The pool consumes dead-worker events itself; shard-scoped events
	// fire inside the worker subprocesses, which inherit the env.
	plan, err := fault.FromEnv()
	if err != nil {
		return err
	}
	workers := make([]sweep.Worker, opts.Shards)
	for i := range workers {
		workers[i] = sweep.Worker{Name: fmt.Sprintf("w%d", i), Command: []string{exe}}
	}
	pool := &sweep.Pool{Workers: workers, StaleAfter: stale, Fault: plan, Stderr: os.Stderr, Log: log.Printf}
	opts.Launcher = pool
	st, err := sweep.Coordinate(ctx, spec, opts)
	ps := pool.Stats()
	log.Printf("pool: %d launches, %d stale kills, %d worker deaths, %d checksum failures, %d quarantines (%d readmissions)",
		ps.Launches, ps.StaleKills, ps.WorkerDeaths, ps.ChecksumFailures, ps.Quarantines, ps.Readmissions)
	if err != nil {
		return err
	}
	log.Printf("coordinator: %d workers, %d tasks, %d resumed, %d launches, %d retries, %d rows stitched",
		st.Shards, st.Tasks, st.Resumed, st.Launches, st.Retries, st.Rows)
	if st.Launches > 0 {
		log.Printf("coordinator: slowest task %d: %.2fs (%.1f cells/s)",
			st.SlowestTask, st.SlowestWall.Seconds(), st.SlowestCellsPerSec)
	}
	return nil
}

// armFault applies this worker process's shard-scoped fault event, if any:
// crash, hang and stale-heartbeat never return; corrupt-output is returned
// for the caller to apply after the sweep commits. Unsharded runs (the
// reference the faulted output is compared against) never match.
func armFault(ctx context.Context, plan *fault.Plan, spec sweep.Spec) *fault.Event {
	if spec.Shard.Count == 0 {
		return nil
	}
	attempt := fault.AttemptFromEnv()
	ev := plan.ForAttempt(spec.Shard.Index, attempt)
	if ev == nil {
		return nil
	}
	switch ev.Op {
	case fault.Crash:
		log.Fatalf("fault: crash (shard %d, attempt %d)", spec.Shard.Index, attempt)
	case fault.Hang:
		log.Printf("fault: hang (shard %d, attempt %d)", spec.Shard.Index, attempt)
		<-ctx.Done()
		os.Exit(130)
	case fault.StaleHeartbeat:
		// One beat, then wedge: the process stays alive and beating-silent,
		// exactly the failure a stale-heartbeat monitor exists to catch.
		log.Printf("fault: stale-heartbeat (shard %d, attempt %d)", spec.Shard.Index, attempt)
		if spec.Heartbeat.Path != "" {
			if err := sweep.WriteBeat(spec.Heartbeat.Path, sweep.Beat{
				Shard: spec.Shard.Index, Seq: 1, Status: sweep.BeatRunning,
			}); err != nil {
				log.Fatal(err)
			}
		}
		<-ctx.Done()
		os.Exit(130)
	}
	return ev
}

// corruptOutput flips one byte of the committed output file — scripted disk
// corruption between a worker's commit and the coordinator's stitch, caught
// by the pool's checksum verification.
func corruptOutput(path string) {
	if path == "" {
		log.Fatal("fault: corrupt-output needs a file output")
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		log.Fatalf("fault: corrupt-output %s: unreadable or empty (%v)", path, err)
	}
	data[len(data)/2] ^= 0x40
	//ivliw:nonatomic fault injection: deliberately rewrites a committed file in place
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("fault: corrupt-output: %v", err)
	}
	log.Printf("fault: corrupt-output (flipped a byte of %s)", path)
}
