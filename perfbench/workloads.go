package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/experiments"
	"ivliw/internal/sched"
	"ivliw/internal/workload"
	"ivliw/sweep"
)

// splitmix64 derives every seeded input of the benchmark.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shuffled returns the paper suite's benchmark names in a seeded order. The
// order changes row order only, never row contents.
func shuffled(seed uint64) []string {
	names := experiments.BenchNames()
	for i := len(names) - 1; i > 0; i-- {
		j := int(splitmix64(seed^uint64(i)) % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// paperCompile is the compiler configuration of both sweeps.
var paperCompile = sweep.Compile{Heuristic: "IPBC", Unroll: "selective"}

// coldSpec is the cold-cluster-sweep: clusters {2,4,8} × Attraction Buffers
// {off, 16 entries} × the 14 paper benchmarks, compiled into dir.
func coldSpec(seed uint64, dir string, workers int) sweep.Spec {
	return sweep.Spec{
		Grid:      sweep.Grid{Clusters: []int{2, 4, 8}, ABEntries: []int{0, 16}},
		Workloads: sweep.Workloads{Bench: shuffled(seed)},
		Compile:   paperCompile,
		Workers:   workers,
		Store:     sweep.Store{Dir: dir},
	}
}

// coldSortedDigest is the sha256 of the cold sweep's rows sorted bytewise:
// row contents do not depend on the seed, only their order does.
const coldSortedDigest = "1ea26d2589dd80448ae6649aaed6e53fa2e4a57614b495ab877bab8b4d813458"

// Warm sweep lane axes: Attraction Buffer entries and MSHR depth are
// simulate-only, so all points of one benchmark share one artifact and run
// as lanes of one batched simulation.
var (
	warmAB    = []int{0, 4, 8, 16, 32, 64}
	warmMSHRs = []int{0, 1, 2, 4, 8, 16}
	// warmFootprints straddle the 8 KiB L1 of the Table 2 machine.
	warmFootprints = []int64{1 << 10, 2 << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10}
)

// warmSynth is the warm sweep's seeded synthetic population.
const warmSynth = 30

// warmLanes caps the lanes of one batched simulation in the warm sweep.
const warmLanes = 16

// warmSpec is the warm-sibling-sweep over an artifact store filled at set-up.
// The population's shape is fixed per member — granularity, footprint,
// kernel mix — and the seed draws each member's generator seed, so every
// seed yields a population of the same size and kind.
func warmSpec(seed uint64, dir string, workers, simBatch int) sweep.Spec {
	var synth []sweep.SynthSpec
	for i := 0; i < warmSynth; i++ {
		synth = append(synth, sweep.SynthSpec{
			Name:           fmt.Sprintf("w%02d", i),
			Seed:           splitmix64(seed+uint64(i)) >> 8,
			Kernels:        3,
			Gran:           []int{4, 2, 8, 1}[i%4],
			FootprintBytes: warmFootprints[i%len(warmFootprints)],
			RecurrenceMax:  2,
			IndirectPct:    (i * 13) % 40,
			ReductionPct:   25,
			Iters:          256,
			FP:             i%3 == 2,
		})
	}
	return sweep.Spec{
		Grid:      sweep.Grid{ABEntries: warmAB, MSHRs: warmMSHRs},
		Workloads: sweep.Workloads{Bench: shuffled(seed), Synth: synth},
		Compile:   paperCompile,
		Workers:   workers,
		SimBatch:  simBatch,
		Store:     sweep.Store{Dir: dir},
	}
}

// servedDistinct is the size of the served replay's spec population;
// servedSubmissions the submissions of one replay.
const (
	servedDistinct    = 16
	servedSubmissions = 4000
)

// servedSpec is the i-th member of the served replay's population: two rows
// (Attraction Buffers off and on) of one tiny synthetic benchmark, so each
// job cuts into two coordinator shards.
func servedSpec(seed uint64, i int) sweep.Spec {
	return sweep.Spec{
		Grid: sweep.Grid{Clusters: []int{2}, ABEntries: []int{0, 16}},
		Workloads: sweep.Workloads{Synth: []sweep.SynthSpec{{
			Name:           fmt.Sprintf("load-%04d", i),
			Seed:           splitmix64(seed + uint64(i)),
			Kernels:        1,
			Iters:          64,
			FootprintBytes: 2048,
			RecurrenceMax:  2,
		}}},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "none"},
	}
}

// servedPick is the population index of submission i.
func servedPick(seed uint64, i int) int {
	return int(splitmix64(seed^uint64(i)) % servedDistinct)
}

// compileOptions mirrors the sweep's compile section parsing for the two
// configurations this benchmark uses.
func compileOptions(c sweep.Compile) core.Options {
	opt := core.Options{Heuristic: sched.IPBC, Unroll: core.Selective}
	if strings.EqualFold(c.Unroll, "none") {
		opt.Unroll = core.NoUnroll
	}
	return opt
}

// specCells expands a sweep spec into the cells sweep.Run evaluates, in row
// order. It covers the grid axes this benchmark uses (clusters, Attraction
// Buffer entries, MSHRs), in the sweep's axis order; the traced run checks
// the expansion against the rows the program emits.
func specCells(s sweep.Spec) ([]cell, error) {
	var benches []workload.BenchSpec
	for _, name := range s.Workloads.Bench {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		benches = append(benches, b)
	}
	for _, ss := range s.Workloads.Synth {
		b, err := workload.Synthesize(ss)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	axis := func(vals []int, def int) []int {
		if len(vals) == 0 {
			return []int{def}
		}
		return vals
	}
	def := arch.Default()
	opt := compileOptions(s.Compile)
	var points []experiments.Variant
	for _, cl := range axis(s.Grid.Clusters, def.Clusters) {
		for _, ab := range axis(s.Grid.ABEntries, 0) {
			for _, m := range axis(s.Grid.MSHRs, def.MSHRs) {
				cfg := def
				cfg.Clusters = cl
				cfg.AttractionBuffers = ab > 0
				if ab > 0 {
					cfg.ABEntries = ab
				}
				cfg.MSHRs = m
				points = append(points, experiments.Variant{Label: cfg.ID(), Cfg: cfg, Opt: opt, Aligned: true})
			}
		}
	}
	var cells []cell
	for _, p := range points {
		for _, b := range benches {
			cells = append(cells, cell{bench: b, v: p, group: b.Name + "|" + p.CompileKey()})
		}
	}
	return cells, nil
}

// figureCells lists the (benchmark × variant) cells `ivliw-bench -exp all`
// evaluates, figure by figure, with the figure drivers' batch grouping:
// one batched simulation per (figure, benchmark, compile key). The headline
// numbers recompute Figures 4, 6 and 8.
func figureCells() []cell {
	ipbc := func(label string, um core.UnrollMode, buffers, noChains bool) experiments.Variant {
		return experiments.Interleaved(label, sched.IPBC, um, true, buffers, noChains)
	}
	fig5 := []experiments.Variant{
		experiments.Interleaved("IBC", sched.IBC, core.Selective, true, false, false),
		experiments.Interleaved("IPBC", sched.IPBC, core.Selective, true, false, false),
	}
	fig7 := []experiments.Variant{
		ipbc("IPBC no-unroll", core.NoUnroll, false, false),
		ipbc("IPBC OUF", core.OUFUnroll, false, false),
		ipbc("IPBC OUF no-chains", core.OUFUnroll, false, true),
	}
	fig8 := append([]experiments.Variant{experiments.UnifiedVariant(1)}, experiments.Fig8Variants()...)
	figures := [][]experiments.Variant{
		experiments.Fig4Variants(), fig5, experiments.Fig6Variants(), fig7, fig8,
		experiments.Fig4Variants(), experiments.Fig6Variants(), fig8,
	}
	var cells []cell
	for fi, vs := range figures {
		for _, b := range workload.Suite() {
			for _, v := range vs {
				cells = append(cells, cell{bench: b, v: v, group: fmt.Sprintf("%d|%s|%s", fi, b.Name, v.CompileKey())})
			}
		}
	}
	return cells
}

// rowsResult is what one sweep run emitted.
type rowsResult struct {
	Rows      int    `json:"rows"`
	ErrorRows int    `json:"error_rows"`
	Digest    string `json:"digest"`
	Sorted    string `json:"sorted_digest"`
}

// digestRows hashes JSONL rows as emitted and sorted bytewise, and counts
// rows that report an error.
func digestRows(data []byte) (rowsResult, error) {
	var r rowsResult
	sum := sha256.Sum256(data)
	r.Digest = hex.EncodeToString(sum[:])
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		var row sweep.Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			return r, fmt.Errorf("decoding row %d: %w", len(lines), err)
		}
		if row.Error != "" {
			r.ErrorRows++
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	r.Sorted = hex.EncodeToString(h.Sum(nil))
	r.Rows = len(lines)
	return r, nil
}

// runSweep runs a spec in-process into a buffer and reports its wall time.
func runSweep(ctx context.Context, spec sweep.Spec) ([]byte, sweep.Stats, float64, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	st, err := sweep.Run(ctx, spec, sweep.JSONL(&buf))
	return buf.Bytes(), st, time.Since(t0).Seconds(), err
}
