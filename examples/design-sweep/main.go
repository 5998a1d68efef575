// Design-sweep explores the machine design space around the paper's Table 2
// point instead of reproducing it: a grid of cluster counts, Attraction
// Buffer sizes and MSHR depths runs against two paper benchmarks plus a
// small synthetic workload population, and the sweep reports which machine
// point each workload prefers.
//
// The whole run is a declarative sweep.Spec — the same serializable
// description `ivliw-bench -spec` executes — evaluated through the public
// sweep package: rows arrive in grid order through the sink as their cells
// complete (this example collects them into a Collector because its table
// is rendered workload-major; `ivliw-bench -spec -out` streams each row as
// it arrives instead), and points that differ only in simulate-only axes —
// here the AB and MSHR axes — share one compiled schedule artifact through
// the content-addressed store, whose hit statistics the program prints at
// the end. See examples/sharded-sweep for spec files, sharding and the
// persistent disk store.
package main

import (
	"context"
	"fmt"
	"log"

	"ivliw/sweep"
)

func main() {
	log.SetFlags(0)

	spec := sweep.Spec{
		Grid: sweep.Grid{
			Clusters:  []int{2, 4, 8},
			ABEntries: []int{0, 16},
			MSHRs:     []int{0, 4},
		},
		Workloads: sweep.Workloads{
			// Two paper benchmarks with opposite granularity characters,
			// plus a synthetic population the seed suite does not cover.
			Bench:      []string{"gsmdec", "jpegenc"},
			SynthCount: 2,
			SynthSeed:  7,
		},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "selective"},
	}

	var rows sweep.Collector
	st, err := sweep.Run(context.Background(), spec, &rows)
	if err != nil {
		log.Fatal(err)
	}

	// Index the streamed rows workload-major for the table. Rows arrive in
	// grid order (points major, benches minor), so first-seen order
	// reconstructs both axes.
	cells := map[string]map[string]sweep.Row{}
	seenPoint := map[string]bool{}
	var points []string
	var benches []string
	for _, r := range rows.Rows {
		if cells[r.Bench] == nil {
			cells[r.Bench] = map[string]sweep.Row{}
			benches = append(benches, r.Bench)
		}
		if !seenPoint[r.Point] {
			seenPoint[r.Point] = true
			points = append(points, r.Point)
		}
		cells[r.Bench][r.Point] = r
	}

	fmt.Printf("%d machine points × %d workloads = %d cells\n\n", len(points), len(benches), st.Rows)
	fmt.Printf("%-10s", "workload")
	for _, p := range points {
		fmt.Printf(" %28s", p)
	}
	fmt.Println()
	for _, b := range benches {
		fmt.Printf("%-10s", b)
		best, bestCycles := "", int64(0)
		for _, p := range points {
			r := cells[b][p]
			if r.Error != "" {
				fmt.Printf(" %28s", "error")
				continue
			}
			fmt.Printf(" %28d", r.Cycles)
			if best == "" || r.Cycles < bestCycles {
				best, bestCycles = r.Point, r.Cycles
			}
		}
		fmt.Printf("   <- best: %s\n", best)
	}
	fmt.Println()
	fmt.Printf("compile cache: %d cells served by %d compilations (%d hits; AB and MSHR\n",
		st.MemHits+st.MemMisses, st.MemMisses, st.MemHits)
	fmt.Println("axes are simulate-only, so they share stage-1 schedule artifacts).")
	fmt.Println("Total cycles per (machine point, workload); lower is better. Save the spec")
	fmt.Println("(Spec.Encode) and run `ivliw-bench -spec F -out rows.jsonl` for streamed JSON rows.")
}
