package sweep_test

import (
	"context"
	"fmt"
	"log"

	"ivliw/sweep"
)

// ExampleRun explores the machine design space around the paper's Table 2
// point instead of reproducing it: a grid of cluster counts, Attraction
// Buffer sizes and MSHR depths runs against two paper benchmarks plus a
// small synthetic population, and the table gives each cell's total cycles
// (lower is better).
//
// The whole run is one declarative Spec, the same description `ivliw-bench
// -spec` executes (save it with Spec.Encode; `-out rows.jsonl` streams the
// rows as JSON). Rows arrive in grid order, machine point major. The AB and
// MSHR axes are simulate-only, so the 48 cells share 12 compiled schedule
// artifacts, one per cluster count and workload, through the
// content-addressed store.
//
// The workloads disagree. gsmdec and both synthetic workloads run fastest
// on 8 clusters, while jpegenc slows down as clusters are added and
// prefers 2 clusters with 16-entry buffers. The buffers never change
// gsmdec's or synth000's cycles. A 4-entry MSHR never beats an unbounded
// one, and for every workload it costs the most on 8 clusters.
func ExampleRun() {
	spec := sweep.Spec{
		Grid: sweep.Grid{
			Clusters:  []int{2, 4, 8},
			ABEntries: []int{0, 16},
			MSHRs:     []int{0, 4},
		},
		Workloads: sweep.Workloads{
			// Two paper benchmarks with opposite granularity characters,
			// plus a synthetic population the paper suite does not cover.
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

	var benches []string
	for _, r := range rows.Rows {
		if r.Point != rows.Rows[0].Point {
			break
		}
		benches = append(benches, r.Bench)
	}
	fmt.Printf("%d cells: %d machine points × %d workloads, %d compilations (%d cache hits)\n\n",
		st.Rows, st.Rows/len(benches), len(benches), st.MemMisses, st.MemHits)
	fmt.Printf("%-36s", "machine point")
	for _, b := range benches {
		fmt.Printf(" %9s", b)
	}
	fmt.Println()
	best := make([]sweep.Row, len(benches))
	for i, r := range rows.Rows {
		k := i % len(benches)
		if k == 0 {
			fmt.Printf("%-36s", r.Point)
		}
		if r.Error != "" {
			fmt.Printf(" %9s", "error")
		} else {
			fmt.Printf(" %9d", r.Cycles)
			if best[k].Point == "" || r.Cycles < best[k].Cycles {
				best[k] = r
			}
		}
		if k == len(benches)-1 {
			fmt.Println()
		}
	}
	fmt.Println("\nfastest point per workload:")
	for _, r := range best {
		fmt.Printf("  %-9s %s\n", r.Bench, r.Point)
	}
	// Output:
	// 48 cells: 12 machine points × 4 workloads, 12 compilations (36 cache hits)
	//
	// machine point                           gsmdec   jpegenc  synth000  synth001
	// c2.i4.8KB.a2.interleaved                135260    781470     62560     58059
	// c2.i4.8KB.a2.interleaved.mshr4          135260    781720     62560     59823
	// c2.i4.8KB.a2.interleaved.ab16           135260    650510     62560     58059
	// c2.i4.8KB.a2.interleaved.ab16.mshr4     135260    650760     62560     59319
	// c4.i4.8KB.a2.interleaved                 69920    821750     38752     36999
	// c4.i4.8KB.a2.interleaved.mshr4           73970    824900     46870     43719
	// c4.i4.8KB.a2.interleaved.ab16            69920    766690     38752     36411
	// c4.i4.8KB.a2.interleaved.ab16.mshr4      73970    769840     46870     42879
	// c8.i4.8KB.a2.interleaved                 41920    849240     30046     27015
	// c8.i4.8KB.a2.interleaved.mshr4           53890    856890     45486     36120
	// c8.i4.8KB.a2.interleaved.ab16            41920    848490     30046     26973
	// c8.i4.8KB.a2.interleaved.ab16.mshr4      53890    855890     45486     36078
	//
	// fastest point per workload:
	//   gsmdec    c8.i4.8KB.a2.interleaved
	//   jpegenc   c2.i4.8KB.a2.interleaved.ab16
	//   synth000  c8.i4.8KB.a2.interleaved
	//   synth001  c8.i4.8KB.a2.interleaved.ab16
}
