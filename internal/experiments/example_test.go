package experiments_test

import (
	"context"
	"fmt"
	"log"

	"ivliw/internal/experiments"
)

// ExampleInterleaveSweep explores the paper's §5.1 future-work note: the
// 4-byte interleaving factor matches the word-dominated benchmarks, but "if
// a processor is to be built for the gsm family of applications, a 2-byte
// interleaving factor would match better the applications'
// characteristics". It sweeps the interleaving factor (IF) over the
// short-integer codecs (gsm, g721) and the word-based codecs (jpegenc,
// pgpdec) and prints total cycles (compute + stall) under IPBC with
// Attraction Buffers and selective unrolling; lower is better.
//
// On this synthetic suite IF = 2 never wins, not even for the gsm codecs:
// gsmdec and gsmenc run fastest at IF = 4, and IF = 2 costs them 2.9% and
// 8.7% more cycles than that. So the 2-byte advantage §5.1 anticipates does
// not show here. Every other benchmark runs fastest at IF = 8, and the
// word- and table-based codecs gain the most from coarser interleaving:
// from IF = 2 to IF = 8, jpegenc sheds 30% of its cycles and pgpdec 25%,
// against 1.5–6.7% for the short-integer codecs. The best factor does
// depend on the application, as the paper's note expects, but not in the
// direction it expects for gsm.
func ExampleInterleaveSweep() {
	benches := []string{"gsmdec", "gsmenc", "g721dec", "jpegenc", "pgpdec"}
	factors := []int{2, 4, 8}
	rows, err := experiments.InterleaveSweep(context.Background(), benches, factors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s", "benchmark")
	for _, f := range factors {
		fmt.Printf(" %12s", fmt.Sprintf("IF=%d bytes", f))
	}
	fmt.Printf(" %8s\n", "best")
	for _, r := range rows {
		fmt.Printf("%-10s", r.Bench)
		for _, f := range factors {
			fmt.Printf(" %12d", r.Cycles[f])
		}
		fmt.Printf(" %8d\n", r.Best)
	}
	// Output:
	// benchmark    IF=2 bytes   IF=4 bytes   IF=8 bytes     best
	// gsmdec            71970        69920        70880        4
	// gsmenc            91050        83760        84960        4
	// g721dec          121000       115960       114200        8
	// jpegenc          953720       766690       667400        8
	// pgpdec           859420       697650       643850        8
}
