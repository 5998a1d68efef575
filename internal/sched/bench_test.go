package sched

import "testing"

// BenchmarkRun times Run alone: one pass over every Run call a suite compile
// makes under the configuration, on inputs built through the real compile
// stages before the timer starts.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct{ name, config string }{
		{"IPBC-c4", "IPBC"},
		{"IPBC-c8", "IPBC c8"},
		{"IPBC-OUF-no-chains", "IPBC OUF no-chains"},
		{"Unified-L1", "Unified L=1"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var inputs []runInput
			for _, sc := range figureConfigs() {
				if sc.name == bc.config {
					inputs = suiteInputs(sc)
				}
			}
			if len(inputs) == 0 {
				b.Fatalf("no configuration %q", bc.config)
			}
			b.ReportAllocs()
			for b.Loop() {
				for _, in := range inputs {
					if _, err := in.run(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
