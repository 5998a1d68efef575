package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ivliw/internal/experiments"
)

// TestExpAllMatchesGolden renders the `-exp all` transcript in-process and
// compares it with testdata/exp_all.golden byte for byte: first at two
// workers, while the figure functions' compile cache and cell table are cold
// in this process, then at one worker, with every cell warm. Each section
// rendered alone must then equal its slice of the golden, so the sections
// that reuse earlier figures' cells inside `-exp all` (Figures 5 and 7 and
// the headlines) are checked on their own as well.
func TestExpAllMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer experiments.SetWorkers(0)
	for _, workers := range []int{2, 1} {
		experiments.SetWorkers(workers)
		var out bytes.Buffer
		if err := runExperiment(&out, "all"); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Fatalf("workers %d: -exp all differs from the golden transcript: %s", workers, firstDiff(golden, out.Bytes()))
		}
	}
	rest := golden
	for _, name := range experimentOrder {
		var out bytes.Buffer
		if err := runExperiment(&out, name); err != nil {
			t.Fatalf("-exp %s: %v", name, err)
		}
		section := append(out.Bytes(), '\n') // -exp all ends each section with a blank line
		if !bytes.HasPrefix(rest, section) {
			n := min(len(section), len(rest))
			t.Fatalf("-exp %s differs from its golden section: %s", name, firstDiff(rest[:n], section))
		}
		rest = rest[len(section):]
	}
	if len(rest) != 0 {
		t.Fatalf("golden transcript has %d bytes after the last section", len(rest))
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "no line differs"
}
