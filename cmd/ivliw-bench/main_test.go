package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivliw/internal/experiments"
	"ivliw/sweep"
)

// asMainEnv, set to 1, makes this test binary run main() instead of the
// tests, so a test can start it as the ivliw-bench command, and a
// coordinated run's pool starts it again as every worker.
const asMainEnv = "IVLIW_BENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestCommittedSpecs: each committed spec file (the grids the tests in
// cli_test.go run, and skew.json, which scripts/ci.sh also times) parses
// strictly, validates, re-encodes to its own bytes, and keeps the semantic
// hash (the ivliw-served job ID) it was committed with.
func TestCommittedSpecs(t *testing.T) {
	for name, want := range map[string]string{
		"default": "b9def06d14b0b46ca4214bcdfe91efd0bcdba50b737cab7c998766a5b947d01a",
		"tri":     "61107ed956061066bd5a04a521de00cf36dfd845e6649a1de6fd955cc357883e",
		"skew":    "61ff71f5d565303af1e971794500f50da51b1727b874256a184a68dff59124da",
		"mshr":    "899c81ea8f9908da64d7587c7d0ee12a18177bce99d79925eaaea6166fa0f024",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sweep.ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc, err := spec.Encode(); err != nil || !bytes.Equal(enc, data) {
			t.Errorf("%s: re-encoding changed the file (err %v): %s", name, err, firstDiff(data, enc))
		}
		if got, err := spec.Hash(); err != nil || got != want {
			t.Errorf("%s: hash %s (err %v), want %s", name, got, err, want)
		}
	}
}

// TestCoordinatedCLI drives `ivliw-bench -coordinate 2` end to end, with
// real worker subprocesses: the stitched output equals the unsharded run's
// bytes, a crashed chunk attempt from a fault plan is retried, and a rerun
// over the same coordinator directory resumes with 0 launches.
func TestCoordinatedCLI(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	same := func(name string) {
		t.Helper()
		want := readFile(t, path("ref.jsonl"))
		if got, err := os.ReadFile(path(name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s differs from the unsharded run (err %v)", name, err)
		}
	}

	// Two cache capacities make two compile-key atoms, so two chunks.
	spec := sweep.Spec{
		Grid:      sweep.Grid{Clusters: []int{2}, CacheBytes: []int{4096, 8192}, ABEntries: []int{0}},
		Workloads: sweep.Workloads{Bench: []string{"gsmdec"}},
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("spec.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustCLI(t, "", "-spec", path("spec.json"), "-out", path("ref.jsonl"))

	coordinate := func(plan, work, out string) string {
		_, stderr := mustCLI(t, plan, "-spec", path("spec.json"), "-coordinate", "2",
			"-coordinate-dir", path(work), "-out", path(out))
		return stderr
	}
	wantLog(t, coordinate("", "work", "coord.jsonl"), "2 workers, 2 tasks, 0 resumed, 2 launches, 0 retries")
	same("coord.jsonl")

	plan := writePlan(t, dir, `{"events":[{"op":"crash","shard":1,"attempt":1}]}`)
	wantLog(t, coordinate(plan, "work_crash", "crash.jsonl"), "fault: crash (shard 1, attempt 1)", "3 launches, 1 retries")
	same("crash.jsonl")

	wantLog(t, coordinate("", "work", "resume.jsonl"), "2 resumed, 0 launches")
	same("resume.jsonl")
}

// FuzzParseShard: no input panics the -shard parser, and an accepted value
// formats as the `-shard i/n` argument a pool worker receives (empty for
// no shard), which parses to the same shard and formats identically.
func FuzzParseShard(f *testing.F) {
	format := func(s sweep.Shard) string {
		if s == (sweep.Shard{}) {
			return ""
		}
		return fmt.Sprintf("%d/%d", s.Index, s.Count)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := parseShard(in)
		if err != nil {
			return
		}
		enc := format(s)
		s2, err := parseShard(enc)
		if err != nil {
			t.Fatalf("parsing the formatted shard %q: %v", enc, err)
		}
		if s2 != s || format(s2) != enc {
			t.Fatalf("round trip changed the shard: %q -> %+v -> %q -> %+v", in, s, enc, s2)
		}
	})
}

// FuzzParseClaim: no input panics the -claim parser, and an accepted range
// formats as the `-claim lo:hi` argument a pool worker receives (empty for
// no claim), which parses to the same range and formats identically.
func FuzzParseClaim(f *testing.F) {
	format := func(lo, hi int) string {
		if lo == 0 && hi == 0 {
			return ""
		}
		return fmt.Sprintf("%d:%d", lo, hi)
	}
	f.Fuzz(func(t *testing.T, in string) {
		lo, hi, err := parseClaim(in)
		if err != nil {
			return
		}
		enc := format(lo, hi)
		lo2, hi2, err := parseClaim(enc)
		if err != nil {
			t.Fatalf("parsing the formatted claim %q: %v", enc, err)
		}
		if lo2 != lo || hi2 != hi || format(lo2, hi2) != enc {
			t.Fatalf("round trip changed the claim: %q -> %d:%d -> %q -> %d:%d", in, lo, hi, enc, lo2, hi2)
		}
	})
}
