// Command perfbench is the repository benchmark: one command that runs a
// named workload for a fixed time, checks its output, and prints every
// metric by name with its unit as the last line of standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	paper-figures       `ivliw-bench -exp all`, output checked against the
//	                    golden transcript; every repeat is a fresh process
//	cold-cluster-sweep  sweep.Run over clusters {2,4,8} × AB {0,16} × the
//	                    paper suite, into an empty artifact directory
//	warm-sibling-sweep  sweep.Run with batched simulation over simulate-only
//	                    axes, against a disk store filled at set-up
//	served-replay       an in-process serve.Server on loopback replaying a
//	                    seeded stream of new and duplicate submissions
//
// With --trace 0 each repeat runs in a fresh child process and the
// end-to-end metrics are medians over the repeats that fit in --seconds.
// With --trace 1 the benchmark instead times the calls into each layer's
// public functions from its own code (nothing inside the program is
// instrumented) and reconciles the layer self times with an untraced run of
// the same work at one worker. A line of environment data (Go version,
// nproc, GOMAXPROCS, source digest, seed, repeat count, spreads) precedes
// the result line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env describes where and on what a result was measured.
type env struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Go           string             `json:"go"`
	NProc        int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Commit       string             `json:"commit"`
	SourceSHA256 string             `json:"source_sha256"`
	Repeats      int                `json:"repeats"`
	WallsS       []float64          `json:"walls_s,omitempty"`
	ErrorRatio   float64            `json:"error_ratio"`
	Spreads      map[string]float64 `json:"spreads,omitempty"`
	SelfS        map[string]float64 `json:"self_s,omitempty"`
	Checks       []string           `json:"failed_checks,omitempty"`
}

// bench carries the flags every mode shares.
type bench struct {
	root, bin, tmp string
	workload       string
	seed           uint64
	seconds        time.Duration
	workers        int
	probe          bool // child mode: stop once set up
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var b bench
	var secs int
	var trace int
	child := flag.String("child", "", "internal: run one repeat in this mode and report it as JSON")
	dir := flag.String("dir", "", "internal: the child's working directory")
	aux := flag.String("aux", "", "internal: a second directory or file for the child")
	rows := flag.String("rows", "", "internal: save or check sweep rows in this file")
	flag.BoolVar(&b.probe, "probe", false, "internal: the child only sets up, reports ready and exits")
	flag.StringVar(&b.root, "root", ".", "checkout root")
	flag.StringVar(&b.bin, "bin", ".bench_build", "directory holding the built binaries")
	flag.StringVar(&b.workload, "workload", "", "workload name")
	flag.Uint64Var(&b.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.IntVar(&b.workers, "workers", runtime.NumCPU(), "worker count of the untraced repeats")
	flag.Parse()
	b.seconds = time.Duration(secs) * time.Second

	if *child != "" {
		if err := runChild(b, *child, *dir, *aux, *rows); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runParent(b, trace == 1); err != nil {
		log.Fatal(err)
	}
}

func runParent(b bench, trace bool) error {
	if _, err := os.Stat(filepath.Join(b.root, "go.mod")); err != nil {
		return fmt.Errorf("no go.mod at the checkout root %s: run from the root of a checkout", b.root)
	}
	if _, ok := workloads[b.workload]; !ok {
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	tmp, err := os.MkdirTemp(b.bin, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b.tmp = tmp

	var rep report
	if trace {
		rep, err = workloads[b.workload].traced(b)
	} else {
		rep, err = workloads[b.workload].untraced(b)
	}
	if err != nil {
		return err
	}
	e := env{
		Workload: b.workload, Seed: b.seed, Trace: trace,
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: gitCommit(b.root), SourceSHA256: sourceDigest(b.root),
		Repeats: rep.repeats, WallsS: rep.walls, Spreads: rep.spreads, SelfS: rep.self, Checks: rep.checks,
	}
	if rep.attempted > 0 {
		e.ErrorRatio = float64(rep.failed) / float64(rep.attempted)
	}
	line, err := json.Marshal(map[string]env{"env": e})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := result{
		Correct:   len(rep.checks) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is a workload's measured outcome.
type report struct {
	metrics           map[string]metric
	attempted, failed int
	repeats           int
	walls             []float64          // each repeat's wall time, in run order
	spreads           map[string]float64 // within-run spread per metric
	self              map[string]float64 // layer self times of a traced run
	checks            []string
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// workloadDef is one named benchmark workload: its untraced and traced runs.
type workloadDef struct {
	untraced func(b bench) (report, error)
	traced   func(b bench) (report, error)
}

var workloads = map[string]workloadDef{
	"paper-figures":      {untraced: figuresUntraced, traced: figuresTraced},
	"cold-cluster-sweep": {untraced: coldUntraced, traced: coldTraced},
	"warm-sibling-sweep": {untraced: warmUntraced, traced: warmTraced},
	"served-replay":      {untraced: servedUntraced, traced: servedTraced},
}

// repeat is one untraced repeat of a workload.
type repeat struct {
	setupS, wallS, cpuS, rssMB float64
	procS                      float64 // the child process's whole wall time
	cells, requests            float64
	latMS                      []float64 // per-request latencies (served)
}

// endToEnd folds the repeats of an untraced run into the end-to-end
// metrics: medians over repeats, plus each metric's within-run spread.
// Requests are submissions for the served replay and whole runs otherwise:
// the served latency is each repeat's median submit-to-done time, a batch
// workload's latency is the time to its last output.
func endToEnd(reps []repeat, setups []float64, r *report) {
	var wall, cpu, rss, cells, rps, lat []float64
	for _, x := range reps {
		wall = append(wall, x.wallS)
		cpu = append(cpu, x.cpuS)
		rss = append(rss, x.rssMB)
		cells = append(cells, x.cells/x.wallS)
		rps = append(rps, x.requests/x.wallS)
		if len(x.latMS) > 0 {
			lat = append(lat, median(x.latMS))
		} else {
			lat = append(lat, x.wallS*1000)
		}
	}
	r.metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"wall_s":            {median(wall), "s"},
		"cpu_s":             {median(cpu), "s"},
		"max_rss_mb":        {median(rss), "MB"},
		"cells_per_s":       {median(cells), "1/s"},
		"latency_p50_ms":    {median(lat), "ms"},
		"submissions_per_s": {median(rps), "1/s"},
	}
	r.spreads = map[string]float64{
		"setup_s": spread(setups), "wall_s": spread(wall), "cpu_s": spread(cpu),
		"max_rss_mb": spread(rss), "cells_per_s": spread(cells), "submissions_per_s": spread(rps),
		"latency_p50_ms": spread(lat),
	}
	r.repeats = len(reps)
	r.walls = wall
}

// untracedLoop runs repeats (at least one) for the measurement time. It
// starts another repeat only while a typical repeat (the median so far)
// would end no more than half a repeat past the measurement time, so a run
// lasts about --seconds even when one repeat takes a third of it.
func untracedLoop(b bench, one func(i int) (repeat, error)) ([]repeat, error) {
	var reps []repeat
	var took []float64
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds()+median(took)/2 < b.seconds.Seconds() {
		t0 := time.Now()
		rp, err := one(len(reps))
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		reps = append(reps, rp)
	}
	return reps, nil
}

// childRun is one finished child process.
type childRun struct {
	readyS, wallS, cpuS, rssMB float64
	stdout                     []byte
	result                     json.RawMessage
}

// spawn runs a command to completion, timing its start-up to the first
// {"ready":...} line when the command prints one, and returns its rusage.
// The child's last {"result":...} line is returned raw.
func spawn(name string, args ...string) (childRun, error) {
	var cr childRun
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return cr, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return cr, err
	}
	var buf bytes.Buffer
	var readErr error
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"ready"`)) && cr.readyS == 0:
			cr.readyS = time.Since(t0).Seconds()
		case bytes.HasPrefix(line, []byte(`{"result"`)):
			var wrap struct{ Result json.RawMessage }
			if err := json.Unmarshal(line, &wrap); err != nil && readErr == nil {
				readErr = fmt.Errorf("decoding the child's result: %w", err)
			}
			cr.result = wrap.Result
		default:
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil && readErr == nil {
		readErr = err
	}
	// Drain whatever is left so the child never blocks on a full pipe, then
	// wait for it on every path.
	io.Copy(io.Discard, out)
	waitErr := cmd.Wait()
	cr.wallS = time.Since(t0).Seconds()
	if waitErr != nil {
		return cr, fmt.Errorf("%s %s: %w", filepath.Base(name), strings.Join(args, " "), waitErr)
	}
	if readErr != nil {
		return cr, readErr
	}
	st := cmd.ProcessState
	cr.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024
	}
	cr.stdout = buf.Bytes()
	return cr, nil
}

// self spawns this binary in child mode.
func (b bench) self(mode string, args ...string) (childRun, error) {
	base := []string{"-child", mode, "-workload", b.workload, "-seed", fmt.Sprint(b.seed),
		"-workers", fmt.Sprint(b.workers), "-root", b.root, "-bin", b.bin}
	return spawn(filepath.Join(b.bin, "perfbench"), append(base, args...)...)
}

// setupProbes is how many extra set-ups a run of a child-process workload
// times before its repeats: a repeat's own set-up is a few milliseconds of
// process start, too short for a median of the few repeats a long run holds.
const setupProbes = 9

// probeSetup spawns the workload's child n times, each stopping once set
// up, and returns their start-to-ready times. Each probe gets a fresh
// directory when dir is empty, the given one otherwise.
func (b bench) probeSetup(mode, dir string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d := dir
		if d == "" {
			var err error
			if d, err = b.dir("probe-"); err != nil {
				return nil, err
			}
		}
		cr, err := b.self(mode, "-probe", "-dir", d)
		if dir == "" {
			os.RemoveAll(d)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, cr.readyS)
	}
	return out, nil
}

// dir makes a fresh scratch directory for one repeat.
func (b bench) dir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix)
}

// gitCommit reads the checked-out commit straight from .git when the
// checkout has one; otherwise the source digest identifies the code.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if c, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(c))
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and go.mod files, so a
// result names the code it measured even in a checkout without git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runChild runs one child-mode repeat and prints its JSON result line.
func runChild(b bench, mode, dir, aux, rows string) error {
	ctx := context.Background()
	ready := func() { fmt.Println(`{"ready":true}`) }
	var out any
	var err error
	switch mode {
	case "sweep":
		out, err = childSweep(ctx, b, dir, rows, ready)
	case "served":
		out, err = childServed(ctx, b, dir, false, ready)
	case "served-trace":
		out, err = childServed(ctx, b, dir, true, ready)
	case "figures":
		out, err = childFigures(ctx, b)
	case "replay":
		out, err = childReplay(b, dir, aux, rows)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"result": out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
