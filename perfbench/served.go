package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ivliw/sweep"
	"ivliw/sweep/serve"
)

// servedPoll is the clients' job-status poll interval.
const servedPoll = 500 * time.Microsecond

// coordinateProbes is how many times the traced run repeats each
// coordinator probe; the probes report medians.
const coordinateProbes = 5

// servedOutcome is a served child's result line.
type servedOutcome struct {
	WallS     float64            `json:"wall_s"`
	LatMS     []float64          `json:"lat_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rows      int                `json:"rows"`
	Checks    []string           `json:"checks"`
	Values    map[string]float64 `json:"values,omitempty"`
}

// submission is one replayed submission as the client saw it.
type submission struct {
	latMS  float64
	job    string
	dedup  bool
	cached bool
	rows   int
	ok     bool
}

// childServed starts a serve.Server on loopback over the fresh dir,
// replays the seeded submission stream through b.workers closed-loop
// client sessions, checks one sampled job's rows against a direct
// sweep.Run of its spec, and stops the server. With trace it also
// reports the service and coordinator layer numbers.
func childServed(ctx context.Context, b bench, dir string, trace bool, ready func()) (out servedOutcome, err error) {
	srv, err := serve.New(serve.Options{Dir: dir, Shards: 2, Workers: 1})
	if err != nil {
		return out, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	hs := &http.Server{Handler: srv}
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.Run(runCtx) }()
	go func() { defer wg.Done(); hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: b.workers}
	defer func() {
		tr.CloseIdleConnections()
		if serr := hs.Shutdown(context.Background()); serr != nil && err == nil {
			err = serr
		}
		stop()
		wg.Wait()
	}()
	c := &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}

	specs := make([][]byte, servedDistinct)
	for i := range specs {
		if specs[i], err = servedSpec(b.seed, i).Encode(); err != nil {
			return out, err
		}
	}
	ready()
	if b.probe {
		return out, nil
	}

	subs := make([]submission, servedSubmissions)
	var next atomic.Int64
	var clients sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < b.workers; w++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(subs) {
					return
				}
				subs[i] = submit(ctx, c, specs[servedPick(b.seed, i)])
			}
		}()
	}
	clients.Wait()
	out.WallS = time.Since(t0).Seconds()
	out.Attempted = len(subs)
	for _, s := range subs {
		if !s.ok {
			out.Failed++
			continue
		}
		out.LatMS = append(out.LatMS, s.latMS)
		out.Rows += s.rows
	}
	st := srv.Stats()
	if st.Rejected > 0 {
		out.Checks = append(out.Checks, fmt.Sprintf("the server refused %d submissions", st.Rejected))
	}

	// The sampled job's served rows must equal a direct run of its spec.
	pick := servedPick(b.seed, len(subs))
	if bad := checkServedRows(ctx, c, dir, servedSpec(b.seed, pick)); bad != "" {
		out.Checks = append(out.Checks, bad)
		out.Failed = out.Attempted
	}
	if trace {
		out.Values, err = servedLayers(ctx, c, dir, b.seed, subs, st)
	}
	return out, err
}

// submit posts one spec and waits for its job to finish. A refused (503)
// or failed submission is not retried: it counts as failed.
func submit(ctx context.Context, c *serve.Client, spec []byte) submission {
	t0 := time.Now()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		return submission{}
	}
	st, err := c.Wait(ctx, resp.Job, servedPoll)
	if err != nil || st.State != serve.StateDone {
		return submission{}
	}
	return submission{
		latMS: float64(time.Since(t0).Nanoseconds()) / 1e6,
		job:   resp.Job, dedup: resp.Dedup, cached: resp.Cached, rows: st.Rows, ok: true,
	}
}

// checkServedRows compares a job's served rows with a direct sweep.Run of
// its spec; it returns a description of the mismatch, or "".
func checkServedRows(ctx context.Context, c *serve.Client, dir string, spec sweep.Spec) string {
	hash, err := spec.Hash()
	if err != nil {
		return err.Error()
	}
	var served bytes.Buffer
	if _, err := c.Rows(ctx, hash, &served); err != nil {
		var apiErr *serve.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			return "" // the sampled spec was never submitted by this stream
		}
		return fmt.Sprintf("fetching served rows: %v", err)
	}
	var direct bytes.Buffer
	spec.Store.Dir = filepath.Join(dir, "direct-store")
	if _, err := sweep.Run(ctx, spec, sweep.JSONL(&direct)); err != nil {
		return fmt.Sprintf("direct run: %v", err)
	}
	if !bytes.Equal(served.Bytes(), direct.Bytes()) {
		return "served rows differ from a direct sweep.Run of the same spec"
	}
	return ""
}

// servedLayers derives the service and coordinator numbers of a traced
// replay from the client's view, the jobs' own stats and coordinator
// probes.
func servedLayers(ctx context.Context, c *serve.Client, dir string, seed uint64, subs []submission, st serve.ServerStats) (map[string]float64, error) {
	v := map[string]float64{
		"serve.executions": float64(st.Executions),
		"serve.rejected":   float64(st.Rejected),
	}
	if st.Submissions > 0 {
		v["serve.dedup_ratio"] = float64(st.DedupHits) / float64(st.Submissions)
	}
	var cached, exec, wait, lat []float64
	var launches, retries int
	for _, s := range subs {
		if !s.ok {
			continue
		}
		lat = append(lat, s.latMS)
		if s.cached {
			cached = append(cached, s.latMS)
		}
		if s.dedup {
			continue
		}
		// The submission that created its job waited for the execution.
		js, err := c.Status(ctx, s.job)
		if err != nil {
			return nil, err
		}
		if js.Stats == nil {
			continue
		}
		exec = append(exec, float64(js.Stats.WallMS))
		wait = append(wait, s.latMS-float64(js.Stats.WallMS))
		launches += js.Stats.Launches
		retries += js.Stats.Retries
	}
	v["serve.latency_p99_ms"] = tailPercentile(lat)
	v["serve.cached_ms"] = median(cached)
	if len(exec) > 0 {
		// JobStats.WallMS is whole milliseconds; the mean keeps the
		// sub-millisecond information a median of them would drop.
		v["serve.exec_ms"] = total(exec) / float64(len(exec))
	}
	v["serve.queue_wait_ms"] = median(wait)
	v["coordinate.launches"] = float64(launches)
	v["coordinate.retries"] = float64(retries)
	v["serve.lat_sum_s"] = total(lat) / 1000
	v["serve.exec_sum_s"] = total(exec) / 1000
	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.art"))
	if err != nil {
		return nil, err
	}
	v["store.disk_writes"] = float64(len(arts))

	stitch, overhead, err := coordinateProbe(ctx, filepath.Join(dir, "probe"), servedSpec(seed, 0))
	if err != nil {
		return nil, err
	}
	v["coordinate.stitch_ms"], v["coordinate.overhead_ms"] = stitch, overhead
	return v, nil
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// coordinateProbe times, over a warm artifact store, sweep.Run and a
// two-shard in-process sweep.Coordinate of the same spec (overhead is the
// difference of their medians), and a resume-only Coordinate over the
// completed work directory, which only stitches.
func coordinateProbe(ctx context.Context, dir string, spec sweep.Spec) (stitchMS, overheadMS float64, err error) {
	spec.Store.Dir = filepath.Join(dir, "store")
	if _, err := sweep.Run(ctx, spec, sweep.JSONL(&bytes.Buffer{})); err != nil {
		return 0, 0, err
	}
	var runs, coords, stitches []float64
	for i := 0; i < coordinateProbes; i++ {
		d := filepath.Join(dir, fmt.Sprint(i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, 0, err
		}
		s := spec
		s.Output.Path = filepath.Join(d, "run.jsonl")
		t0 := time.Now()
		if _, err := sweep.Run(ctx, s, nil); err != nil {
			return 0, 0, err
		}
		runs = append(runs, msSince(t0))

		s.Output.Path = filepath.Join(d, "coord.jsonl")
		opts := sweep.CoordinatorOptions{Shards: 2, Launcher: sweep.InProcess{}, Dir: filepath.Join(d, "work")}
		t0 = time.Now()
		if _, err := sweep.Coordinate(ctx, s, opts); err != nil {
			return 0, 0, err
		}
		coords = append(coords, msSince(t0))

		t0 = time.Now()
		cs, err := sweep.Coordinate(ctx, s, opts)
		if err != nil {
			return 0, 0, err
		}
		stitches = append(stitches, msSince(t0))
		if cs.Launches != 0 {
			return 0, 0, fmt.Errorf("resume-only coordinate relaunched %d shards", cs.Launches)
		}
	}
	return median(stitches), median(coords) - median(runs), nil
}

// servedSessions is the closed-loop client count. One session keeps each
// execution alone on the machine: with two sessions on a two-core machine,
// whether two new jobs happened to overlap made the latency tail bimodal
// from run to run.
const servedSessions = 1

func servedRepeat(b bench, mode string, r *report) (repeat, servedOutcome, error) {
	dir, err := b.dir("served-")
	if err != nil {
		return repeat{}, servedOutcome{}, err
	}
	defer os.RemoveAll(dir)
	cr, err := b.self(mode, "-dir", dir)
	if err != nil {
		return repeat{}, servedOutcome{}, err
	}
	var o servedOutcome
	if err := json.Unmarshal(cr.result, &o); err != nil {
		return repeat{}, o, err
	}
	r.attempted += o.Attempted
	r.failed += o.Failed
	r.checks = append(r.checks, o.Checks...)
	if o.Failed > 0 {
		r.fail("%d of %d submissions failed", o.Failed, o.Attempted)
	}
	return repeat{
		setupS: cr.readyS, wallS: o.WallS, cpuS: cr.cpuS, rssMB: cr.rssMB,
		cells: float64(o.Rows), requests: float64(o.Attempted), latMS: o.LatMS,
	}, o, nil
}

func servedUntraced(b bench) (report, error) {
	var r report
	b.workers = servedSessions
	setups, err := b.probeSetup("served", "", setupProbes)
	if err != nil {
		return r, err
	}
	reps, err := untracedLoop(b, func(int) (repeat, error) {
		rp, _, err := servedRepeat(b, "served", &r)
		setups = append(setups, rp.setupS)
		return rp, err
	})
	if err != nil {
		return r, err
	}
	endToEnd(reps, setups, &r)
	return r, nil
}

// servedTraced runs the replay with one session untraced, then traced,
// then replays the population's compile and simulate work stage by stage.
// The submissions' latencies split into service time (latency minus job
// execution), coordination (the probe's per-job overhead), the sweep
// engine, and the lower layers from the stage replay.
func servedTraced(b bench) (report, error) {
	var r report
	b.workers = 1
	ref, _, err := servedRepeat(b, "served", &r)
	if err != nil {
		return r, err
	}
	traced, o, err := servedRepeat(b, "served-trace", &r)
	if err != nil {
		return r, err
	}
	aux, err := b.dir("replay-")
	if err != nil {
		return r, err
	}
	cr, err := b.self("replay", "-aux", aux)
	if err != nil {
		return r, err
	}
	var ro replayOutcome
	if err := json.Unmarshal(cr.result, &ro); err != nil {
		return r, err
	}
	r.checks = append(r.checks, ro.Checks...)
	v := ro.Values
	for k, x := range o.Values {
		v[k] = x
	}
	self := lowerSelf(v)
	lower := sumValues(self)
	self["coordinate"] = v["serve.executions"] * v["coordinate.overhead_ms"] / 1000
	self["sweep"] = v["serve.exec_sum_s"] - self["coordinate"] - lower
	self["serve"] = v["serve.lat_sum_s"] - v["serve.exec_sum_s"]
	finishTraced(&r, v, self, ref.wallS, traced.wallS)
	return r, nil
}
