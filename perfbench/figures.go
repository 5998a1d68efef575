package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ivliw/internal/experiments"
)

// figureProbes is how many fresh `ivliw-bench -exp table2` processes
// set-up starts; setup_s is their median start-to-exit time.
const figureProbes = 25

func (b bench) ivliwBench(args ...string) (childRun, error) {
	return spawn(filepath.Join(b.bin, "ivliw-bench"), args...)
}

func (b bench) golden() ([]byte, error) {
	return os.ReadFile(filepath.Join(b.root, "cmd", "ivliw-bench", "testdata", "exp_all.golden"))
}

func figuresUntraced(b bench) (report, error) {
	var r report
	golden, err := b.golden()
	if err != nil {
		return r, err
	}
	var setups []float64
	for i := 0; i < figureProbes; i++ {
		cr, err := b.ivliwBench("-exp", "table2")
		if err != nil {
			return r, err
		}
		setups = append(setups, cr.wallS)
	}
	// cells_per_s counts the (benchmark × variant) cells one `-exp all`
	// evaluates.
	cells := float64(len(figureCells()))
	reps, err := untracedLoop(b, func(i int) (repeat, error) {
		cr, err := b.ivliwBench("-exp", "all", "-workers", fmt.Sprint(b.workers))
		if err != nil {
			return repeat{}, err
		}
		r.attempted++
		if !bytes.Equal(cr.stdout, golden) {
			r.failed++
			r.fail("ivliw-bench -exp all output differs from the golden transcript (repeat %d)", i)
		}
		return repeat{wallS: cr.wallS, cpuS: cr.cpuS, rssMB: cr.rssMB, cells: cells, requests: 1}, nil
	})
	if err != nil {
		return r, err
	}
	endToEnd(reps, setups, &r)
	return r, nil
}

// figureTimes is the figures child's result: each figure driver's wall
// time in a fresh process, in `-exp all` order.
type figureTimes map[string]float64

// childFigures times every figure driver `-exp all` calls, at the worker
// count given, in a fresh process so the drivers' compile cache starts
// empty exactly as it does for the CLI.
func childFigures(ctx context.Context, b bench) (figureTimes, error) {
	experiments.SetWorkers(b.workers)
	out := figureTimes{}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		out[name] = time.Since(t0).Seconds()
		return err
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"experiments.fig4_s", func() error { _, err := experiments.Figure4(ctx); return err }},
		{"experiments.fig5_s", func() error { _, err := experiments.Figure5(ctx); return err }},
		{"experiments.fig6_s", func() error { _, err := experiments.Figure6(ctx); return err }},
		{"experiments.fig7_s", func() error { _, err := experiments.Figure7(ctx); return err }},
		{"experiments.fig8_s", func() error { _, err := experiments.Figure8(ctx); return err }},
		{"experiments.headlines_s", func() error {
			f4, err := experiments.Figure4(ctx)
			if err != nil {
				return err
			}
			f6, err := experiments.Figure6(ctx)
			if err != nil {
				return err
			}
			f8, err := experiments.Figure8(ctx)
			if err != nil {
				return err
			}
			experiments.ComputeHeadlines(f4, f6, f8)
			return nil
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// figuresTraced: the untraced reference is `ivliw-bench -exp all` at one
// worker; the figure drivers are timed in one fresh process and the stage
// replay of their cells in another.
func figuresTraced(b bench) (report, error) {
	var r report
	b.workers = 1
	golden, err := b.golden()
	if err != nil {
		return r, err
	}
	ref, err := b.ivliwBench("-exp", "all", "-workers", "1")
	if err != nil {
		return r, err
	}
	r.attempted++
	if !bytes.Equal(ref.stdout, golden) {
		r.failed++
		r.fail("ivliw-bench -exp all output differs from the golden transcript")
	}
	cr, err := b.self("figures")
	if err != nil {
		return r, err
	}
	var ft figureTimes
	if err := json.Unmarshal(cr.result, &ft); err != nil {
		return r, err
	}
	cr, err = b.self("replay")
	if err != nil {
		return r, err
	}
	var ro replayOutcome
	if err := json.Unmarshal(cr.result, &ro); err != nil {
		return r, err
	}
	r.checks = append(r.checks, ro.Checks...)
	v := ro.Values
	for k, s := range ft {
		v[k] = s
	}
	self := lowerSelf(v)
	self["experiments"] = sumValues(ft) - sumValues(self)
	finishTraced(&r, v, self, ref.wallS, ro.WallS)
	return r, nil
}
