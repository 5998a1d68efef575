package main

import (
	"math"
	"sort"
	"time"

	"ivliw/sweep"
)

// perLayer lists every per-layer metric of a traced run, with its unit, in
// the order BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"core.compile_ms.c2", "ms"}, {"core.compile_ms.c4", "ms"}, {"core.compile_ms.c8", "ms"},
	{"latassign.assign_ms.c2", "ms"}, {"latassign.assign_ms.c4", "ms"}, {"latassign.assign_ms.c8", "ms"},
	{"latassign.steps", "count"},
	{"sched.run_ms.c2", "ms"}, {"sched.run_ms.c4", "ms"}, {"sched.run_ms.c8", "ms"},
	{"sms.order_ms", "ms"}, {"profile.run_ms", "ms"},
	{"unroll.select_ms", "ms"}, {"unroll.candidates", "count"}, {"unroll.kept_ratio", "ratio"},
	{"sched.ii_over_mii", "ratio"},
	{"pipeline.encode_ms", "ms"}, {"pipeline.disk_put_ms", "ms"}, {"store.disk_writes", "count"},
	{"pipeline.decode_ms", "ms"}, {"pipeline.disk_get_ms", "ms"}, {"pipeline.artifact_kb", "KiB"},
	{"store.disk_hits", "count"}, {"store.mem_hit_ratio", "ratio"},
	{"sim.run_ms", "ms"}, {"sim.front_us", "us"}, {"sim.lane_us", "us"},
	{"sim.ns_per_access", "ns"}, {"sim.allocs_per_cell", "count"}, {"sim.mean_lanes", "count"},
	{"experiments.fig4_s", "s"}, {"experiments.fig5_s", "s"}, {"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"}, {"experiments.fig8_s", "s"}, {"experiments.headlines_s", "s"},
	{"sweep.run_s", "s"}, {"sweep.unexplained_s", "s"},
	{"cost.compile_pred_ratio.c2", "ratio"}, {"cost.compile_pred_ratio.c4", "ratio"}, {"cost.compile_pred_ratio.c8", "ratio"},
	{"cost.default_pred_ratio.c2", "ratio"}, {"cost.default_pred_ratio.c4", "ratio"}, {"cost.default_pred_ratio.c8", "ratio"},
	{"coordinate.stitch_ms", "ms"}, {"coordinate.overhead_ms", "ms"},
	{"coordinate.launches", "count"}, {"coordinate.retries", "count"},
	{"serve.latency_p99_ms", "ms"}, {"serve.cached_ms", "ms"}, {"serve.exec_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
	{"serve.executions", "count"}, {"serve.dedup_ratio", "ratio"}, {"serve.rejected", "count"},
	{"layers_self_s", "s"}, {"untraced_wall_s", "s"}, {"unexplained_s", "s"}, {"trace_overhead_s", "s"},
}

// values flattens a tracer into metric values, deriving the ratios.
func (t *tracer) values() map[string]float64 {
	v := map[string]float64{}
	for k, x := range t.ms {
		v[k] = x
	}
	for k, x := range t.count {
		v[k] = x
	}
	if c := t.count["unroll.candidates"]; c > 0 {
		v["unroll.kept_ratio"] = t.count["unroll.loops"] / c
	}
	if m := t.count["sched.mii"]; m > 0 {
		v["sched.ii_over_mii"] = t.count["sched.ii"] / m
	}
	if n := t.count["sim.batches"]; n > 0 {
		v["sim.mean_lanes"] = t.count["sim.cells"] / n
	}
	return v
}

// lowerSelf returns the self times, in seconds, of the layers below the
// workload's top layer: the compile stages, the artifact store and the
// simulator. Core's self time is its compile time minus the stage calls it
// makes; the store's is encode, put and get (get includes its decode, which
// the replay also times on its own and which is therefore left out here).
func lowerSelf(v map[string]float64) map[string]float64 {
	sum := func(prefix string) float64 {
		var s float64
		for _, n := range stageClusters {
			s += v[clusterMetric(prefix, n)]
		}
		return s
	}
	la, sc := sum("latassign.assign_ms"), sum("sched.run_ms")
	stages := la + sc + v["sms.order_ms"] + v["profile.run_ms"] + v["unroll.select_ms"]
	return map[string]float64{
		"core":      (sum("core.compile_ms") - stages) / 1000,
		"latassign": la / 1000,
		"sched":     sc / 1000,
		"sms":       v["sms.order_ms"] / 1000,
		"profile":   v["profile.run_ms"] / 1000,
		"unroll":    v["unroll.select_ms"] / 1000,
		"pipeline":  (v["pipeline.encode_ms"] + v["pipeline.disk_put_ms"] + v["pipeline.disk_get_ms"]) / 1000,
		"sim":       v["sim.run_ms"] / 1000,
	}
}

func sumValues(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}

// finishTraced reconciles the layer self times with the untraced wall time
// and fills the report with every per-layer metric. A time metric of a
// layer the workload never calls reports the duration of one empty span —
// tens of nanoseconds, a measured near-zero — rather than a constant.
func finishTraced(r *report, v map[string]float64, self map[string]float64, untracedWallS, tracedWallS float64) {
	rec := reconcile(self, untracedWallS, tracedWallS)
	v["layers_self_s"] = rec.SelfS
	v["untraced_wall_s"] = untracedWallS
	v["unexplained_s"] = rec.UnexplainedS
	v["trace_overhead_s"] = rec.OverheadS
	r.metrics = map[string]metric{}
	for _, m := range perLayer {
		x := v[m.name]
		if x == 0 && isTime(m.unit) {
			t0 := time.Now()
			x = float64(time.Since(t0).Nanoseconds()) / unitNS(m.unit)
		}
		r.metrics[m.name] = metric{x, m.unit}
	}
	r.self = self
	r.repeats = 1
	if r.attempted == 0 {
		r.attempted = 1
	}
}

func isTime(unit string) bool { return unit == "ms" || unit == "s" || unit == "us" || unit == "ns" }

func unitNS(unit string) float64 {
	switch unit {
	case "s":
		return 1e9
	case "ms":
		return 1e6
	case "us":
		return 1e3
	}
	return 1
}

// calCompileMS evaluates a calibration's compile cost at c clusters from
// its public fields, interpolating geometrically between entries and
// extrapolating beyond them the way the sweep cost model does.
func calCompileMS(cal sweep.Calibration, c int) float64 {
	t := cal.Clusters
	if len(t) == 0 {
		return 0
	}
	if c <= t[0].Clusters || len(t) == 1 {
		return t[0].CompileMS
	}
	for i := 1; i < len(t); i++ {
		if c <= t[i].Clusters {
			lo, hi := t[i-1], t[i]
			frac := float64(c-lo.Clusters) / float64(hi.Clusters-lo.Clusters)
			return lo.CompileMS * math.Pow(hi.CompileMS/lo.CompileMS, frac)
		}
	}
	lo, hi := t[len(t)-2], t[len(t)-1]
	frac := float64(c-hi.Clusters) / float64(hi.Clusters-lo.Clusters)
	return hi.CompileMS * math.Pow(hi.CompileMS/lo.CompileMS, frac)
}
