package sweep

import (
	"fmt"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/experiments"
)

// Grid declares the machine axes of a sweep as per-axis value lists; the
// run evaluates their cross-product, Default()-based. Zero-length axes
// collapse to the paper's Table 2 value, so an empty grid is exactly the
// paper point. The grid is part of the serializable Spec: every field is a
// plain JSON list. Its points times the spec's benchmarks may number at
// most 8 192 rows, counted over the whole grid even when one shard runs;
// Validate, and so every run, rejects a larger grid from the axis lengths,
// before expanding anything.
//
// Each value is bounded too, since a worker sizes the machine it builds,
// tag stores and buffers included, from them: at most 64 clusters, an
// interleaving factor of 64, 1 MiB of cache, associativity 64, 256
// Attraction Buffer entries and hint budget, a bus-cycle ratio of 16, a
// next-level latency of 100, 16 units of each functional-unit kind, 16
// register buses and 64 MSHRs.
// Each bound is a few times the largest value in use (16 clusters, 128 KiB,
// 64 entries, 16 MSHRs, a latency of 20), and Validate rejects a larger
// value before anything is allocated, so ivliw-served answers 400. Values
// too small to build a machine are not rejected here: they become error
// rows (see validate).
type Grid struct {
	// Clusters, Interleave, CacheBytes, Assoc and ABEntries are the grid
	// axes (ABEntries 0 = Attraction Buffers off). CacheBytes is the total
	// L1 capacity in bytes.
	Clusters   []int `json:"clusters,omitempty"`
	Interleave []int `json:"interleave,omitempty"`
	CacheBytes []int `json:"cache_bytes,omitempty"`
	Assoc      []int `json:"assoc,omitempty"`
	ABEntries  []int `json:"ab_entries,omitempty"`
	// BusCycleRatio and NextLevelLatency sweep the communication axes.
	BusCycleRatio    []int `json:"bus_cycle_ratio,omitempty"`
	NextLevelLatency []int `json:"next_level_latency,omitempty"`
	// FUs sweeps the per-cluster functional-unit mix; each entry is an
	// [int, fp, mem] triple.
	FUs [][]int `json:"fus,omitempty"`
	// RegBuses sweeps the register-to-register bus count.
	RegBuses []int `json:"reg_buses,omitempty"`
	// MSHRs sweeps the outstanding-fill bound (0 = unbounded).
	MSHRs []int `json:"mshrs,omitempty"`
	// ABHintK sweeps the §5.2 hint budget: 0 leaves hints off, a positive
	// K enables ABHints with that budget. The axis only applies to points
	// whose ABEntries axis enables the buffers; buffer-less points are
	// kept once instead of being duplicated per K (hints without buffers
	// are not a distinct machine).
	ABHintK []int `json:"ab_hint_k,omitempty"`
}

// Upper bounds on the grid's values (see Grid).
const (
	maxClusters         = 64
	maxInterleave       = 64
	maxCacheBytes       = 1 << 20
	maxAssoc            = 64
	maxABEntries        = 256
	maxBusCycleRatio    = 16
	maxNextLevelLatency = 100
	maxFUs              = 16
	maxRegBuses         = 16
	maxMSHRs            = 64
	maxABHintK          = maxABEntries
)

// validate rejects malformed axes: FU entries that are not triples, and
// values above their bounds. Infeasible machine points are deliberately not
// rejected here: the grid keeps them and they surface as per-cell error
// rows, documenting the infeasible region of the space instead of silently
// shrinking it.
func (g Grid) validate() error {
	for i, fu := range g.FUs {
		if len(fu) != int(arch.NumFUKinds) {
			return fmt.Errorf("sweep: grid fus[%d] has %d entries, want %d ([int, fp, mem])",
				i, len(fu), int(arch.NumFUKinds))
		}
		for _, v := range fu {
			if v > maxFUs {
				return fmt.Errorf("sweep: grid fus[%d] value %d exceeds the limit of %d", i, v, maxFUs)
			}
		}
	}
	for _, axis := range []struct {
		name  string
		vals  []int
		limit int
	}{
		{"clusters", g.Clusters, maxClusters},
		{"interleave", g.Interleave, maxInterleave},
		{"cache_bytes", g.CacheBytes, maxCacheBytes},
		{"assoc", g.Assoc, maxAssoc},
		{"ab_entries", g.ABEntries, maxABEntries},
		{"bus_cycle_ratio", g.BusCycleRatio, maxBusCycleRatio},
		{"next_level_latency", g.NextLevelLatency, maxNextLevelLatency},
		{"reg_buses", g.RegBuses, maxRegBuses},
		{"mshrs", g.MSHRs, maxMSHRs},
		{"ab_hint_k", g.ABHintK, maxABHintK},
	} {
		for _, v := range axis.vals {
			if v > axis.limit {
				return fmt.Errorf("sweep: grid %s value %d exceeds the limit of %d", axis.name, v, axis.limit)
			}
		}
	}
	return nil
}

// rows returns how many rows the grid expands to over n benchmarks —
// len(points) × n — from the axis lengths alone, saturating just past
// maxGridRows so that no product overflows.
func (g Grid) rows(n int) int {
	capMul := func(a, b int) int {
		if b > 0 && a > maxGridRows/b {
			return maxGridRows + 1
		}
		return a * b
	}
	rows := min(n, maxGridRows+1)
	for _, axis := range []int{len(g.Clusters), len(g.Interleave), len(g.CacheBytes), len(g.Assoc),
		len(g.BusCycleRatio), len(g.NextLevelLatency), len(g.FUs), len(g.RegBuses), len(g.MSHRs)} {
		rows = capMul(rows, max(axis, 1))
	}
	// ABHintK multiplies only the points whose ABEntries value enables
	// the buffers; an empty ABEntries axis is one buffer-less point.
	on := 0
	for _, v := range g.ABEntries {
		if v > 0 {
			on++
		}
	}
	off := max(len(g.ABEntries), 1) - on
	return capMul(rows, min(off+capMul(on, max(len(g.ABHintK), 1)), maxGridRows+1))
}

// points expands the grid into sweep points labeled by their configuration
// ID, in row-major axis order (Clusters outermost, ABHintK innermost), all
// compiled under opt. Invalid combinations (for example an interleaving
// factor that does not divide the block size across the clusters) are kept:
// they surface as per-cell errors in the rows.
func (g Grid) points(opt core.Options) []experiments.Variant {
	def := arch.Default()
	cfgs := []arch.Config{def}
	// expandN crosses the current point set with one n-valued axis; n = 0
	// keeps every point's current (Table 2) value.
	expandN := func(n int, set func(*arch.Config, int)) {
		if n == 0 {
			return
		}
		next := make([]arch.Config, 0, len(cfgs)*n)
		for _, c := range cfgs {
			for i := 0; i < n; i++ {
				nc := c
				set(&nc, i)
				next = append(next, nc)
			}
		}
		cfgs = next
	}
	expand := func(vals []int, set func(*arch.Config, int)) {
		expandN(len(vals), func(c *arch.Config, i int) { set(c, vals[i]) })
	}
	expand(g.Clusters, func(c *arch.Config, v int) { c.Clusters = v })
	expand(g.Interleave, func(c *arch.Config, v int) { c.Interleave = v })
	expand(g.CacheBytes, func(c *arch.Config, v int) { c.CacheBytes = v })
	expand(g.Assoc, func(c *arch.Config, v int) { c.Assoc = v })
	// The AB axis keeps the historical default of "off" rather than the
	// Table 2 entry count: sweeping nothing sweeps the paper point.
	ab := g.ABEntries
	if len(ab) == 0 {
		ab = []int{0}
	}
	expand(ab, func(c *arch.Config, v int) {
		c.AttractionBuffers = v > 0
		if v > 0 {
			c.ABEntries = v
		}
	})
	expand(g.BusCycleRatio, func(c *arch.Config, v int) { c.BusCycleRatio = v })
	expand(g.NextLevelLatency, func(c *arch.Config, v int) { c.NextLevelLatency = v })
	expandN(len(g.FUs), func(c *arch.Config, i int) {
		var fu [arch.NumFUKinds]int
		copy(fu[:], g.FUs[i])
		c.FUsPerCluster = fu
	})
	expand(g.RegBuses, func(c *arch.Config, v int) { c.RegBuses = v })
	expand(g.MSHRs, func(c *arch.Config, v int) { c.MSHRs = v })
	if len(g.ABHintK) > 0 {
		next := make([]arch.Config, 0, len(cfgs)*len(g.ABHintK))
		for _, c := range cfgs {
			if !c.AttractionBuffers {
				// Hints need buffers: crossing K with a buffer-less
				// point would mint duplicate points (and duplicate
				// Config.ID labels) that differ in nothing.
				next = append(next, c)
				continue
			}
			for _, v := range g.ABHintK {
				nc := c
				nc.ABHints = v > 0
				if v > 0 {
					nc.ABHintK = v
				}
				next = append(next, nc)
			}
		}
		cfgs = next
	}

	points := make([]experiments.Variant, 0, len(cfgs))
	for _, cfg := range cfgs {
		points = append(points, experiments.Variant{
			Label:   cfg.ID(),
			Cfg:     cfg,
			Opt:     opt,
			Aligned: true,
		})
	}
	return points
}
