package ir

import "testing"

// TestPredCycle drives the predecessor-graph cycle check directly: forests
// (including chains that merge) have none; a self loop, a two-node cycle and
// a tail leading into a cycle each have one, and the node returned must lie
// on it. Each case lists every node's predecessor node; the test turns it
// into one carried-graph arc per node, recorded in pred. The calls share
// one engine, so the walk stamps carried between calls are exercised too.
func TestPredCycle(t *testing.T) {
	cases := []struct {
		name string
		pred []int
		want bool
	}{
		{"roots", []int{-1, -1, -1, -1, -1}, false},
		{"chain", []int{-1, 0, 1, 2, 3}, false},
		{"merging chains", []int{-1, 0, 0, 1, 2}, false},
		{"reversed chain", []int{1, 2, 3, 4, -1}, false},
		{"self loop", []int{-1, 1, -1, -1, -1}, true},
		{"two-cycle", []int{-1, 2, 1, -1, -1}, true},
		{"tail into cycle", []int{1, 2, 3, 1, 0}, true},
		{"cycle through all", []int{4, 0, 1, 2, 3}, true},
		{"forest again", []int{-1, 0, -1, 2, 2}, false},
	}
	e := &RecEngine{pred: make([]int, 5), mark: make([]int, 5)}
	for _, c := range cases {
		e.arcs = e.arcs[:0]
		for v, u := range c.pred {
			e.pred[v] = -1
			if u >= 0 {
				e.pred[v] = len(e.arcs)
				e.arcs = append(e.arcs, arc{from: u, to: v})
			}
		}
		u := e.predCycle()
		if got := u >= 0; got != c.want {
			t.Errorf("%s %v: predCycle = %d, want a cycle: %v", c.name, c.pred, u, c.want)
			continue
		}
		if !c.want {
			continue
		}
		v := c.pred[u]
		for steps := 0; v != u && v >= 0 && steps < len(c.pred); steps++ {
			v = c.pred[v]
		}
		if v != u {
			t.Errorf("%s %v: predCycle = %d, not on a cycle", c.name, c.pred, u)
		}
	}
}
