package ir

import "testing"

// TestPredCycle drives the predecessor-graph cycle check directly: forests
// (including chains that merge) have none; a self loop, a two-node cycle and
// a tail leading into a cycle each have one. The calls share one engine, so
// the walk stamps carried between calls are exercised too.
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
		copy(e.pred, c.pred)
		if got := e.predCycle(); got != c.want {
			t.Errorf("%s %v: predCycle = %v, want %v", c.name, c.pred, got, c.want)
		}
	}
}
