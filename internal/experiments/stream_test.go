package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// These tests drive StreamCells, the cell pool under both the figure
// drivers and sweep.Run.

// TestStreamCellsOrdering: emit receives every cell, in ascending order,
// for a range of worker counts.
func TestStreamCellsOrdering(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 4, 9} {
		var got []int
		err := StreamCells(context.Background(), n, workers,
			func(i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				if v != i*i {
					t.Errorf("workers=%d: cell %d emitted value %d", workers, i, v)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d cells, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emission out of order at %d: %v", workers, i, got[:i+1])
			}
		}
	}
}

// TestStreamCellsBoundedWindow: workers never dispatch a cell more than the
// reorder window ahead of the emission frontier — the memory bound that
// lets sweeps of 10^5+ cells stream in constant space.
func TestStreamCellsBoundedWindow(t *testing.T) {
	const n, workers = 500, 4
	window := max(4*workers, 64) // StreamCells' window; n is 500
	var emitted atomic.Int64
	var maxAhead atomic.Int64
	err := StreamCells(context.Background(), n, workers,
		func(i int) (int, error) {
			// emitted only grows, so this observes an upper bound of
			// the dispatch-time distance.
			ahead := int64(i) - emitted.Load()
			for {
				cur := maxAhead.Load()
				if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
					break
				}
			}
			return i, nil
		},
		func(i, v int) error {
			emitted.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch is gated on the extraction frontier, which can run one
	// in-flight emission batch (≤ window rows) ahead of the emit counter
	// observed here, so the observable bound is two windows.
	if got := maxAhead.Load(); got > int64(2*window) {
		t.Errorf("dispatch ran %d cells ahead of emission, bound is %d", got, 2*window)
	}
}

// TestStreamCellsEmitsIncrementally: rows must flow while later cells are
// still executing. Cells in the second half of the grid block until the
// tenth row has been emitted; if the engine buffered the full grid before
// emitting anything, this would deadlock.
func TestStreamCellsEmitsIncrementally(t *testing.T) {
	const n = 100
	tenthEmitted := make(chan struct{})
	var closed atomic.Bool
	err := StreamCells(context.Background(), n, 2,
		func(i int) (int, error) {
			if i >= n/2 {
				<-tenthEmitted
			}
			return i, nil
		},
		func(i, v int) error {
			if i == 10 && closed.CompareAndSwap(false, true) {
				close(tenthEmitted)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !closed.Load() {
		t.Fatal("tenth row never emitted")
	}
}

// TestStreamCellsCellError: the lowest-indexed failing cell's error is
// returned, deterministically.
func TestStreamCellsCellError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := StreamCells(context.Background(), 64, workers,
			func(i int) (int, error) {
				if i == 3 || i == 7 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i, nil
			},
			func(i, v int) error { return nil })
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3's", workers, err)
		}
	}
}

// TestStreamCellsEmitError: a failing emit aborts the stream and surfaces.
func TestStreamCellsEmitError(t *testing.T) {
	sentinel := errors.New("writer full")
	for _, workers := range []int{1, 4} {
		var emitted int
		err := StreamCells(context.Background(), 64, workers,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i == 5 {
					return sentinel
				}
				emitted++
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if emitted != 5 {
			t.Errorf("workers=%d: emitted %d rows before the failing one, want 5", workers, emitted)
		}
	}
}

// TestStreamCellsTinyN: degenerate grid sizes — empty shards, single cells,
// and worker pools far wider than the grid — emit exactly their cells with
// no odd window behavior.
func TestStreamCellsTinyN(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 0}, {0, 8}, {-3, 4}, // empty shard: no cells, no error
		{1, 1}, {1, 8}, {1, 64}, // single cell under wide pools
		{2, 64}, {5, 3}, {15, 16}, // workers > n clamps to n
	} {
		var got []int
		err := StreamCells(context.Background(), tc.n, tc.workers,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i != v {
					t.Errorf("n=%d workers=%d: cell %d emitted as %d", tc.n, tc.workers, v, i)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		want := tc.n
		if want < 0 {
			want = 0
		}
		if len(got) != want {
			t.Errorf("n=%d workers=%d: emitted %d cells, want %d", tc.n, tc.workers, len(got), want)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d workers=%d: out of order at %d: %v", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestStreamCellsPreCanceled: an already-canceled context fails immediately
// — before any cell runs — for every pool shape, including the empty grid.
func TestStreamCellsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ n, workers int }{{0, 1}, {10, 1}, {64, 8}} {
		ran := false
		err := StreamCells(ctx, tc.n, tc.workers,
			func(i int) (int, error) { ran = true; return i, nil },
			func(i, v int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("n=%d workers=%d: err = %v, want context.Canceled", tc.n, tc.workers, err)
		}
		if ran {
			t.Errorf("n=%d workers=%d: a cell ran under a canceled context", tc.n, tc.workers)
		}
	}
}

// TestStreamCellsCancelMidStream: canceling while the grid streams stops
// dispatch promptly — far short of the full grid — and surfaces ctx.Err().
// Cells cost ~100µs (a fraction of a real compile/simulate cell), so "the
// workers outran the cancellation" cannot be mistaken for a pass.
func TestStreamCellsCancelMidStream(t *testing.T) {
	const n = 100000
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var dispatched atomic.Int64
		err := StreamCells(ctx, n, workers,
			func(i int) (int, error) {
				if dispatched.Add(1) == 5 {
					cancel()
				}
				time.Sleep(100 * time.Microsecond)
				return i, nil
			},
			func(i, v int) error { return nil })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight cells drain, but dispatch must stop almost immediately:
		// well under the reorder window, let alone the grid.
		if d := dispatched.Load(); d > 100 {
			t.Errorf("workers=%d: %d cells dispatched after cancel, want prompt stop", workers, d)
		}
	}
}
