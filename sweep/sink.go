package sweep

import "io"

// Sink consumes sweep rows, one call per row, in grid order. It replaces
// the older SweepTo/EncodeSweepTo/Sweep trio with one composable surface:
// JSONL streams machine-readable lines, Collector gathers the grid in
// memory, and Func adapts any callback. Row is never called concurrently.
type Sink interface {
	Row(r Row) error
}

// Func adapts a plain callback into a Sink.
type Func func(Row) error

// Row implements Sink.
func (f Func) Row(r Row) error { return f(r) }

// JSONL returns a sink writing one JSON object per line to w — the byte
// stream behind `ivliw-bench -spec`. The stream is deterministic: grid
// order, fixed field order, integral counters, independent of worker
// count, store configuration, and (concatenated across shards) sharding.
func JSONL(w io.Writer) Sink {
	return Func(func(r Row) error { return writeRow(w, &r) })
}

// Collector is a sink that gathers every row in memory, for callers that
// want the whole grid at once. Large grids should prefer a streaming sink.
type Collector struct {
	Rows []Row
}

// Row implements Sink.
func (c *Collector) Row(r Row) error {
	c.Rows = append(c.Rows, r)
	return nil
}
