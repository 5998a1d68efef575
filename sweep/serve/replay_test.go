package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivliw/sweep"
)

// TestReplayDedupsOverlappingSubmissions is the served replay property: 1 000
// overlapping submissions from 32 client sessions over 12 distinct specs,
// run through a pool of two workers as `ivliw-served -worker-bin` runs
// them, fail none and execute each distinct spec exactly once. Every other
// submission is a dedup hit, every answer names its spec's hash, and every
// job serves rows byte-identical to the direct run. A 503 answer is
// retried, as a client would.
func TestReplayDedupsOverlappingSubmissions(t *testing.T) {
	const submissions, sessions, distinct = 1000, 32, 12
	pool := &sweep.Pool{Workers: []sweep.Worker{{}, {}}, StaleAfter: 2 * time.Second, Log: t.Logf}
	srv, c := startServer(t, Options{Launcher: pool})

	specs := make([]sweep.Spec, distinct)
	bodies := make([][]byte, distinct)
	hashes := make([]string, distinct)
	for k := range specs {
		specs[k] = testSpec(fmt.Sprintf("replay-%02d", k), uint64(100+k))
		bodies[k] = encode(t, specs[k])
		h, err := specs[k].Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[k] = h
	}

	ctx := context.Background()
	jobs := make([]string, submissions) // the job each submission was answered with
	var next, retries, failed atomic.Int64
	var wg sync.WaitGroup
	for range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < submissions; i = next.Add(1) - 1 {
				var sub SubmitResponse
				var err error
				for {
					sub, err = c.Submit(ctx, bodies[i%distinct])
					var apiErr *APIError
					if !errors.As(err, &apiErr) || !apiErr.Retryable() {
						break
					}
					retries.Add(1)
					time.Sleep(time.Millisecond)
				}
				if err == nil {
					var st StatusResponse
					if st, err = c.Wait(ctx, sub.Job, time.Millisecond); err == nil && st.State != StateDone {
						err = fmt.Errorf("job %s ended %s: %s", sub.Job, st.State, st.Error)
					}
				}
				if err != nil {
					failed.Add(1)
					t.Errorf("submission %d: %v", i, err)
					continue
				}
				jobs[i] = sub.Job
			}
		}()
	}
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d submissions failed", n, submissions)
	}
	st := srv.Stats()
	if st.Executions != distinct || st.DedupHits != submissions-distinct {
		t.Errorf("stats = %+v, want %d executions and %d dedup hits", st, distinct, submissions-distinct)
	}
	if r := retries.Load(); st.Submissions != submissions+r || st.Rejected != r {
		t.Errorf("stats = %+v after %d retried 503s, want every retry counted as a rejected submission", st, r)
	}
	if ps := pool.Stats(); ps.Launches != distinct {
		t.Errorf("pool stats = %+v, want %d launches", ps, distinct)
	}
	for i, job := range jobs {
		if job != hashes[i%distinct] {
			t.Fatalf("submission %d answered job %s, want its spec's hash %s", i, job, hashes[i%distinct])
		}
	}
	for k, spec := range specs {
		var served bytes.Buffer
		if _, err := c.Rows(ctx, hashes[k], &served); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served.Bytes(), directRows(t, spec)) {
			t.Errorf("spec %d: served rows differ from the direct run", k)
		}
	}
}
