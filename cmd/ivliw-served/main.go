// Command ivliw-served is the sweep-as-a-service daemon: a long-running
// HTTP/JSON server (package ivliw/sweep/serve) that accepts sweep.Spec
// submissions, executes them through sweep.Coordinate, and makes two
// identical submissions cost one execution — the job ID is the spec's
// semantic hash (sweep.Spec.Hash; predict it offline with
// `ivliw-bench -spec-hash`).
//
// Usage:
//
//	ivliw-served -dir DIR [-addr 127.0.0.1:8372] [-addr-file FILE]
//	             [-executors 2] [-queue 64] [-max-body 1048576]
//	             [-shards 1] [-attempts 3]
//	             [-launch inproc|exec|pool] [-worker-bin ivliw-bench]
//	             [-pool-workers 2] [-pool-slots 1] [-pool-stale 2s]
//	             [-workers N] [-sim-batch K] [-retry-after 1s]
//
// The API (all JSON):
//
//	POST /v1/jobs            submit a spec file's bytes; 202 queued,
//	                         200 dedup (an identical job is in flight or
//	                         done), 409 output-path collision, 503 +
//	                         Retry-After on a full queue or during drain
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{job}      status + coordinator stats + attempt history
//	GET  /v1/jobs/{job}/rows stream result rows as JSONL — byte-identical
//	                         to `ivliw-bench -spec <spec>` run unsharded
//	GET  /v1/stats           server counters (dedup hits, executions, ...)
//
// -dir is the durable root: per-job directories (spec, state record,
// committed rows, coordinator manifest) and the shared content-addressed
// artifact store live there. Restarting the daemon over the same -dir
// resumes: done jobs serve their rows from disk with zero executions, and
// jobs interrupted mid-run re-enter the queue and resume completed shards
// from their coordinator manifests.
//
// -launch selects where shard attempts run: inproc (goroutines), exec
// (worker subprocesses of -worker-bin, the `ivliw-bench -spec` protocol),
// or pool (a health-checked sweep.Pool of -pool-workers subprocess workers
// with heartbeat monitoring). -shards is each job's coordinator worker
// count: 1 runs a job as one task, more cut it into cost-ordered chunks the
// workers claim; any value produces byte-identical rows.
//
// SIGINT/SIGTERM shut down gracefully: in-flight HTTP requests finish,
// running jobs tear down through context cancellation (staged outputs
// discarded, manifests intact) and are persisted back to queued, and new
// submissions are rejected with 503 + Retry-After. Exit status 0.
//
// -addr-file, when set, receives the actually bound address after listen —
// the rendezvous scripts use with -addr 127.0.0.1:0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ivliw/internal/atomicio"
	"ivliw/sweep"
	"ivliw/sweep/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivliw-served: ")

	addr := flag.String("addr", "127.0.0.1:8372", "listen address (port 0 picks a free port; see -addr-file)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file after listen (atomic)")
	dir := flag.String("dir", "", "durable service root for job state, results and the artifact store (required)")
	executors := flag.Int("executors", 2, "concurrent job executions")
	queue := flag.Int("queue", 64, "bounded submission backlog beyond running jobs")
	maxBody := flag.Int64("max-body", 1<<20, "maximum spec body bytes")
	shards := flag.Int("shards", 1, "coordinator workers per job (1: each job runs as one task)")
	attempts := flag.Int("attempts", 3, "launch attempts per shard")
	launch := flag.String("launch", "inproc", "shard launcher: inproc, exec or pool")
	workerBin := flag.String("worker-bin", "", "worker binary for -launch exec|pool (the ivliw-bench -spec protocol)")
	poolWorkers := flag.Int("pool-workers", 2, "pool launcher: worker count")
	poolSlots := flag.Int("pool-slots", 1, "pool launcher: concurrent attempts per worker")
	poolStale := flag.Duration("pool-stale", 2*time.Second, "pool launcher: heartbeat staleness threshold (0 disables)")
	workers := flag.Int("workers", 0, "override every job's per-process worker count (0 = respect the spec)")
	simBatch := flag.Int("sim-batch", 0, "override every job's simulate-batch lane cap (0 = respect the spec)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 503 rejections")
	flag.Parse()

	if err := run(options{
		addr: *addr, addrFile: *addrFile, dir: *dir,
		executors: *executors, queue: *queue, maxBody: *maxBody,
		shards: *shards, attempts: *attempts,
		launch: *launch, workerBin: *workerBin,
		poolWorkers: *poolWorkers, poolSlots: *poolSlots, poolStale: *poolStale,
		workers: *workers, simBatch: *simBatch, retryAfter: *retryAfter,
	}); err != nil {
		log.Fatal(err)
	}
}

type options struct {
	addr, addrFile, dir string
	executors, queue    int
	maxBody             int64
	shards, attempts    int
	launch, workerBin   string
	poolWorkers         int
	poolSlots           int
	poolStale           time.Duration
	workers, simBatch   int
	retryAfter          time.Duration
}

// launcher builds the configured shard launcher.
func launcher(o options) (sweep.Launcher, error) {
	switch o.launch {
	case "inproc":
		return sweep.InProcess{}, nil
	case "exec":
		if o.workerBin == "" {
			return nil, fmt.Errorf("-launch exec requires -worker-bin")
		}
		return sweep.Exec{Command: []string{o.workerBin}, Stderr: os.Stderr}, nil
	case "pool":
		if o.workerBin == "" {
			return nil, fmt.Errorf("-launch pool requires -worker-bin")
		}
		if o.poolWorkers < 1 {
			return nil, fmt.Errorf("-pool-workers must be >= 1, got %d", o.poolWorkers)
		}
		var ws []sweep.Worker
		for i := 0; i < o.poolWorkers; i++ {
			ws = append(ws, sweep.Worker{
				Name:    fmt.Sprintf("w%d", i),
				Command: []string{o.workerBin},
				Slots:   o.poolSlots,
			})
		}
		return &sweep.Pool{
			Workers:    ws,
			StaleAfter: o.poolStale,
			Stderr:     os.Stderr,
			Log:        log.Printf,
		}, nil
	default:
		return nil, fmt.Errorf("unknown -launch %q (want inproc, exec or pool)", o.launch)
	}
}

func run(o options) error {
	if o.dir == "" {
		return fmt.Errorf("-dir is required")
	}
	l, err := launcher(o)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Dir:         o.dir,
		Executors:   o.executors,
		Queue:       o.queue,
		MaxBody:     o.maxBody,
		Shards:      o.shards,
		MaxAttempts: o.attempts,
		Launcher:    l,
		Workers:     o.workers,
		SimBatch:    o.simBatch,
		RetryAfter:  o.retryAfter,
		Log:         log.Printf,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.addrFile != "" {
		if err := atomicio.WriteFile(o.addrFile, []byte(bound+"\n")); err != nil {
			return err
		}
	}
	log.Printf("listening on %s (dir %s, %d executors, queue %d, launch %s, %d shards/job)",
		bound, o.dir, o.executors, o.queue, o.launch, o.shards)

	hs := &http.Server{Handler: srv}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	go func() {
		<-ctx.Done()
		log.Printf("shutdown signal: draining (running jobs requeue for resume)")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()

	// Run blocks until the signal context cancels and every executor has
	// drained; the HTTP server is shut down by the goroutine above.
	if err := srv.Run(ctx); err != nil {
		return err
	}
	if err := <-httpDone; err != nil && err != http.ErrServerClosed {
		return err
	}
	log.Printf("drained; bye")
	return nil
}
