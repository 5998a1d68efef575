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
//	             [-shards 1] [-attempts 3] [-worker-bin ivliw-bench]
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
// Without -worker-bin, shard attempts run as goroutines in the daemon
// (sweep.InProcess), with no hang detection, and the -pool-* flags are
// rejected with exit status 2. With it, they run on a health-checked
// sweep.Pool of -pool-workers subprocesses of -worker-bin (the
// `ivliw-bench -spec` protocol), each running up to -pool-slots attempts,
// killed and retried when their heartbeats go stale for -pool-stale (0
// turns heartbeats off). -shards is each job's coordinator
// worker count: 1 runs a job as one task, more cut it into cost-ordered
// chunks the workers claim; any value produces byte-identical rows.
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
	"strings"
	"syscall"
	"time"

	"ivliw/internal/atomicio"
	"ivliw/sweep"
	"ivliw/sweep/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivliw-served: ")
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "ivliw-served: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// parseFlags defines the daemon's flags on fs and parses args into options.
// A -pool-* flag set without -worker-bin is an error: there is no pool for
// it to configure.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (port 0 picks a free port; see -addr-file)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file after listen (atomic)")
	dir := fs.String("dir", "", "durable service root for job state, results and the artifact store (required)")
	executors := fs.Int("executors", 2, "concurrent job executions")
	queue := fs.Int("queue", 64, "bounded submission backlog beyond running jobs")
	maxBody := fs.Int64("max-body", 1<<20, "maximum spec body bytes")
	shards := fs.Int("shards", 1, "coordinator workers per job (1: each job runs as one task)")
	attempts := fs.Int("attempts", 3, "launch attempts per shard")
	workerBin := fs.String("worker-bin", "", "run shard attempts on a worker pool of subprocesses of this binary (the ivliw-bench -spec protocol) instead of in-process")
	poolWorkers := fs.Int("pool-workers", 2, "worker pool (-worker-bin): worker count")
	poolSlots := fs.Int("pool-slots", 1, "worker pool (-worker-bin): concurrent attempts per worker")
	poolStale := fs.Duration("pool-stale", 2*time.Second, "worker pool (-worker-bin): heartbeat staleness threshold (0 disables)")
	workers := fs.Int("workers", 0, "override every job's per-process worker count (0 = respect the spec)")
	simBatch := fs.Int("sim-batch", 0, "override every job's simulate-batch lane cap (0 = respect the spec)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 503 rejections")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *workerBin == "" {
		misplaced := ""
		fs.Visit(func(f *flag.Flag) {
			if misplaced == "" && strings.HasPrefix(f.Name, "pool-") {
				misplaced = f.Name
			}
		})
		if misplaced != "" {
			return options{}, fmt.Errorf("-%s only applies with -worker-bin", misplaced)
		}
	}
	return options{
		addr: *addr, addrFile: *addrFile, dir: *dir,
		executors: *executors, queue: *queue, maxBody: *maxBody,
		shards: *shards, attempts: *attempts, workerBin: *workerBin,
		poolWorkers: *poolWorkers, poolSlots: *poolSlots, poolStale: *poolStale,
		workers: *workers, simBatch: *simBatch, retryAfter: *retryAfter,
	}, nil
}

type options struct {
	addr, addrFile, dir string
	executors, queue    int
	maxBody             int64
	shards, attempts    int
	workerBin           string
	poolWorkers         int
	poolSlots           int
	poolStale           time.Duration
	workers, simBatch   int
	retryAfter          time.Duration
}

// launcher builds the shard launcher: a worker pool of -worker-bin
// subprocesses when it is set, goroutines otherwise.
func launcher(o options) (sweep.Launcher, error) {
	if o.workerBin == "" {
		return sweep.InProcess{}, nil
	}
	if o.poolWorkers < 1 {
		return nil, fmt.Errorf("-pool-workers must be >= 1, got %d", o.poolWorkers)
	}
	ws := make([]sweep.Worker, o.poolWorkers)
	for i := range ws {
		ws[i] = sweep.Worker{Name: fmt.Sprintf("w%d", i), Command: []string{o.workerBin}, Slots: o.poolSlots}
	}
	return &sweep.Pool{
		Workers:    ws,
		StaleAfter: o.poolStale,
		Stderr:     os.Stderr,
		Log:        log.Printf,
	}, nil
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
	launch := "inproc"
	if o.workerBin != "" {
		launch = "pool"
	}
	log.Printf("listening on %s (dir %s, %d executors, queue %d, launch %s, %d shards/job)",
		bound, o.dir, o.executors, o.queue, launch, o.shards)

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
