package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ivliw/sweep/fault"
)

// Worker is one entry in a Pool's registry: a place shard attempts can run.
type Worker struct {
	// Name identifies the worker in logs, manifests and fault plans.
	// Empty defaults to "w<index>". Names must be unique within a pool.
	Name string
	// Command is the argv prefix that starts this worker's attempts as
	// subprocesses — {"ivliw-bench"} locally, {"ssh", "host",
	// "ivliw-bench"} remotely over a shared filesystem. Each attempt
	// appends `-spec <SpecPath> -shard <i>/<n> -out <Output.Path>`, then
	// `-claim <lo>:<hi>` when the task pins a row range (every coordinator
	// task does) and `-heartbeat <file> -heartbeat-interval <d>` when
	// StaleAfter > 0: the per-worker invocation documented for
	// multi-process sweeps, so `ivliw-bench` (or any flag-compatible
	// binary) is a worker with no extra protocol. Empty runs attempts
	// in-process (goroutines), the zero-setup configuration for tests and
	// single-machine pools.
	Command []string
	// Slots is how many shard attempts may run on this worker at once
	// (0 = 1).
	Slots int
}

// PoolStats counts the health events of a pool's lifetime so far.
type PoolStats struct {
	// Launches is the number of attempts the pool has started.
	Launches int
	// StaleKills counts attempts killed for stale heartbeats.
	StaleKills int
	// WorkerDeaths counts scripted dead-worker faults taken.
	WorkerDeaths int
	// ChecksumFailures counts attempts whose committed output did not match
	// the checksum in their final heartbeat.
	ChecksumFailures int
	// Quarantines and Readmissions count workers entering and leaving
	// quarantine.
	Quarantines, Readmissions int
}

// Pool is the health-checked Launcher and the only one that starts worker
// subprocesses: it schedules shard attempts across a registry of Workers,
// watches each attempt's heartbeat file, kills and fails attempts whose
// heartbeats go stale — the coordinator's only hang detector — verifies
// committed outputs against the checksum carried by the final heartbeat,
// and quarantines workers that fail repeatedly — requeueing everything in
// flight on them at once. It is a drop-in
// CoordinatorOptions.Launcher; retries and requeues remain the
// coordinator's job, the pool only decides where attempts run and when
// they are dead.
//
// The zero value of every knob is usable: a Pool{Workers: ...} with no
// further configuration schedules round-robin-by-load with heartbeat
// monitoring disabled (StaleAfter 0), which runs each attempt as a plain
// subprocess (or goroutine) and trusts its exit status.
type Pool struct {
	// Workers is the registry (required, >= 1 entry).
	Workers []Worker

	// StaleAfter declares an attempt dead when its heartbeat file has not
	// been touched for this long; the attempt is killed and the failure
	// surfaces to the coordinator for retry. Workers are asked to beat
	// every StaleAfter/4. 0 disables heartbeat monitoring and with it the
	// done-beat checksum verification.
	StaleAfter time.Duration

	// QuarantineAfter quarantines a worker after this many consecutive
	// attempt failures (0 = 2; < 0 disables quarantine).
	QuarantineAfter int
	// QuarantineBackoff is the base of the capped exponential backoff a
	// quarantined worker waits before readmission (0 = 1s); successive
	// quarantines double it up to 32× the base. The actual wait is
	// jittered deterministically by Seed into [d/2, d].
	QuarantineBackoff time.Duration
	// Seed feeds the deterministic jitter (same role as Spec seeds:
	// identical configuration, identical schedule).
	Seed uint64

	// Fault, when non-nil, arms scripted dead-worker events: the worker
	// named by a matching event dies (is quarantined, all in-flight
	// attempts failed) as its Launch-th attempt starts. Shard-scoped fault
	// events are the worker process's business, not the pool's.
	Fault *fault.Plan

	// Stderr receives subprocess worker stderr (nil discards it). Stdout
	// is discarded: shard rows travel through the output file, never the
	// pipe. Independently of Stderr, the last stderr bytes are kept in a
	// bounded ring and surfaced in the error of a failed attempt.
	Stderr io.Writer
	// Log receives health events — stale kills, quarantines, readmissions,
	// worker deaths; nil discards them.
	Log func(format string, args ...any)

	initOnce sync.Once
	initErr  error

	mu    sync.Mutex
	wake  chan struct{} // closed and replaced whenever scheduling state changes
	ws    []*poolWorker
	stats PoolStats

	// inproc runs one in-process attempt (test seam; nil = Run).
	inproc func(ctx context.Context, worker string, task ShardTask, spec Spec) error
}

// poolWorker is the pool's mutable view of one Worker.
type poolWorker struct {
	Worker
	idx      int
	busy     int       // attempts currently running here
	launches int       // lifetime launches (fault-plan launch ordinals)
	strikes  int       // consecutive failures
	quars    int       // times quarantined (drives the backoff exponent)
	until    time.Time // quarantined until (zero = healthy)
	inflight map[*poolAttempt]struct{}
}

// poolAttempt is one running attempt's handle, registered on its worker so
// a quarantine can cancel everything in flight there at once.
type poolAttempt struct {
	cancel context.CancelCauseFunc
}

// staleError is the cancel cause of a heartbeat-stale kill.
type staleError struct {
	worker string
	age    time.Duration
}

func (e *staleError) Error() string {
	return fmt.Sprintf("sweep: pool: heartbeat stale for %v on worker %s", e.age.Round(time.Millisecond), e.worker)
}

// workerDownError is the cancel cause when an attempt's worker dies or is
// quarantined under it.
type workerDownError struct {
	worker string
	reason string
}

func (e *workerDownError) Error() string {
	return fmt.Sprintf("sweep: pool: worker %s down (%s)", e.worker, e.reason)
}

// init validates the registry and applies defaults, once.
func (p *Pool) init() error {
	p.initOnce.Do(func() {
		if len(p.Workers) == 0 {
			p.initErr = fmt.Errorf("sweep: pool: no workers")
			return
		}
		if p.QuarantineAfter == 0 {
			p.QuarantineAfter = 2
		}
		if p.QuarantineBackoff <= 0 {
			p.QuarantineBackoff = time.Second
		}
		if p.Log == nil {
			p.Log = func(string, ...any) {}
		}
		p.wake = make(chan struct{})
		seen := map[string]bool{}
		for i, w := range p.Workers {
			if w.Name == "" {
				w.Name = "w" + strconv.Itoa(i)
			}
			if w.Slots <= 0 {
				w.Slots = 1
			}
			if seen[w.Name] {
				p.initErr = fmt.Errorf("sweep: pool: duplicate worker name %q", w.Name)
				return
			}
			seen[w.Name] = true
			p.ws = append(p.ws, &poolWorker{Worker: w, idx: i, inflight: map[*poolAttempt]struct{}{}})
		}
		if p.inproc == nil {
			p.inproc = func(ctx context.Context, _ string, _ ShardTask, spec Spec) error {
				_, err := Run(ctx, spec, nil)
				return err
			}
		}
	})
	return p.initErr
}

// beatInterval is the heartbeat period requested from workers.
func (p *Pool) beatInterval() time.Duration {
	return max(p.StaleAfter/4, 10*time.Millisecond)
}

// Stats returns a snapshot of the pool's health counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// wakeLocked signals every scheduler waiting for a slot. Callers hold p.mu.
func (p *Pool) wakeLocked() {
	close(p.wake)
	p.wake = make(chan struct{})
}

// Launch implements Launcher: pick the least-loaded healthy worker (waiting
// for a free slot or a readmission when none is available), run the attempt
// there under heartbeat watch, and classify the outcome — a stale kill or a
// worker death surfaces as that cause, an external cancellation as
// ctx.Err(), and consecutive failures quarantine the worker.
func (p *Pool) Launch(ctx context.Context, task ShardTask) error {
	if err := p.init(); err != nil {
		return err
	}
	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	att := &poolAttempt{cancel: cancel}

	w, launchSeq, err := p.acquire(ctx, att)
	if err != nil {
		return err
	}
	if task.Assigned != nil {
		task.Assigned(w.Name)
	}
	// A scripted dead-worker event fires as this launch starts: the worker
	// goes down with everything in flight on it — including this attempt.
	if ev := p.Fault.ForLaunch(w.Name, launchSeq); ev != nil {
		p.killWorker(w, "fault: dead-worker")
	}

	err = p.runAttempt(actx, w, att, task)

	// Classification order matters: an external cancellation is teardown,
	// not a worker failure; a pool-internal cause (stale kill, worker
	// death) is the real error the coordinator should record and retry.
	external := false
	if ctx.Err() != nil {
		err = ctx.Err()
		external = true
	} else if cause := context.Cause(actx); cause != nil && actx.Err() != nil {
		switch cause.(type) {
		case *staleError, *workerDownError:
			err = cause
		}
	}
	p.release(w, att, err, external)
	return err
}

// acquire blocks until a healthy worker has a free slot, registers att on
// it, and returns the worker plus the 1-based lifetime launch ordinal.
func (p *Pool) acquire(ctx context.Context, att *poolAttempt) (*poolWorker, int, error) {
	for {
		p.mu.Lock()
		now := time.Now()
		var best *poolWorker
		var nextUp time.Time // soonest readmission among quarantined workers
		for _, w := range p.ws {
			if !w.until.IsZero() {
				if now.Before(w.until) {
					if nextUp.IsZero() || w.until.Before(nextUp) {
						nextUp = w.until
					}
					continue
				}
				// Quarantine elapsed: readmit on first touch.
				w.until = time.Time{}
				w.strikes = 0
				p.stats.Readmissions++
				p.Log("pool: worker %s readmitted after quarantine", w.Name)
			}
			if w.busy >= w.Slots {
				continue
			}
			if best == nil || w.busy < best.busy {
				best = w
			}
		}
		if best != nil {
			best.busy++
			best.launches++
			best.inflight[att] = struct{}{}
			p.stats.Launches++
			seq := best.launches
			p.mu.Unlock()
			return best, seq, nil
		}
		wake := p.wake
		p.mu.Unlock()

		var timer *time.Timer
		var timerC <-chan time.Time
		if !nextUp.IsZero() {
			timer = time.NewTimer(time.Until(nextUp) + time.Millisecond)
			timerC = timer.C
		}
		select {
		case <-wake:
		case <-timerC:
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return nil, 0, ctx.Err()
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// release returns the attempt's slot and applies strike accounting: a
// success clears the worker's strikes, a pool-internal or real failure adds
// one (quarantining at the threshold), an external cancellation or a
// failure caused by the worker already being down adds none.
func (p *Pool) release(w *poolWorker, att *poolAttempt, err error, external bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.busy--
	delete(w.inflight, att)
	switch {
	case err == nil:
		w.strikes = 0
	case external:
		// Teardown, not a verdict on the worker.
	default:
		if _, down := err.(*workerDownError); down || !w.until.IsZero() {
			// The worker is already quarantined; this attempt's failure is
			// a consequence, not new evidence.
			break
		}
		w.strikes++
		if p.QuarantineAfter > 0 && w.strikes >= p.QuarantineAfter {
			p.quarantineLocked(w, fmt.Sprintf("%d consecutive failures", w.strikes))
		}
	}
	p.wakeLocked()
}

// killWorker takes a scripted worker death: log, count, quarantine.
func (p *Pool) killWorker(w *poolWorker, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Log("pool: worker %s died (%s)", w.Name, reason)
	p.stats.WorkerDeaths++
	p.quarantineLocked(w, reason)
	p.wakeLocked()
}

// quarantineLocked puts w into backoff and fails everything in flight on it
// at once — its shards requeue immediately onto healthy workers instead of
// each discovering the dead worker on its own schedule. Callers hold p.mu.
func (p *Pool) quarantineLocked(w *poolWorker, reason string) {
	d := backoffDelay(p.QuarantineBackoff, w.quars, splitmix64(p.Seed^nameSeed(w.Name)^uint64(w.quars)))
	w.quars++
	w.strikes = 0
	w.until = time.Now().Add(d)
	p.stats.Quarantines++
	p.Log("pool: worker %s quarantined for %v (%s); requeueing %d in-flight attempts",
		w.Name, d.Round(time.Millisecond), reason, len(w.inflight))
	cause := &workerDownError{worker: w.Name, reason: reason}
	for att := range w.inflight {
		att.cancel(cause)
	}
}

// nameSeed folds a worker name into the jitter seed.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// runAttempt runs one attempt on w — in-process or as a subprocess — under
// a heartbeat watcher, and verifies the committed output's checksum against
// the final heartbeat.
func (p *Pool) runAttempt(ctx context.Context, w *poolWorker, att *poolAttempt, task ShardTask) error {
	spec := task.Spec
	outPath := spec.Output.Path
	hbPath := ""
	if p.StaleAfter > 0 && outPath != "" {
		hbPath = fmt.Sprintf("%s.hb-%d", outPath, task.Attempt)
		defer os.Remove(hbPath)
		stop := make(chan struct{})
		defer close(stop)
		go p.watch(ctx, w, att, hbPath, stop)
	}

	var err error
	if len(w.Command) == 0 {
		if hbPath != "" {
			spec.Heartbeat = Heartbeat{Path: hbPath, IntervalMS: int(p.beatInterval() / time.Millisecond)}
		}
		err = p.inproc(ctx, w.Name, task, spec)
	} else {
		err = p.spawn(ctx, w, task, hbPath)
	}
	if err != nil {
		return err
	}
	if hbPath != "" {
		return p.verify(w, task, hbPath, outPath)
	}
	return nil
}

// execGrace is how long a canceled worker subprocess gets between SIGTERM
// and SIGKILL.
const execGrace = 3 * time.Second

// execStderrTail bounds the stderr ring kept for failed-attempt errors.
const execStderrTail = 4096

// spawn runs one attempt as a subprocess of w.Command with the worker argv
// documented on Worker.Command, asking for beats to hbPath when it is set.
// On cancellation the subprocess gets SIGTERM and execGrace to run its
// SIGINT-clean teardown (discard staged temps, exit 130) before SIGKILL.
func (p *Pool) spawn(ctx context.Context, w *poolWorker, task ShardTask, hbPath string) error {
	args := append(append([]string(nil), w.Command[1:]...),
		"-spec", task.SpecPath,
		"-shard", fmt.Sprintf("%d/%d", task.Spec.Shard.Index, task.Spec.Shard.Count),
		"-out", task.Spec.Output.Path,
	)
	if task.Spec.Shard.Hi > task.Spec.Shard.Lo {
		// An explicit row range rides the -claim protocol; -shard stays
		// for identity (fault plans key on its index).
		args = append(args, "-claim", fmt.Sprintf("%d:%d", task.Spec.Shard.Lo, task.Spec.Shard.Hi))
	}
	if hbPath != "" {
		args = append(args, "-heartbeat", hbPath, "-heartbeat-interval", p.beatInterval().String())
	}
	cmd := exec.CommandContext(ctx, w.Command[0], args...)
	tail := &tailBuffer{max: execStderrTail}
	cmd.Stderr = tail
	if p.Stderr != nil {
		cmd.Stderr = io.MultiWriter(p.Stderr, tail)
	}
	// The attempt number and worker name ride the environment so a
	// scripted fault plan (sweep/fault) can target "shard i, attempt j"
	// deterministically; fault.Environ owns the protocol's env contract.
	cmd.Env = fault.Environ([]string{fault.WorkerEnv(w.Name)}, task.Attempt)
	// Cancellation means teardown, not murder: SIGTERM first, so the worker
	// runs its signal-clean exit (discarding staged temps), SIGKILL only
	// after the grace. CommandContext's default is an immediate SIGKILL,
	// which could land mid-rename.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = execGrace
	if err := cmd.Run(); err != nil {
		// A kill triggered by cancellation is the context's error, not the
		// subprocess's: Launch tells teardown from failure by it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if t := tail.tail(); t != "" {
			return fmt.Errorf("sweep: shard %d attempt %d (%s): %w (stderr: %s)",
				task.Index, task.Attempt, w.Command[0], err, t)
		}
		return fmt.Errorf("sweep: shard %d attempt %d (%s): %w", task.Index, task.Attempt, w.Command[0], err)
	}
	return nil
}

// tailBuffer is a bounded ring keeping the last max bytes written —
// enough stderr tail to say why a worker died without unbounded growth.
type tailBuffer struct {
	mu   sync.Mutex
	max  int
	buf  []byte
	full bool
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(p)
	if n >= t.max {
		t.buf = append(t.buf[:0], p[n-t.max:]...)
		t.full = true
		return n, nil
	}
	if len(t.buf)+n > t.max {
		drop := len(t.buf) + n - t.max
		t.buf = append(t.buf[:0], t.buf[drop:]...)
		t.full = true
	}
	t.buf = append(t.buf, p...)
	return n, nil
}

// tail renders the ring as a single error-friendly line.
func (t *tailBuffer) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := strings.TrimSpace(string(t.buf))
	if s == "" {
		return ""
	}
	s = strings.ReplaceAll(s, "\n", " | ")
	if t.full {
		s = "..." + s
	}
	return s
}

// verify cross-checks a successful attempt against its final heartbeat:
// the beat must say done, and when it carries an output checksum the
// committed file must hash to it. A mismatch is corruption between the
// worker's write and the coordinator's stitch — the attempt fails and the
// coordinator retries it.
func (p *Pool) verify(w *poolWorker, task ShardTask, hbPath, outPath string) error {
	b, err := ReadBeat(hbPath)
	if err != nil {
		return fmt.Errorf("sweep: pool: shard %d attempt %d on %s finished without a readable final heartbeat: %w",
			task.Index, task.Attempt, w.Name, err)
	}
	if b.Status != BeatDone {
		return fmt.Errorf("sweep: pool: shard %d attempt %d on %s exited cleanly but its last heartbeat says %q",
			task.Index, task.Attempt, w.Name, b.Status)
	}
	if b.OutputSHA256 == "" {
		return nil
	}
	sum, err := fileSHA256(outPath)
	if err != nil {
		return fmt.Errorf("sweep: pool: verify shard %d output: %w", task.Index, err)
	}
	if sum != b.OutputSHA256 {
		p.mu.Lock()
		p.stats.ChecksumFailures++
		p.mu.Unlock()
		return fmt.Errorf("sweep: pool: shard %d attempt %d on %s output checksum mismatch (got %s, heartbeat says %s)",
			task.Index, task.Attempt, w.Name, sum[:12], b.OutputSHA256[:12])
	}
	return nil
}

// watch polls the attempt's heartbeat file and kills exactly this attempt
// when it goes stale. A missing file is tolerated for 2x StaleAfter from
// the start (worker startup); after the first beat, staleness is the
// file's age.
func (p *Pool) watch(ctx context.Context, w *poolWorker, att *poolAttempt, hbPath string, stop chan struct{}) {
	poll := p.StaleAfter / 4
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	start := time.Now()
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var age time.Duration
		if fi, err := os.Stat(hbPath); err == nil {
			age = time.Since(fi.ModTime())
			if age <= p.StaleAfter {
				continue
			}
		} else {
			// No beat yet: give the worker 2x the stale budget to start up
			// (process spawn, spec load) before declaring it wedged.
			age = time.Since(start)
			if age <= 2*p.StaleAfter {
				continue
			}
		}
		p.mu.Lock()
		p.stats.StaleKills++
		p.mu.Unlock()
		p.Log("pool: shard attempt on worker %s heartbeat stale (%v); killing", w.Name, age.Round(time.Millisecond))
		// The cancel cause carries the diagnosis to Launch's classifier; a
		// stale kill strikes the worker there, so repeated wedges
		// quarantine it.
		att.cancel(&staleError{worker: w.Name, age: age})
		return
	}
}
