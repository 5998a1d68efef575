package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"ivliw/sweep/fault"
)

// ShardTask describes one attempt at one shard of a coordinated sweep. The
// coordinator hands tasks to a Launcher; every field is derived from the
// coordinated spec, so launchers only decide *where* the work runs, never
// *what* it is.
type ShardTask struct {
	// Spec is the fully resolved shard spec: Shard names this task's slice
	// of the row grid and Output.Path the file the attempt must produce
	// (all-or-nothing — Run's temp+rename write guarantees that for the
	// in-process and subprocess launchers).
	Spec Spec
	// SpecPath is the shared base spec file in the coordinator's directory
	// (Shard and Output cleared), for launchers that start `ivliw-bench
	// -spec` processes instead of calling Run directly.
	SpecPath string
	// Index is the task index in [0, CoordinatorStats.Tasks).
	Index int
	// Attempt is the 1-based attempt number at this task: 1 for the first
	// try, k+1 for the k-th retry after a failure.
	Attempt int
	// Assigned, when non-nil, is called by placement-aware launchers (the
	// Pool) with the name of the worker this attempt was scheduled onto,
	// before the attempt starts — the coordinator records it in the
	// manifest for post-mortem. Launchers without placement (InProcess,
	// a bare Exec) never call it.
	Assigned func(worker string)
}

// Launcher runs one shard attempt to completion. Launch must honor ctx —
// the coordinator cancels it to tear the run down on SIGINT — and must
// return non-nil if the shard's output file was not produced. The
// coordinator keeps at most one attempt per task in flight and waits for
// it, so a launcher whose attempts can hang must detect that itself, as
// Pool does with heartbeats. Implementations may run the shard anywhere
// (goroutine, subprocess, remote host) as long as the output file appears
// at task.Spec.Output.Path; a remote launcher over ssh is one Launcher
// implementation away (see Exec, whose Command prefix already composes
// with `ssh host` given a shared filesystem), and Pool adds health
// checking across a registry of them.
type Launcher interface {
	Launch(ctx context.Context, task ShardTask) error
}

// LaunchFunc adapts a plain function into a Launcher.
type LaunchFunc func(ctx context.Context, task ShardTask) error

// Launch implements Launcher.
func (f LaunchFunc) Launch(ctx context.Context, task ShardTask) error { return f(ctx, task) }

// InProcess runs shard attempts as goroutines inside the coordinator's
// process — the zero-setup launcher for single-machine coordination and
// tests. Shards share the process's artifact store configuration through
// the spec (a Spec.Store.Dir makes them share compilations on disk; the
// in-memory tiers are per-shard).
type InProcess struct{}

// Launch implements Launcher by running the shard spec directly.
func (InProcess) Launch(ctx context.Context, task ShardTask) error {
	_, err := Run(ctx, task.Spec, nil)
	return err
}

// Exec runs each shard attempt as a subprocess: Command's argv is extended
// with `-spec <SpecPath> -shard <i>/<n> -out <Output.Path>` (plus
// `-claim <lo>:<hi>` when the task pins an explicit row range, as every
// coordinator task does), the exact per-worker invocation documented for
// multi-process sweeps, so `ivliw-bench` (or any flag-compatible binary) is
// a worker with no extra protocol. On cancellation the subprocess gets
// SIGTERM and execGrace to run its SIGINT-clean teardown (discard staged
// temps, exit 130) before SIGKILL.
// Prefixing Command with `ssh host` turns it into a remote launcher over a
// shared filesystem — the interface seam the coordinator leaves open.
type Exec struct {
	// Command is the argv prefix, e.g. {"/usr/bin/ivliw-bench"} or
	// {"ssh", "worker-3", "ivliw-bench"}. It must not be empty.
	Command []string
	// Stderr receives the subprocess's stderr (nil discards it). Stdout is
	// discarded: shard rows travel through the output file, never the pipe.
	// Independently of Stderr, the last stderr bytes are kept in a bounded
	// ring and surfaced in the returned error of a failed attempt.
	Stderr io.Writer
	// Env appends to the coordinator's environment for each subprocess.
	Env []string
	// Extra appends additional argv entries after the standard flags —
	// the seam the pool uses for `-heartbeat`, `-heartbeat-interval` and
	// `-workers`.
	Extra []string
}

// execGrace is how long a canceled subprocess gets between SIGTERM and
// SIGKILL.
const execGrace = 3 * time.Second

// execStderrTail bounds the stderr ring kept for failed-attempt errors.
const execStderrTail = 4096

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

// Launch implements Launcher by running the worker subprocess to completion.
func (e Exec) Launch(ctx context.Context, task ShardTask) error {
	if len(e.Command) == 0 {
		return errors.New("sweep: exec launcher: empty command")
	}
	args := append(append([]string(nil), e.Command[1:]...),
		"-spec", task.SpecPath,
		"-shard", fmt.Sprintf("%d/%d", task.Spec.Shard.Index, task.Spec.Shard.Count),
		"-out", task.Spec.Output.Path,
	)
	if task.Spec.Shard.Hi > task.Spec.Shard.Lo {
		// An explicit row range rides the -claim protocol; -shard stays
		// for identity (fault plans key on its index).
		args = append(args, "-claim", fmt.Sprintf("%d:%d", task.Spec.Shard.Lo, task.Spec.Shard.Hi))
	}
	args = append(args, e.Extra...)
	cmd := exec.CommandContext(ctx, e.Command[0], args...)
	tail := &tailBuffer{max: execStderrTail}
	if e.Stderr != nil {
		cmd.Stderr = io.MultiWriter(e.Stderr, tail)
	} else {
		cmd.Stderr = tail
	}
	// The attempt number rides the environment so a scripted fault plan
	// (sweep/fault) can target "shard i, attempt j" deterministically;
	// fault.Environ owns the protocol's env contract for every launcher.
	cmd.Env = fault.Environ(e.Env, task.Attempt)
	// Cancellation means teardown, not murder: SIGTERM first, so the worker
	// runs its signal-clean exit (discarding staged temps), SIGKILL only
	// after the grace. CommandContext's default is an immediate SIGKILL,
	// which could land mid-rename.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = execGrace
	if err := cmd.Run(); err != nil {
		// A kill triggered by cancellation is the context's error, not the
		// subprocess's: callers must be able to tell teardown from failure.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if t := tail.tail(); t != "" {
			return fmt.Errorf("sweep: shard %d attempt %d (%s): %w (stderr: %s)",
				task.Index, task.Attempt, e.Command[0], err, t)
		}
		return fmt.Errorf("sweep: shard %d attempt %d (%s): %w", task.Index, task.Attempt, e.Command[0], err)
	}
	return nil
}
