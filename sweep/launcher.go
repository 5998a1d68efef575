package sweep

import "context"

// ShardTask describes one attempt at one shard of a coordinated sweep. The
// coordinator hands tasks to a Launcher; every field is derived from the
// coordinated spec, so launchers only decide *where* the work runs, never
// *what* it is.
type ShardTask struct {
	// Spec is the fully resolved shard spec: Shard names this task's slice
	// of the row grid and Output.Path the file the attempt must produce
	// (all-or-nothing — Run's temp+rename write guarantees that for
	// in-process attempts and for worker subprocesses alike).
	Spec Spec
	// SpecPath is the shared base spec file in the coordinator's directory
	// (Shard and Output cleared), which the Pool passes to the `ivliw-bench
	// -spec` worker subprocesses it starts instead of calling Run directly.
	SpecPath string
	// Index is the task index in [0, CoordinatorStats.Tasks).
	Index int
	// Attempt is the 1-based attempt number at this task: 1 for the first
	// try, k+1 for the k-th retry after a failure.
	Attempt int
	// Assigned, when non-nil, is called by placement-aware launchers (the
	// Pool) with the name of the worker this attempt was scheduled onto,
	// before the attempt starts — the coordinator records it in the
	// manifest for post-mortem. Launchers without placement (InProcess)
	// never call it.
	Assigned func(worker string)
}

// Launcher runs one shard attempt to completion. Launch must honor ctx —
// the coordinator cancels it to tear the run down on SIGINT — and must
// return non-nil if the shard's output file was not produced. The
// coordinator keeps at most one attempt per task in flight and waits for
// it, so a launcher whose attempts can hang must detect that itself, as
// Pool does with heartbeats. Implementations may run the shard anywhere
// (goroutine, subprocess, remote host) as long as the output file appears
// at task.Spec.Output.Path. InProcess runs attempts as goroutines; Pool is
// the one launcher that starts worker subprocesses, and a Worker whose
// Command is prefixed with `ssh host` runs them remotely over a shared
// filesystem.
type Launcher interface {
	Launch(ctx context.Context, task ShardTask) error
}

// LaunchFunc adapts a plain function into a Launcher.
type LaunchFunc func(ctx context.Context, task ShardTask) error

// Launch implements Launcher.
func (f LaunchFunc) Launch(ctx context.Context, task ShardTask) error { return f(ctx, task) }

// InProcess runs shard attempts as goroutines inside the coordinator's
// process — the zero-setup launcher for single-machine coordination and
// tests. It has no hang detection: an attempt that never returns stalls
// its task until ctx is canceled. Shards share the process's artifact store configuration through
// the spec (a Spec.Store.Dir makes them share compilations on disk; the
// in-memory tiers are per-shard).
type InProcess struct{}

// Launch implements Launcher by running the shard spec directly.
func (InProcess) Launch(ctx context.Context, task ShardTask) error {
	_, err := Run(ctx, task.Spec, nil)
	return err
}
