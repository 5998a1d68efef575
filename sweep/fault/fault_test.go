package fault

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseAndValidate(t *testing.T) {
	p, err := Parse([]byte(`{"events":[
		{"op":"crash","shard":1,"attempt":1},
		{"op":"hang","shard":2},
		{"op":"dead-worker","worker":"w1","launch":2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(p.Events))
	}

	bad := map[string]string{
		`{"events":[{"op":"melt"}]}`:                               "unknown op",
		`{"events":[{"op":"dead-worker"}]}`:                        "needs a worker name",
		`{"events":[{"op":"crash","worker":"w0"}]}`:                "only apply to",
		`{"events":[{"op":"dead-worker","worker":"w","shard":1}]}`: "do not apply",
		`{"events":[{"op":"crash","shard":-1}]}`:                   "must be >= 0",
		`{"events":[],"extra":1}`:                                  "unknown field",
		`{"events":[]} trailing`:                                   "trailing data",
	}
	for in, want := range bad {
		if _, err := Parse([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) err = %v, want mention of %q", in, err, want)
		}
	}
}

func TestForAttempt(t *testing.T) {
	p := &Plan{Events: []Event{
		{Op: Crash, Shard: 1, Attempt: 1},
		{Op: Hang, Shard: 2}, // attempt 0: every attempt
		{Op: DeadWorker, Worker: "w0"},
	}}
	if ev := p.ForAttempt(1, 1); ev == nil || ev.Op != Crash {
		t.Errorf("shard 1 attempt 1 = %+v, want the crash", ev)
	}
	if ev := p.ForAttempt(1, 2); ev != nil {
		t.Errorf("shard 1 attempt 2 = %+v, want no match (attempt pinned to 1)", ev)
	}
	if ev := p.ForAttempt(2, 7); ev == nil || ev.Op != Hang {
		t.Errorf("shard 2 attempt 7 = %+v, want the wildcard hang", ev)
	}
	if ev := p.ForAttempt(0, 1); ev != nil {
		t.Errorf("shard 0 = %+v, want no match (dead-worker is not shard-scoped)", ev)
	}
	var nilPlan *Plan
	if ev := nilPlan.ForAttempt(0, 1); ev != nil {
		t.Errorf("nil plan matched %+v", ev)
	}
}

func TestForLaunch(t *testing.T) {
	p := &Plan{Events: []Event{
		{Op: DeadWorker, Worker: "w1"}, // launch 0 = first launch
		{Op: DeadWorker, Worker: "w2", Launch: 3},
		{Op: Crash, Shard: 0},
	}}
	if ev := p.ForLaunch("w1", 1); ev == nil {
		t.Error("w1 launch 1 should match the default-launch event")
	}
	if ev := p.ForLaunch("w1", 2); ev != nil {
		t.Errorf("w1 launch 2 = %+v, want no match", ev)
	}
	if ev := p.ForLaunch("w2", 3); ev == nil {
		t.Error("w2 launch 3 should match")
	}
	if ev := p.ForLaunch("w3", 1); ev != nil {
		t.Errorf("unknown worker matched %+v", ev)
	}
	var nilPlan *Plan
	if ev := nilPlan.ForLaunch("w1", 1); ev != nil {
		t.Errorf("nil plan matched %+v", ev)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvPlan, "")
	if p, err := FromEnv(); p != nil || err != nil {
		t.Errorf("unarmed FromEnv = %v, %v; want nil, nil", p, err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"events":[{"op":"crash","shard":1,"attempt":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(EnvPlan, path)
	p, err := FromEnv()
	if err != nil || p == nil || len(p.Events) != 1 {
		t.Fatalf("armed FromEnv = %v, %v; want the 1-event plan", p, err)
	}
	t.Setenv(EnvPlan, filepath.Join(t.TempDir(), "missing.json"))
	if _, err := FromEnv(); err == nil {
		t.Error("a missing armed plan file must error, not silently drill nothing")
	}
}

// TestEnviron: the single env-assembly helper behind every subprocess
// launcher must forward the parent environment, append launcher extras in
// order, and export the attempt number last.
func TestEnviron(t *testing.T) {
	t.Setenv("IVLIW_TEST_MARKER", "parent")
	env := Environ([]string{"EXTRA_A=1", "EXTRA_B=2"}, 3)
	n := len(env)
	if n < 4 || env[n-1] != AttemptEnv(3) || env[n-2] != "EXTRA_B=2" || env[n-3] != "EXTRA_A=1" {
		t.Fatalf("Environ tail = %v, want extras then %q", env[max(0, n-3):], AttemptEnv(3))
	}
	found := false
	for _, e := range env {
		if e == "IVLIW_TEST_MARKER=parent" {
			found = true
		}
	}
	if !found {
		t.Error("Environ dropped the parent environment")
	}
	if AttemptEnv(7) != EnvAttempt+"=7" {
		t.Errorf("AttemptEnv(7) = %q", AttemptEnv(7))
	}
	if WorkerEnv("w2") != EnvWorker+"=w2" {
		t.Errorf("WorkerEnv(w2) = %q", WorkerEnv("w2"))
	}
}

// TestUnarmedZeroOverhead: an unset IVLIW_FAULT_PLAN must cost nothing on
// hot paths — FromEnv never opens or parses anything, and nil-plan matching
// (the per-attempt/per-launch checks) allocates nothing. This is what lets
// production runs keep the fault seams compiled in.
func TestUnarmedZeroOverhead(t *testing.T) {
	t.Setenv(EnvPlan, "")
	if allocs := testing.AllocsPerRun(100, func() {
		p, err := FromEnv()
		if p != nil || err != nil {
			t.Fatal("unarmed FromEnv must be nil, nil")
		}
	}); allocs != 0 {
		t.Errorf("unarmed FromEnv allocates %.0f objects/run, want 0 (is it reading a file?)", allocs)
	}
	var nilPlan *Plan
	if allocs := testing.AllocsPerRun(100, func() {
		if nilPlan.ForAttempt(1, 1) != nil || nilPlan.ForLaunch("w1", 1) != nil {
			t.Fatal("nil plan must match nothing")
		}
	}); allocs != 0 {
		t.Errorf("nil-plan matching allocates %.0f objects/run, want 0", allocs)
	}
}

func TestAttemptFromEnv(t *testing.T) {
	t.Setenv(EnvAttempt, "")
	if n := AttemptFromEnv(); n != 1 {
		t.Errorf("unset attempt = %d, want 1", n)
	}
	t.Setenv(EnvAttempt, "3")
	if n := AttemptFromEnv(); n != 3 {
		t.Errorf("attempt = %d, want 3", n)
	}
	t.Setenv(EnvAttempt, "bogus")
	if n := AttemptFromEnv(); n != 1 {
		t.Errorf("unparsable attempt = %d, want 1", n)
	}
}

// FuzzParse: no input panics the plan parser, and an accepted plan encodes
// to bytes that parse to the same plan and encode identically.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Parse(enc)
		if err != nil {
			t.Fatalf("parsing the encoded plan %s: %v", enc, err)
		}
		enc2, err := json.Marshal(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, p2) || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the plan: %+v (%s) -> %+v (%s)", p, enc, p2, enc2)
		}
	})
}
