package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// perProcessKnobs sets each per-process field of a spec: knobs that change
// where and how fast rows are produced, never what they contain, and that
// Spec.Hash therefore clears before fingerprinting.
var perProcessKnobs = map[string]func(*Spec){
	"workers":   func(s *Spec) { s.Workers = 7 },
	"sim_batch": func(s *Spec) { s.SimBatch = 4 },
	"shard":     func(s *Spec) { s.Shard = Shard{Index: 1, Count: 3} },
	"store":     func(s *Spec) { s.Store = Store{Memory: 5, Dir: "/tmp/x"} },
	"output":    func(s *Spec) { s.Output = Output{Path: "rows.jsonl"} },
	"heartbeat": func(s *Spec) { s.Heartbeat = Heartbeat{Path: "hb", IntervalMS: 50} },
}

// perProcessZero reports whether every per-process field of s is zero.
func perProcessZero(s Spec) bool {
	return s.Workers == 0 && s.SimBatch == 0 && s.Shard == (Shard{}) &&
		s.Store == (Store{}) && s.Output == (Output{}) && s.Heartbeat == (Heartbeat{})
}

// TestSpecHashVector pins Spec.Hash to a committed vector. The hash is a
// durable identity: it names job directories on disk, keys the serving
// layer's dedup, and guards coordinator manifest resume — a hash change
// orphans every existing store. If this test fails, the fingerprint
// function changed; that must be a deliberate, called-out migration, never
// a side effect. (The determinism analyzer proves Hash's call graph is
// wall-clock- and rand-free; this vector proves the bytes themselves.)
func TestSpecHashVector(t *testing.T) {
	spec := Spec{
		Grid: Grid{Clusters: []int{2, 4}},
		Workloads: Workloads{Synth: []SynthSpec{{
			Name: "h", Seed: 7, Kernels: 1, Iters: 64, FootprintBytes: 2048,
		}}},
		Compile: Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	const want = "72cf4f300fa18545d06d729c7fd0db1a5ab630b11d1cdb1925d90d70c52e6657"
	for i := 0; i < 3; i++ {
		got, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Spec.Hash = %s, want committed vector %s (run %d); the spec fingerprint changed — existing job stores and manifests will not resume", got, want, i)
		}
	}
}

// TestSpecHashSemantics pins the dedup contract of Spec.Hash: per-process
// knobs never perturb the fingerprint, semantic inputs always do.
func TestSpecHashSemantics(t *testing.T) {
	base := Spec{
		Grid: Grid{Clusters: []int{2, 4}},
		Workloads: Workloads{Synth: []SynthSpec{{
			Name: "h", Seed: 7, Kernels: 1, Iters: 64, FootprintBytes: 2048,
		}}},
		Compile: Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 64 {
		t.Fatalf("hash %q is not a hex sha256", want)
	}

	// Per-process knobs: same rows, same hash.
	for name, mut := range perProcessKnobs {
		s := base
		mut(&s)
		got, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s changed the hash: a per-process knob leaked into the fingerprint", name)
		}
	}

	// Semantic inputs: different rows, different hash.
	semantic := map[string]func(*Spec){
		"grid":       func(s *Spec) { s.Grid.Clusters = []int{2, 4, 8} },
		"workload":   func(s *Spec) { s.Workloads.Synth[0].Seed = 8 },
		"compile":    func(s *Spec) { s.Compile.Unroll = "selective" },
		"synthcount": func(s *Spec) { s.Workloads.SynthCount = 2 },
	}
	for name, mut := range semantic {
		s := base
		s.Workloads.Synth = append([]SynthSpec(nil), base.Workloads.Synth...)
		mut(&s)
		got, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("%s did not change the hash: a semantic input is missing from the fingerprint", name)
		}
	}

	// The public wrapper and the private fingerprint agree (the manifest
	// and the serving layer must key identically).
	priv, err := specHash(base)
	if err != nil {
		t.Fatal(err)
	}
	if priv != want {
		t.Fatalf("Spec.Hash %q != specHash %q", want, priv)
	}
}

// TestCanonicalBodyDigestIsJobID pins the identity the serving layer's
// duplicate path stands on: for a spec whose per-process fields are all
// zero, the sha256 of its canonical encoding is its hash, so a submitted
// body whose digest is a known job ID is that job's canonical encoding.
// Setting any per-process field changes the encoding but not the hash.
func TestCanonicalBodyDigestIsJobID(t *testing.T) {
	specs := map[string]Spec{
		"synth": {
			Grid: Grid{Clusters: []int{2, 4}},
			Workloads: Workloads{Synth: []SynthSpec{{
				Name: "h", Seed: 7, Kernels: 1, Iters: 64, FootprintBytes: 2048,
			}}},
			Compile: Compile{Heuristic: "IPBC", Unroll: "none"},
		},
		"bench": {
			Grid:      Grid{Clusters: []int{2, 4, 8}, ABEntries: []int{0, 16}},
			Workloads: Workloads{Bench: []string{"gsmdec", "jpegenc", "mpeg2dec"}},
		},
		"full": func() Spec {
			s := fullSpec()
			s.Workers, s.SimBatch, s.Shard, s.Store, s.Output, s.Heartbeat = 0, 0, Shard{}, Store{}, Output{}, Heartbeat{}
			return s
		}(),
	}
	digest := func(s Spec) string {
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for name, base := range specs {
		if !perProcessZero(base) {
			t.Fatalf("%s: the base spec sets a per-process field", name)
		}
		hash, err := base.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(base); got != hash {
			t.Errorf("%s: sha256 of the canonical encoding = %s, want the hash %s", name, got, hash)
		}
		for knob, mut := range perProcessKnobs {
			s := base
			mut(&s)
			if got := digest(s); got == hash {
				t.Errorf("%s with %s set: the encoding's digest still equals the hash", name, knob)
			}
		}
	}
}
