package pipeline

import (
	"path/filepath"
	"testing"
)

// plainStore is a Store outside this package's keyed lookup chain: it only
// offers Get.
type plainStore struct{ inner Store }

func (p plainStore) Get(s CompileSpec) (*Artifact, error) { return p.inner.Get(s) }

// TestLookupChainsKeyArtifacts: whichever tiers a cold lookup passes
// through, the key handed down the chain is the spec's own, so the
// artifact carries Key() and a disk tier files it under Key().
func TestLookupChainsKeyArtifacts(t *testing.T) {
	spec := cacheSpec(t, 4)
	want := spec.Key()
	chains := map[string]func(t *testing.T, dir string) Store{
		"nil cache":          func(*testing.T, string) Store { return (*Cache)(nil) },
		"disabled cache":     func(*testing.T, string) Store { return NewCache(0) },
		"memory":             func(*testing.T, string) Store { return NewCache(4) },
		"disk":               func(t *testing.T, dir string) Store { return mustDiskStore(t, dir) },
		"memory over disk":   func(t *testing.T, dir string) Store { return NewCacheOver(4, mustDiskStore(t, dir)) },
		"pass-through disk":  func(t *testing.T, dir string) Store { return NewCacheOver(0, mustDiskStore(t, dir)) },
		"memory over memory": func(*testing.T, string) Store { return NewCacheOver(4, NewCache(4)) },
		"memory over plain":  func(t *testing.T, dir string) Store { return NewCacheOver(4, plainStore{mustDiskStore(t, dir)}) },
	}
	for name, chain := range chains {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			art, err := chain(t, dir).Get(spec)
			if err != nil {
				t.Fatal(err)
			}
			if art.Key != want {
				t.Errorf("artifact key %s, want %s", art.Key, want)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.art"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if filepath.Base(f) != want+".art" {
					t.Errorf("disk tier wrote %s, want %s.art", filepath.Base(f), want)
				}
			}
		})
	}
}
