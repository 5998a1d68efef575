package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzOpenManifest opens fuzzed manifest bytes over a work directory in
// which shards 0 and 2 of 3 have committed their canonical files and a
// stray JSONL file sits beside them. No input panics openManifest; every
// shard it resumes as done names its canonical file, which exists (the
// only file stitch reads); and reopening is a fixpoint: the same saved
// bytes and the same done set.
func FuzzOpenManifest(f *testing.F) {
	const hash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	cuts := []rowRange{{0, 2}, {2, 4}, {4, 6}}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, name := range []string{shardFileName(0), shardFileName(2), "stray.jsonl"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]byte, []int) {
			m, n, err := openManifest(dir, hash, cuts)
			if err != nil {
				t.Fatal(err)
			}
			var done []int
			for i, s := range m.Shards {
				if s.Status != shardDone {
					continue
				}
				done = append(done, i)
				if s.Output != shardFileName(i) {
					t.Fatalf("shard %d resumed as done with output %q, want %q", i, s.Output, shardFileName(i))
				}
				if _, err := os.Stat(filepath.Join(dir, s.Output)); err != nil {
					t.Fatalf("shard %d resumed as done without its file: %v", i, err)
				}
			}
			if n != len(done) {
				t.Fatalf("openManifest reported %d done shards, the manifest holds %d", n, len(done))
			}
			saved, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			return saved, done
		}
		saved, done := open()
		again, doneAgain := open()
		if !bytes.Equal(saved, again) || !slices.Equal(done, doneAgain) {
			t.Fatalf("reopening changed the manifest: done %v -> %v\n%s\n->\n%s", done, doneAgain, saved, again)
		}
	})
}
