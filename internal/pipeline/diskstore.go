package pipeline

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// diskMagic heads every artifact file, versioning the on-disk format:
// magic, then the sha256 of the payload, then the gob-encoded Artifact.
// Any file that does not parse under this layout — wrong magic, short
// header, checksum mismatch, gob garbage — is a miss, never an error.
const diskMagic = "ivliw-artifact-v1\n"

// DiskStore is a persistent, content-addressed artifact store: one file per
// compile key under a directory, written atomically (temp file + rename) and
// verified by checksum on every read. It is what makes repeated CLI sweeps
// and cross-process sharded runs start warm: the key is CompileSpec.Key()
// (sha256 over every compile-relevant input), so any process sweeping any
// grid can share one directory.
//
// Corruption safety: a truncated, bit-flipped or otherwise garbage file is
// treated as a cache miss — the artifact recompiles and the file is
// atomically rewritten — so a damaged store can degrade throughput but can
// never poison a run or crash it. Compile errors are never persisted.
//
// DiskStore is safe for concurrent use within and across processes
// (concurrent writers race benignly: renames are atomic and both write the
// same content). It does not single-flight concurrent compilations of the
// same key; compose it under an in-memory cache (NewCacheOver) when many
// cells share keys within one process.
type DiskStore struct {
	dir string

	hits, misses, writes, writeErrs atomic.Int64
}

// DiskStats is a point-in-time snapshot of a DiskStore's counters. Misses
// count compilations (absent or unreadable files); Writes successful
// persists; WriteErrors persists that failed (the artifact is still
// returned — a full disk degrades the store to compile-through).
type DiskStats struct {
	Hits, Misses, Writes, WriteErrors int64
}

// NewDiskStore opens (creating if needed) a disk store rooted at dir and
// probes it for writability up front, so an unusable path fails fast at
// setup instead of midway through a sweep.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("pipeline: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: artifact dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("pipeline: artifact dir %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// Stats returns a snapshot of the counters.
func (d *DiskStore) Stats() DiskStats {
	return DiskStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Writes:      d.writes.Load(),
		WriteErrors: d.writeErrs.Load(),
	}
}

// path maps a compile key to its artifact file. Keys are hex sha256, so
// they are filesystem-safe as-is.
func (d *DiskStore) path(key string) string {
	return filepath.Join(d.dir, key+".art")
}

// Get returns the stored artifact for the spec's key, or compiles it and
// persists the result. Unreadable and corrupt files are misses.
func (d *DiskStore) Get(s CompileSpec) (*Artifact, error) {
	return d.get(s, s.Key())
}

// get is Get with the spec's key already computed.
func (d *DiskStore) get(s CompileSpec, key string) (*Artifact, error) {
	if art := d.load(key); art != nil {
		d.hits.Add(1)
		return art, nil
	}
	d.misses.Add(1)
	art, err := compileKeyed(s, key)
	if err != nil {
		return nil, err
	}
	if err := d.save(key, art); err != nil {
		// A failed persist (disk full, permissions flipped mid-run) must
		// not fail the cell: the artifact is valid, only the warm start is
		// lost. Counted so callers can surface it.
		d.writeErrs.Add(1)
	} else {
		d.writes.Add(1)
	}
	return art, nil
}

// load reads and verifies one artifact file; any failure is a miss (nil).
func (d *DiskStore) load(key string) *Artifact {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil
	}
	header := len(diskMagic) + sha256.Size
	if len(data) < header || string(data[:len(diskMagic)]) != diskMagic {
		return nil
	}
	payload := data[header:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(diskMagic):header]) {
		return nil // bit flip or truncation inside the payload
	}
	art, err := DecodeArtifact(bytes.NewReader(payload))
	if err != nil || art.Key != key {
		return nil
	}
	return art
}

// save atomically writes the artifact: temp file in the same directory,
// then rename over the final path, so readers only ever see complete files
// and a crashed writer leaves at most a stray temp file.
func (d *DiskStore) save(key string, art *Artifact) error {
	var payload bytes.Buffer
	if err := art.Encode(&payload); err != nil {
		return err
	}
	sum := sha256.Sum256(payload.Bytes())
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.WriteString(diskMagic)
	if err == nil {
		_, err = tmp.Write(sum[:])
	}
	if err == nil {
		_, err = tmp.Write(payload.Bytes())
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp files are 0600; the store is shared across processes
		// and possibly users, so deliberately publish artifacts 0644
		// (Chmod is not umask-masked) — a shared store whose files only
		// their creator can read would silently recompile per user.
		err = os.Chmod(name, 0o644)
	}
	if err == nil {
		err = os.Rename(name, d.path(key))
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}
