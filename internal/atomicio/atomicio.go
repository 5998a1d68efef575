// Package atomicio is the module's one implementation of the temp+rename
// durability discipline: every committed file — sweep outputs, coordinator
// manifests, heartbeats, job records, calibrations, benchmark reports —
// accumulates in a staging file beside its destination and appears only via
// an atomic rename, so readers (including a process restarted after a kill)
// see either the previous content or the new one, never a prefix.
//
// The staging file is created at mode 0666 so the process umask applies —
// the published file ends up with exactly the permissions a plain
// os.Create(path) would have given it (os.CreateTemp's fixed 0600/0644
// choices would either lock collaborators out or ignore a restrictive
// umask). Staging names follow the `<path>.tmp-*` convention the rest of
// the module relies on for stale-temp cleanup globs, and derive their
// uniqueness from the process id plus a process-local counter rather than
// the clock or a global RNG: writers in distinct processes staging the
// same destination concurrently still never collide, and the writer
// path stays free of nondeterminism sources (ivliw-vet's determinism
// analyzer walks it from sweep.Run).
package atomicio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
)

// seq distinguishes the staging files this process creates; combined with
// the pid it makes names unique across concurrent writers and across
// processes without consulting a clock or RNG.
var seq atomic.Uint64

// File is an all-or-nothing write in flight: bytes accumulate in the
// staging file (File is an io.Writer) and land at the destination only on
// Commit; Abort — or a crash — leaves the destination untouched.
type File struct {
	f    *os.File
	path string
}

// Create opens a unique `<path>.tmp-<pid>-<n>` staging file in path's
// directory (same directory, so the commit rename never crosses a
// filesystem). A name collision — a stale temp left by a crashed writer
// after pid reuse — just draws the next name.
func Create(path string) (*File, error) {
	pid := os.Getpid()
	for range 10000 {
		name := fmt.Sprintf("%s.tmp-%d-%d", path, pid, seq.Add(1))
		//ivliw:nonatomic this is the staging file itself; Commit publishes it by rename
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return &File{f: f, path: path}, nil
	}
	return nil, fmt.Errorf("atomicio: could not create a staging file for %s", path)
}

// Write appends to the staged bytes.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Name returns the staging file's name (for logs and tests); the
// destination path is what Commit publishes.
func (f *File) Name() string { return f.f.Name() }

// Commit closes the staging file and publishes it at the destination path
// atomically; on any failure the staging file is removed and the
// destination keeps its previous content.
func (f *File) Commit() error {
	err := f.f.Close()
	if err == nil {
		err = os.Rename(f.f.Name(), f.path)
	}
	if err != nil {
		os.Remove(f.f.Name())
		return err
	}
	return nil
}

// Abort discards the staged bytes, leaving the destination untouched.
// Safe to call after a failed Commit (both paths remove the staging file).
func (f *File) Abort() {
	f.f.Close()
	os.Remove(f.f.Name())
}

// WriteFile writes data to path through the staging discipline: the
// destination either keeps its old content or holds all of data, never a
// prefix.
func WriteFile(path string, data []byte) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}
