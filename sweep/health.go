package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultHeartbeatInterval is the beat period used when a Heartbeat is
// configured without an explicit interval.
const DefaultHeartbeatInterval = 500 * time.Millisecond

// Beat statuses: a live run beats BeatRunning; the final beat of a shard
// that committed its output is BeatDone and carries the row count and
// output checksum.
const (
	BeatRunning = "running"
	BeatDone    = "done"
)

// Beat is one heartbeat record: the attempt metadata a run writes
// atomically (temp+rename, like every other file in this package) to its
// Heartbeat.Path. Liveness is the file's age — a monitor only needs
// os.Stat — while the fields give a post-mortem reader the shard, process
// and progress behind the beat. The final BeatDone beat additionally
// carries the sha256 of the committed output, which the pool cross-checks
// against the bytes on disk before trusting a shard file.
type Beat struct {
	// PID identifies the beating process (0 in WriteBeat = this process).
	PID int `json:"pid"`
	// Shard is the beating run's shard index.
	Shard int `json:"shard"`
	// Seq increments with every beat of one attempt.
	Seq int `json:"seq"`
	// UnixNano is the beat time (0 in WriteBeat = now). Monitors should
	// prefer the file's mtime: it cannot lie about clock skew.
	UnixNano int64 `json:"unix_nano"`
	// Status is BeatRunning or BeatDone.
	Status string `json:"status"`
	// Rows is the emitted row count (BeatDone only).
	Rows int `json:"rows,omitempty"`
	// OutputSHA256 is the hex sha256 of the committed output file
	// (BeatDone with a file output only).
	OutputSHA256 string `json:"output_sha256,omitempty"`
}

// WriteBeat writes one beat atomically, filling PID and UnixNano when
// zero. It is the building block under Run's beater, and what the fault
// hook uses to fake a worker that beat once and then wedged.
func WriteBeat(path string, b Beat) error {
	if b.PID == 0 {
		b.PID = os.Getpid()
	}
	if b.UnixNano == 0 {
		//ivliw:wallclock beat timestamps are liveness metadata read by monitors, never row bytes
		b.UnixNano = time.Now().UnixNano()
	}
	data, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("sweep: heartbeat: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: heartbeat: %w", err)
	}
	return nil
}

// ReadBeat reads and decodes a beat file.
func ReadBeat(path string) (Beat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Beat{}, fmt.Errorf("sweep: heartbeat: %w", err)
	}
	b, err := decodeBeat(data)
	if err != nil {
		return Beat{}, fmt.Errorf("sweep: heartbeat %s: %w", path, err)
	}
	return b, nil
}

// decodeBeat strictly decodes one beat. Beats are a wire format crossed
// between processes: unknown fields or bytes after the object mean a
// foreign or newer writer, and trusting its liveness claims would be a
// lie. A checksum must be a full lowercase hex sha256, as fileSHA256
// renders the committed output it is compared against.
func decodeBeat(data []byte) (Beat, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Beat
	if err := dec.Decode(&b); err != nil {
		return Beat{}, err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return Beat{}, fmt.Errorf("trailing data after the beat object")
	}
	if s := b.OutputSHA256; s != "" {
		if sum, err := hex.DecodeString(s); err != nil || len(sum) != sha256.Size || hex.EncodeToString(sum) != s {
			return Beat{}, fmt.Errorf("output_sha256 %q is not 64 lowercase hex digits", s)
		}
	}
	return b, nil
}

// beater is Run's heartbeat writer: one synchronous beat at start (so the
// file exists before any expensive work), one per interval from a
// goroutine, and a final BeatDone beat when the shard commits. Beat write
// failures are deliberately swallowed — liveness reporting must never
// fail a healthy run; a monitor that cannot see beats will kill the
// attempt, which retries and surfaces the real problem.
type beater struct {
	path     string
	shard    int
	interval time.Duration

	mu   sync.Mutex // guards seq across the ticker goroutine and finish
	seq  int
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startBeater writes the first beat and starts the ticker.
func startBeater(path string, interval time.Duration, shard int) *beater {
	b := &beater{
		path:     path,
		shard:    shard,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	b.write(BeatRunning, 0, "")
	go b.loop()
	return b
}

func (b *beater) loop() {
	defer close(b.done)
	t := time.NewTicker(b.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			b.write(BeatRunning, 0, "")
		case <-b.stop:
			return
		}
	}
}

func (b *beater) write(status string, rows int, sum string) {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	_ = WriteBeat(b.path, Beat{Shard: b.shard, Seq: seq, Status: status, Rows: rows, OutputSHA256: sum})
}

// halt stops the ticker without a final beat — the failure/cancel path,
// where the last beat must keep saying "running" so a monitor reads the
// truth: this attempt never finished.
func (b *beater) halt() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

// finish stops the ticker and writes the final BeatDone beat.
func (b *beater) finish(rows int, sum string) {
	b.halt()
	b.write(BeatDone, rows, sum)
}

// fileSHA256 hashes a file's content, hex-encoded — the verification side
// of the BeatDone checksum.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// splitmix64 is the tiny deterministic mixer behind every jitter in this
// package (same generator family as the synthetic workload seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay is the shared capped-exponential-backoff-with-jitter
// schedule: step n (0-based) waits min(base<<n, 32×base), jittered
// deterministically by seed into [d/2, d] so retries spread out but
// identical (seed, n) inputs always wait identically — reproducible runs
// stay reproducible. A base <= 0 disables backoff entirely.
func backoffDelay(base time.Duration, n int, seed uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < min(n, 5); i++ { // 2^5: the 32× cap
		d *= 2
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(splitmix64(seed)%uint64(half+1))
}
