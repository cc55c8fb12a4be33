package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
)

// SyncMode selects the durability point of Commit.
type SyncMode string

const (
	// SyncBatch (the default) fsyncs once per Commit — one fsync per
	// group-committed batch turn, the durable configuration.
	SyncBatch SyncMode = "batch"
	// SyncNone flushes to the OS but never fsyncs: records survive a
	// process crash but not a machine crash. The cheap configuration,
	// and the one the overhead benchmark's ratio gate is held to
	// (fsync cost is the disk's, not the code's).
	SyncNone SyncMode = "none"
)

// Options parameterises a service's WAL.
type Options struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// Sync is the Commit durability mode ("" = SyncBatch).
	Sync SyncMode
	// SnapEvery is how many appended records trigger a snapshot
	// rotation (0 disables snapshots; the log then grows unbounded and
	// recovery replays it in full).
	SnapEvery int
	// Journal, when non-nil, receives the log's lifecycle events
	// (rotations, snapshot completions) as flight-recorder entries.
	// All Journal methods are nil-safe, so the zero value costs a nil
	// check per event. resd sets this from its attached recorder.
	Journal *flight.Journal
}

// Normalize fills defaults and validates.
func (o Options) Normalize() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("wal: Options.Dir is required")
	}
	if o.Sync == "" {
		o.Sync = SyncBatch
	}
	if o.Sync != SyncBatch && o.Sync != SyncNone {
		return o, fmt.Errorf("wal: unknown sync mode %q (want %q or %q)", o.Sync, SyncBatch, SyncNone)
	}
	if o.SnapEvery < 0 {
		return o, fmt.Errorf("wal: SnapEvery=%d, need >= 0", o.SnapEvery)
	}
	return o, nil
}

func logName(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.%d.wal", shard, gen))
}

func snapName(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.%d.snap", shard, gen))
}

// Log is one shard's append side of the WAL. Append, Commit, Rotate
// and Close belong to a single writer (the shard's combiner);
// WriteSnapshot may run on another goroutine (the snapshot writer),
// and the Stats/telemetry accessors are safe from anywhere.
type Log struct {
	dir   string
	shard int
	sync  bool

	f     *os.File
	w     *bufio.Writer
	buf   []byte // frame scratch, reused across Appends
	dirty bool   // records appended since the last Commit
	since int    // records appended since the last snapshot rotation

	gen     atomic.Uint64
	bytes   atomic.Uint64
	records atomic.Uint64
	fsyncs  atomic.Uint64
	snaps   atomic.Uint64
	// lastSnap is when the newest snapshot became durable (Open time
	// until then), unix nanoseconds: the snapshot-age metric's anchor.
	lastSnap atomic.Int64
	fsyncNs  obs.Histogram

	// journal receives lifecycle events (nil-safe; see Options.Journal).
	journal *flight.Journal
}

// Open creates the next log generation for shard in o.Dir (one past
// the newest existing generation, so prior state stays replayable) and
// returns the append handle. The caller recovers prior generations
// with Recover before Open; Open itself never reads them.
func Open(shard int, o Options) (*Log, error) {
	o, err := o.Normalize()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	gens, err := listGens(o.Dir, shard)
	if err != nil {
		return nil, err
	}
	var gen uint64
	if n := len(gens); n > 0 {
		gen = gens[n-1].gen + 1
	}
	f, err := os.OpenFile(logName(o.Dir, shard, gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(o.Dir); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		dir:     o.Dir,
		shard:   shard,
		sync:    o.Sync == SyncBatch,
		f:       f,
		w:       bufio.NewWriterSize(f, 64<<10),
		journal: o.Journal,
	}
	l.gen.Store(gen)
	l.lastSnap.Store(time.Now().UnixNano())
	return l, nil
}

// Append buffers one record. It becomes durable at the next Commit.
func (l *Log) Append(r Record) error {
	l.buf = AppendRecord(l.buf[:0], r)
	if _, err := l.w.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.bytes.Add(uint64(len(l.buf)))
	l.records.Add(1)
	l.since++
	l.dirty = true
	return nil
}

// Commit makes every appended record durable (flush, then fsync under
// SyncBatch): the group-commit point, called once per batch turn. A
// Commit with nothing appended is free.
func (l *Log) Commit() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if l.sync {
		t := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.fsyncNs.Observe(time.Since(t).Nanoseconds())
		l.fsyncs.Add(1)
	}
	l.dirty = false
	return nil
}

// SinceSnapshot reports how many records have been appended since the
// last snapshot rotation — the loop's snapshot trigger.
func (l *Log) SinceSnapshot() int { return l.since }

// Rotate commits the current generation and switches appends to a new
// one, returning the new generation number for the snapshot that
// should describe its starting state. Called by the log's writer; the
// snapshot itself is then written off-loop with WriteSnapshot.
func (l *Log) Rotate() (uint64, error) {
	if err := l.Commit(); err != nil {
		return 0, err
	}
	gen := l.gen.Load() + 1
	f, err := os.OpenFile(logName(l.dir, l.shard, gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return 0, err
	}
	l.f.Close()
	l.f = f
	l.w.Reset(f)
	l.gen.Store(gen)
	l.since = 0
	l.journal.Record(flight.Info, "wal", l.shard, "log rotated",
		flight.KV{K: "gen", V: fmt.Sprint(gen)})
	return gen, nil
}

// WriteSnapshot durably writes s (for generation s.Gen) and then
// deletes every older generation's files — the log truncation. Safe to
// call off the writer goroutine: it only touches the snapshot file and
// already-rotated-away generations.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	if s.Shard != l.shard {
		return fmt.Errorf("wal: snapshot for shard %d written to shard %d's log", s.Shard, l.shard)
	}
	tmp, err := os.CreateTemp(l.dir, fmt.Sprintf(".shard-%d.snap-*", l.shard))
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	enc := encodeSnapshot(s)
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapName(l.dir, l.shard, s.Gen)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The snapshot is durable: generations before it are dead weight.
	gens, err := listGens(l.dir, l.shard)
	if err != nil {
		return err
	}
	for _, g := range gens {
		if g.gen >= s.Gen {
			continue
		}
		if g.hasLog {
			os.Remove(logName(l.dir, l.shard, g.gen))
		}
		if g.hasSnap {
			os.Remove(snapName(l.dir, l.shard, g.gen))
		}
	}
	l.snaps.Add(1)
	l.lastSnap.Store(time.Now().UnixNano())
	l.journal.Record(flight.Info, "wal", l.shard, "snapshot written",
		flight.KV{K: "gen", V: fmt.Sprint(s.Gen)},
		flight.KV{K: "live", V: fmt.Sprint(len(s.Live))})
	return nil
}

// Close commits and closes the current generation.
func (l *Log) Close() error {
	err := l.Commit()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is the log's published telemetry.
type Stats struct {
	// Gen is the generation currently being appended to.
	Gen uint64
	// Bytes and Records count appends since Open.
	Bytes, Records uint64
	// Fsyncs counts Commit-driven fsyncs (0 under SyncNone).
	Fsyncs uint64
	// Snapshots counts completed snapshot writes.
	Snapshots uint64
	// LastSnapshot is when the newest snapshot became durable (Open
	// time if none yet), unix nanoseconds.
	LastSnapshot int64
}

// Stats reads the published telemetry (safe from any goroutine).
func (l *Log) Stats() Stats {
	return Stats{
		Gen:          l.gen.Load(),
		Bytes:        l.bytes.Load(),
		Records:      l.records.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Snapshots:    l.snaps.Load(),
		LastSnapshot: l.lastSnap.Load(),
	}
}

// Syncs reports whether Commit fsyncs (SyncBatch) or only hands the
// records to the OS (SyncNone). It is what makes a commit worth sharing:
// an fsync costs the same however many records it covers, a flush costs
// about as much as the write it is.
func (l *Log) Syncs() bool { return l.sync }

// FsyncQuantile reports the q-quantile of observed fsync latency in
// nanoseconds (0 when no fsync has run).
func (l *Log) FsyncQuantile(q float64) int64 { return l.fsyncNs.Quantile(q) }

// FsyncCount reports how many fsync latencies have been observed.
func (l *Log) FsyncCount() uint64 { return l.fsyncNs.Count() }

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", dir, err)
	}
	return nil
}
