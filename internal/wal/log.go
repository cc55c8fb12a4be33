package wal

import (
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
	// SyncNone never fsyncs: Append has already put each record in the
	// page cache through the segment's shared mapping, where it survives
	// a process crash but not a machine crash, so a SyncNone commit
	// costs nothing. The cheap configuration, and the one the overhead
	// benchmark's ratio gate is held to (fsync cost is the disk's, not
	// the code's).
	SyncNone SyncMode = "none"
)

// chunk is how much of a segment is allocated and mapped at a time. The
// blocks are allocated for real, not left sparse: a store into a sparse
// mapping on a full disk raises SIGBUS, where allocating first (fallocate
// on Linux, a write of the chunk's zeros on other unix systems) returns
// ENOSPC to Append.
const chunk = 4 << 20

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

	f     *os.File // the segment; nil once sealed
	m     []byte   // the mapped chunk being filled, at file offset mOff
	mOff  int64
	pos   int    // bytes of m written
	size  int64  // framed length: the file offset past the last whole frame
	buf   []byte // frame scratch, reused across Appends
	dirty bool   // records appended since the last fsync
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
// with Recover before Open; Open itself never reads them. Where the
// platform has no shared file mapping, Open fails with an error that wraps
// errors.ErrUnsupported and names the platform, and creates nothing.
func Open(shard int, o Options) (*Log, error) {
	if errPlatform != nil {
		return nil, errPlatform
	}
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
	l := &Log{
		dir:     o.Dir,
		shard:   shard,
		sync:    o.Sync == SyncBatch,
		journal: o.Journal,
	}
	if err := l.create(gen); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.lastSnap.Store(time.Now().UnixNano())
	return l, nil
}

// create starts generation gen: a new segment with its first chunk
// allocated and mapped, its name durable in the directory.
func (l *Log) create(gen uint64) error {
	f, err := os.OpenFile(logName(l.dir, l.shard, gen), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	l.f, l.size = f, 0
	if err = l.mapChunk(0); err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		l.seal() // leaves an empty segment, which recovery reads as nothing; err is the failure to report
		return err
	}
	l.gen.Store(gen)
	return nil
}

// Append copies one framed record into the segment's mapping, mapping
// the next chunk when this one fills, so a frame may straddle two. The
// record is then in the page cache, where a process crash cannot take
// it back; it is durable against a machine crash at the next Commit
// under SyncBatch.
func (l *Log) Append(r Record) error {
	l.buf = AppendRecord(l.buf[:0], r)
	for b := l.buf; len(b) > 0; {
		if l.pos == len(l.m) {
			if err := l.mapChunk(l.mOff + int64(len(l.m))); err != nil {
				return fmt.Errorf("wal: append: %w", err)
			}
		}
		n := copy(l.m[l.pos:], b)
		l.pos += n
		b = b[n:]
	}
	l.size = l.mOff + int64(l.pos)
	l.bytes.Add(uint64(len(l.buf)))
	l.records.Add(1)
	l.since++
	l.dirty = true
	return nil
}

// Commit is the group-commit point, called once per batch turn before
// any of its replies are released. Under SyncBatch it fsyncs the
// segment, which writes back the pages Append dirtied through the
// mapping. Under SyncNone, or with nothing appended, it costs nothing.
func (l *Log) Commit() error {
	if !l.sync || !l.dirty {
		return nil
	}
	t := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncNs.Observe(time.Since(t).Nanoseconds())
	l.fsyncs.Add(1)
	l.dirty = false
	return nil
}

// seal ends the segment: unmap it and cut the file to its framed length,
// so a sealed segment holds whole frames and nothing after them, then
// commit — under SyncBatch one fsync covers the records and the cut —
// and close the file.
func (l *Log) seal() error {
	err := l.unmap()
	if terr := l.f.Truncate(l.size); err == nil && terr != nil {
		err = fmt.Errorf("truncate: %w", terr)
	}
	l.dirty = true // the cut, like a record, is durable once fsynced
	if cerr := l.Commit(); err == nil {
		err = cerr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// SinceSnapshot reports how many records have been appended since the
// last snapshot rotation — the loop's snapshot trigger.
func (l *Log) SinceSnapshot() int { return l.since }

// Rotate seals the current generation and switches appends to a new
// one, returning the new generation number for the snapshot that
// should describe its starting state. Called by the log's writer; the
// snapshot itself is then written off-loop with WriteSnapshot.
func (l *Log) Rotate() (uint64, error) {
	// Sealed before the next generation's file exists: only the final
	// segment can ever end in a cut frame or unwritten space.
	if err := l.seal(); err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	gen := l.gen.Load() + 1
	if err := l.create(gen); err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
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

// Close seals the current generation. A log a failed Rotate left with
// no segment has nothing to close.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	if err := l.seal(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
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

// Syncs reports whether Commit fsyncs (SyncBatch) or does nothing
// (SyncNone: Append already left the records in the page cache). It is
// what makes a commit worth sharing: an fsync costs the same however
// many records it covers, a SyncNone commit costs nothing.
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
