package wal

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ReplayInfo describes what recovery found.
type ReplayInfo struct {
	// Records is how many log records were replayed (after the chosen
	// snapshot).
	Records int
	// Gens is how many log generations were read.
	Gens int
	// HasSnapshot reports whether a valid snapshot anchored the replay;
	// SnapshotGen is its generation.
	HasSnapshot bool
	SnapshotGen uint64
	// BadSnapshots counts snapshot files that failed validation and
	// were skipped in favour of an older generation.
	BadSnapshots int
	// Torn reports a truncated final frame in the newest generation —
	// the normal signature of a crash mid-write (a cut frame, or a
	// zero-filled tail on filesystems that zero-extend on crash).
	// TornBytes is how many trailing bytes were dropped; Recover
	// truncated them off the file so they stay dropped.
	Torn      bool
	TornBytes int64
	// Corrupt reports an invalid frame before the final generation's
	// tail: real damage, not a crash artifact. Replay keeps everything
	// before the bad frame and drops the rest (DroppedBytes, including
	// any later generations, which Recover quarantined on disk).
	Corrupt      bool
	DroppedBytes int64
}

// genFiles records which files exist for one generation.
type genFiles struct {
	gen     uint64
	hasLog  bool
	hasSnap bool
}

// listGens scans dir for one shard's files, sorted by ascending
// generation.
func listGens(dir string, shard int) ([]genFiles, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	prefix := fmt.Sprintf("shard-%d.", shard)
	byGen := map[uint64]*genFiles{}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		var isLog bool
		switch {
		case strings.HasSuffix(rest, ".wal"):
			isLog = true
			rest = strings.TrimSuffix(rest, ".wal")
		case strings.HasSuffix(rest, ".snap"):
			rest = strings.TrimSuffix(rest, ".snap")
		default:
			continue
		}
		gen, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			continue // not ours (e.g. a temp file)
		}
		g := byGen[gen]
		if g == nil {
			g = &genFiles{gen: gen}
			byGen[gen] = g
		}
		if isLog {
			g.hasLog = true
		} else {
			g.hasSnap = true
		}
	}
	out := make([]genFiles, 0, len(byGen))
	for _, g := range byGen {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gen < out[j].gen })
	return out, nil
}

// Recover reads one shard's durable state from dir: the newest valid
// snapshot (nil when none) and every log record after it, in append
// order. The caller replays the records onto the snapshot's state —
// the semantics live with the caller. A missing directory is an empty
// log, not an error.
//
// Recover also repairs the directory so its verdict is durable: a torn
// tail is truncated off the file, and everything past a corrupt frame
// (the file's suffix, plus whole later generations) is truncated or
// quarantined under a ".corrupt" suffix. Without the repair the verdict
// would silently change on the next restart — a torn tail is a normal
// crash artifact only while its generation is the newest, so once Open
// starts a newer generation and fsync-acknowledges records there, a
// later recovery would reread the same torn tail as mid-log corruption
// and drop those acknowledged records.
//
// State only the removed rebalancer wrote (ErrRetired) is neither: the
// files are intact and this build cannot read them. Recover returns the
// error, naming the file, and leaves the shard's files as they are.
func Recover(dir string, shard int) (*Snapshot, []Record, ReplayInfo, error) {
	var info ReplayInfo
	gens, err := listGens(dir, shard)
	if err != nil || len(gens) == 0 {
		return nil, nil, info, err
	}

	// Newest decodable snapshot wins; a bad one (crash mid-write before
	// the rename, or disk damage) falls back to the previous generation,
	// whose log files still exist because truncation happens only after
	// a snapshot is durable.
	var snap *Snapshot
	for i := len(gens) - 1; i >= 0 && snap == nil; i-- {
		if !gens[i].hasSnap {
			continue
		}
		raw, err := os.ReadFile(snapName(dir, shard, gens[i].gen))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: %w", err)
		}
		s, err := decodeSnapshot(raw)
		if errors.Is(err, ErrRetired) {
			return nil, nil, info, fmt.Errorf("%s: %w", snapName(dir, shard, gens[i].gen), err)
		}
		if err != nil {
			info.BadSnapshots++
			continue
		}
		if s.Shard != shard || s.Gen != gens[i].gen {
			info.BadSnapshots++
			continue
		}
		snap = s
		info.HasSnapshot = true
		info.SnapshotGen = s.Gen
	}

	var recs []Record
	for i, g := range gens {
		if !g.hasLog || (snap != nil && g.gen < snap.Gen) {
			continue
		}
		raw, err := os.ReadFile(logName(dir, shard, g.gen))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: %w", err)
		}
		info.Gens++
		off := 0
		for off < len(raw) {
			rec, n, err := decodeRecord(raw[off:])
			if err == nil {
				recs = append(recs, rec)
				info.Records++
				off += n
				continue
			}
			if errors.Is(err, ErrRetired) {
				return nil, nil, info, fmt.Errorf("%s offset %d: %w", logName(dir, shard, g.gen), off, err)
			}
			rest := int64(len(raw) - off)
			last := i == len(gens)-1
			if last && (errors.Is(err, errShort) || allZero(raw[off:])) {
				// Crash mid-frame (a cut frame, or a zero-filled tail from a
				// filesystem that zero-extends on crash): the valid prefix is
				// the durable truth. Truncate the tail off the file so the
				// verdict sticks — left in place, it would read as mid-log
				// corruption once a newer generation exists.
				info.Torn = true
				info.TornBytes = rest
				if rerr := truncateLog(logName(dir, shard, g.gen), int64(off)); rerr != nil {
					return nil, nil, info, rerr
				}
				return snap, recs, info, nil
			}
			// An invalid frame anywhere else is damage. Keep the records
			// proven good, drop the suspect suffix (this file's remainder
			// plus any later generations) and repair the directory to
			// match: truncate this file at the last good frame, quarantine
			// later generations so no future recovery can replay past the
			// damage into records this one rejected.
			info.Corrupt = true
			info.DroppedBytes = rest
			if rerr := truncateLog(logName(dir, shard, g.gen), int64(off)); rerr != nil {
				return nil, nil, info, rerr
			}
			for _, later := range gens[i+1:] {
				if later.hasLog {
					name := logName(dir, shard, later.gen)
					if fi, serr := os.Stat(name); serr == nil {
						info.DroppedBytes += fi.Size()
					}
					if rerr := quarantine(name); rerr != nil {
						return nil, nil, info, rerr
					}
				}
				// A snapshot this late can't be the chosen anchor (the
				// anchor's generation is at or before the corrupt one, or
				// this file failed validation): quarantine it too.
				if later.hasSnap {
					if rerr := quarantine(snapName(dir, shard, later.gen)); rerr != nil {
						return nil, nil, info, rerr
					}
				}
			}
			if rerr := syncDir(dir); rerr != nil {
				return nil, nil, info, rerr
			}
			return snap, recs, info, nil
		}
	}
	return snap, recs, info, nil
}

// allZero reports whether b is entirely zero bytes — the shape of a
// tail the filesystem zero-extended during a crash.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// truncateLog durably cuts a log file at off, discarding a torn or
// corrupt suffix so later recoveries see only the proven-good prefix.
func truncateLog(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	return nil
}

// quarantine renames a damaged file out of the recovery set (listGens
// and Open ignore the suffix) while keeping its bytes for forensics.
func quarantine(path string) error {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("wal: quarantine: %w", err)
	}
	return nil
}
