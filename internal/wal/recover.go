package wal

import (
	"encoding/binary"
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
	// HasSnapshot reports whether a valid snapshot anchored the replay.
	HasSnapshot bool
	// BadSnapshots counts snapshot files that failed validation and
	// were skipped in favour of an older generation whose logs since
	// are all still there.
	BadSnapshots int
	// Torn reports a frame at the end of the newest generation that a
	// crash cut mid-copy: its header is short, or it declares more bytes
	// than were written before the segment's zero suffix. TornBytes is
	// how many of its bytes were written. Zeros after the last whole frame
	// are not torn: they are space the log allocated and never wrote (the
	// rest of a crashed process's mapped chunk), reported nowhere.
	Torn      bool
	TornBytes int64
	// Corrupt reports an invalid frame before the final generation's
	// tail: real damage, not a crash artifact. Replay keeps everything
	// before the bad frame and drops the rest (DroppedBytes, including
	// any later generations).
	Corrupt      bool
	DroppedBytes int64
	// Gen and End are where the read stopped: generation Gen's segment
	// holds whole frames up to byte End, and the replay holds nothing
	// after them. Cut reports bytes after End in that segment — a torn
	// frame, unwritten zeros or a corrupt suffix — and Quarantine
	// generations after Gen, which hold what a corrupt frame cut off.
	// Repair writes both verdicts to disk.
	Gen        uint64
	End        int64
	Cut        bool
	Quarantine bool
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
// Recover writes nothing. What it judges dropped — a torn tail,
// unwritten space, everything past a corrupt frame — it reports in
// ReplayInfo, and Repair makes that verdict durable before Open starts
// a newer generation.
//
// State only the removed rebalancer wrote (ErrRetired) is neither: the
// files are intact and this build cannot read them. Recover returns the
// error, naming the file. So it does for a damaged snapshot whose state
// no older generation can rebuild (ErrCorrupt): booting without it would
// drop every reservation it held, and the boot snapshot would then
// delete the evidence.
func Recover(dir string, shard int) (*Snapshot, []Record, ReplayInfo, error) {
	var info ReplayInfo
	gens, err := listGens(dir, shard)
	if err != nil || len(gens) == 0 {
		return nil, nil, info, err
	}

	// Newest decodable snapshot wins. A bad one (disk damage) falls back
	// to an older anchor — an older snapshot, or else the empty state
	// before generation 0 — but only while every log from that anchor up
	// to the bad snapshot is still there. That holds after a crash
	// between a snapshot's rename and the deletion of the generations
	// before it, and otherwise not: WriteSnapshot deletes them.
	var snap *Snapshot
	var bad error // the newest bad snapshot's, naming the file
	var badGen uint64
	for i := len(gens) - 1; i >= 0 && snap == nil; i-- {
		if !gens[i].hasSnap {
			continue
		}
		name := snapName(dir, shard, gens[i].gen)
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: %w", err)
		}
		s, err := decodeSnapshot(raw)
		if errors.Is(err, ErrRetired) {
			return nil, nil, info, fmt.Errorf("%s: %w", name, err)
		}
		if err == nil && (s.Shard != shard || s.Gen != gens[i].gen) {
			err = fmt.Errorf("%w: snapshot of shard %d generation %d", ErrCorrupt, s.Shard, s.Gen)
		}
		if err != nil {
			if bad == nil {
				bad, badGen = fmt.Errorf("%s: %w", name, err), gens[i].gen
			}
			info.BadSnapshots++
			continue
		}
		snap = s
		info.HasSnapshot = true
	}
	if bad != nil {
		var from, logs uint64
		if snap != nil {
			from = snap.Gen
		}
		for _, g := range gens {
			if g.hasLog && g.gen >= from && g.gen < badGen {
				logs++
			}
		}
		if logs < badGen-from {
			return nil, nil, info, fmt.Errorf("%w; %d of the logs from generation %d to it are gone, so what it held cannot be rebuilt: the directory is left as found",
				bad, badGen-from-logs, from)
		}
	}

	var recs []Record
scan:
	for i, g := range gens {
		if !g.hasLog || (snap != nil && g.gen < snap.Gen) {
			continue
		}
		name := logName(dir, shard, g.gen)
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: %w", err)
		}
		// Only the final segment can end in space never written — the rest
		// of the chunk a crashed process had mapped — so only there does
		// the scan stop where the zero suffix begins.
		last := i == len(gens)-1
		end := len(raw)
		if last {
			end = written(raw)
		}
		off := 0
		for off < end {
			rec, n, derr := decodeRecord(raw[off:])
			if derr != nil {
				err = derr
				break
			}
			recs = append(recs, rec)
			off += n
		}
		if errors.Is(err, ErrRetired) {
			return nil, nil, info, fmt.Errorf("%s offset %d: %w", name, off, err)
		}
		if err == nil && !last {
			continue
		}
		// The read stops here: whole frames up to off are the durable truth.
		info.Gen, info.End, info.Cut = g.gen, int64(off), off < len(raw)
		switch {
		case err == nil:
			// Whole frames, then zeros: unwritten space, not damage.
		case last && cutFrame(raw[off:], end-off):
			// Crash mid-frame.
			info.Torn, info.TornBytes = true, int64(end-off)
		default:
			// An invalid frame anywhere else is damage. Keep the records
			// proven good and drop the suspect suffix: this file's remainder
			// plus any later generations.
			info.Corrupt, info.DroppedBytes = true, int64(end-off)
			info.Quarantine = i < len(gens)-1
			for _, later := range gens[i+1:] {
				if fi, err := os.Stat(logName(dir, shard, later.gen)); later.hasLog && err == nil {
					info.DroppedBytes += fi.Size()
				}
			}
		}
		break scan
	}
	info.Records = len(recs)
	return snap, recs, info, nil
}

// Repair writes to dir the verdict of a Recover that returned info: it
// renames the generations past a corrupt frame out of the recovery set
// (keeping their bytes), then cuts the segment the read stopped in to its
// whole frames. Renames first: a crash between the two leaves a cut the
// next Recover judges again, never later generations behind a segment
// that no longer shows the damage.
func Repair(dir string, shard int, info ReplayInfo) error {
	if info.Quarantine {
		gens, err := listGens(dir, shard)
		if err != nil {
			return err
		}
		for _, g := range gens {
			if g.gen <= info.Gen {
				continue
			}
			if g.hasLog {
				if err := quarantine(logName(dir, shard, g.gen)); err != nil {
					return err
				}
			}
			// A snapshot this late can't be the chosen anchor (the
			// anchor's generation is at or before the corrupt one, or
			// this file failed validation): quarantine it too.
			if g.hasSnap {
				if err := quarantine(snapName(dir, shard, g.gen)); err != nil {
					return err
				}
			}
		}
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	if info.Cut {
		return truncateLog(logName(dir, shard, info.Gen), info.End)
	}
	return nil
}

// written returns the length of b without its zero suffix.
func written(b []byte) int {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return n
}

// cutFrame reports whether the undecodable frame at the head of b, of
// which only the first head bytes precede the zero suffix, is one a
// crash cut mid-copy: its header is too short to read, or it declares a
// frame reaching into the zeros. A copy runs front to back, so a partly
// copied little-endian length is at most the whole one; a length no
// frame can have (0, or past maxPayload) is damage, not a cut.
func cutFrame(b []byte, head int) bool {
	if len(b) < frameHeader {
		return true
	}
	n := binary.LittleEndian.Uint32(b)
	return n > 0 && n <= maxPayload && frameHeader+int(n) > head
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
