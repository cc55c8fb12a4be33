package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// openLog opens shard 0's log in o.Dir, skipping the test where Open is
// unsupported on this platform.
func openLog(t *testing.T, o Options) *Log {
	t.Helper()
	l, err := Open(0, o)
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sampleRecords is eight records of both types, with every meaningful
// field populated (negative times included: the varint coding's sign
// path is part of the format).
func sampleRecords() []Record {
	return []Record{
		{Type: TAdmit, ID: 0x70001, Tenant: "acme", Ready: -3, Procs: 8, Dur: 40, Deadline: 1 << 40, Start: 150},
		{Type: TAdmit, ID: 0x70002, Tenant: "", Ready: 0, Procs: 1, Dur: 1, Deadline: 0, Start: 0},
		{Type: TCancel, ID: 0x70001},
		{Type: TAdmit, ID: 0x30005, Tenant: "zeta", Ready: 90, Procs: 2, Dur: 12, Deadline: 99, Start: 99},
		{Type: TCancel, ID: 0x30005},
		{Type: TAdmit, ID: 0x30006, Tenant: "zeta", Ready: 1, Procs: 1, Dur: 3, Deadline: -1, Start: 1},
		{Type: TCancel, ID: 0x70002},
		{Type: TCancel, ID: 0x30006},
	}
}

// typedFrame is a CRC-clean frame whose payload is one type byte and an
// ID — what a cancel looks like, under any type number.
func typedFrame(typ byte) []byte {
	frame := AppendRecord(nil, Record{Type: TCancel, ID: 0x30005})
	frame[frameHeader] = typ
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeader:]))
	return frame
}

func TestRecordRoundtrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d roundtrip: got %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestRecordDamage(t *testing.T) {
	frame := AppendRecord(nil, sampleRecords()[0])
	// Any single flipped payload byte must fail the CRC.
	for i := frameHeader; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := decodeRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Any truncation is a short frame — the torn-tail signal, never
	// corruption.
	for n := 0; n < len(frame); n++ {
		if _, _, err := decodeRecord(frame[:n]); !errors.Is(err, errShort) {
			t.Fatalf("truncated to %d: err = %v, want errShort", n, err)
		}
	}
	// A zero or absurd length field is structural corruption.
	zero := append([]byte(nil), frame...)
	zero[0], zero[1], zero[2], zero[3] = 0, 0, 0, 0
	if _, _, err := decodeRecord(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero length: err = %v, want ErrCorrupt", err)
	}
	// An intact frame of a type this format never had is corruption; one
	// of a retired type is not — it says so, and is not a record either.
	for typ := 0; typ < 256; typ++ {
		want := ErrCorrupt // type 1 too: an admit has more payload than this
		switch {
		case typ == int(TCancel):
			want = nil
		case typ >= 3 && typ <= 7:
			want = ErrRetired
		}
		if _, _, err := decodeRecord(typedFrame(byte(typ))); !errors.Is(err, want) {
			t.Fatalf("type %d: err = %v, want %v", typ, err, want)
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	s := &Snapshot{
		Shard: 2, Gen: 7, NextSeq: 41,
		Admitted: 100, Cancelled: 40,
		Books: []TenantBook{
			{Tenant: "a", Active: 2, Area: 200, Admitted: 10, Cancelled: 8},
			{Tenant: "b", Active: 1, Area: 50, Admitted: 5, Cancelled: 4},
		},
		Live: []Live{
			{ID: 0x20001, Start: 10, Dur: 20, Procs: 4, Tenant: "a"},
			{ID: 0x20002, Start: 30, Dur: 5, Procs: 1, Tenant: "b"},
		},
	}
	enc := encodeSnapshot(s)
	// The layout the last build to write the migration slots used, every
	// reserved slot zero: the bytes sit where it put them.
	if got := hex.EncodeToString(enc); got != snapZero {
		t.Fatalf("snapshot encoding:\n got %s\nwant %s", got, snapZero)
	}
	got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, s)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, err := decodeSnapshot(bad); err == nil {
			t.Fatalf("flip at %d decoded cleanly", i)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("truncation to %d decoded cleanly", n)
		}
	}
	// Written by the build that booked a quota refusal in the book, and
	// with the rebalancer on: finished moves left counters behind. Both
	// are dropped; an unfinished move is refused, not repaired.
	for _, blob := range []string{snapClean, snapCounters} {
		old, err := decodeSnapshot(unhex(t, blob))
		if err != nil || !reflect.DeepEqual(old, s) {
			t.Fatalf("non-zero reserved counters: %+v, %v; want %+v", old, err, s)
		}
	}
	for name, blob := range map[string]string{"pending": snapPending, "open out": snapOpenOut} {
		if _, err := decodeSnapshot(unhex(t, blob)); !errors.Is(err, ErrRetired) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrRetired", name, err)
		}
	}
}

// TestSnapshotRoundtrip's state as this build encodes it (snapZero), and
// as the build that still had a rebalancer encoded it, tenant a's book
// holding one quota refusal in the slot now reserved: with no migration
// state, with non-zero migration counters (3 in, 5 out; tenant a 2 in, 300
// out), with the second live entry a pending copy from shard 3, and with
// one open out (0x20009 to shard 1).
const (
	snapZero     = "52534e5001020729642800000201610490030a0800000001620264050400000002818008142804000001618280083c0a0100000162002ee47154"
	snapClean    = "52534e5001020729642800000201610490030a0801000001620264050400000002818008142804000001618280083c0a01000001620018b5f370"
	snapCounters = "52534e5001020729642803050201610490030a080102ac0201620264050400000002818008142804000001618280083c0a0100000162009e7afeca"
	snapPending  = "52534e5001020729642800000201610490030a0801000001620264050400000002818008142804000001618280083c0a0101030162004633265f"
	snapOpenOut  = "52534e5001020729642800000201610490030a0801000001620264050400000002818008142804000001618280083c0a01000001620189800801ca2e32eb"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeLog appends framed records straight to one generation's file,
// bypassing Log — the tests' way of fabricating crash states.
func writeLog(t *testing.T, dir string, shard int, gen uint64, raw []byte) {
	t.Helper()
	if err := os.WriteFile(logName(dir, shard, gen), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func frames(recs ...Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered %+v, want %+v", got, recs)
	}
	if info.Torn || info.Corrupt || info.Records != len(recs) {
		t.Fatalf("info = %+v", info)
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	snap, recs, info, err := Recover(t.TempDir()+"/nonexistent", 3)
	if err != nil || snap != nil || recs != nil {
		t.Fatalf("missing dir: %v %v %v", snap, recs, err)
	}
	if info != (ReplayInfo{}) {
		t.Fatalf("missing dir info = %+v", info)
	}
}

func TestTornTailKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	raw := frames(recs...)
	// Cut the final frame in half: the crash signature.
	lastLen := len(frames(recs[len(recs)-1]))
	cut := raw[:len(raw)-lastLen/2]
	writeLog(t, dir, 0, 1, cut)
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	if want := recs[:len(recs)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d records, want the %d-record prefix", len(got), len(want))
	}
	if !info.Torn || info.Corrupt {
		t.Fatalf("info = %+v, want Torn and not Corrupt", info)
	}
	if wantDropped := int64(len(cut) - len(frames(recs[:len(recs)-1]...))); info.TornBytes != wantDropped {
		t.Fatalf("TornBytes = %d, want %d", info.TornBytes, wantDropped)
	}
}

// TestTornTailRepairSurvivesLaterGenerations is the sequence that used
// to lose acknowledged records: a torn tail in generation G is benign on
// the first recovery, but G is no longer the newest generation once the
// restarted process appends to G+1 — so unless recovery truncates the
// torn bytes off the disk, the next recovery rereads them as mid-log
// corruption and drops every later generation, fsynced records included.
func TestTornTailRepairSurvivesLaterGenerations(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	raw := frames(recs[:4]...)
	lastLen := len(frames(recs[3]))
	writeLog(t, dir, 0, 0, raw[:len(raw)-lastLen/2])
	_, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || len(got) != 3 {
		t.Fatalf("first recovery: info = %+v, %d records", info, len(got))
	}
	// The repair must be on disk, not just in the verdict.
	onDisk, err := os.ReadFile(logName(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := frames(recs[:3]...); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("torn tail survived on disk: %d bytes, want %d", len(onDisk), len(want))
	}
	// The restarted process acknowledges new records in the next generation.
	l := openLog(t, Options{Dir: dir})
	for _, r := range recs[4:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The next recovery must replay every durable record — the 3-record
	// prefix of the torn generation plus everything acknowledged after it.
	_, got, info, err = Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), recs[:3]...), recs[4:]...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart: recovered %d records, want %d (acknowledged records dropped)", len(got), len(want))
	}
	if info.Torn || info.Corrupt {
		t.Fatalf("after repair: info = %+v, want neither torn nor corrupt", info)
	}
}

// Zeros after the final generation's last whole frame are space never
// written — the rest of a crashed process's mapped chunk, or a tail a
// filesystem zero-extended — not damage and not a cut frame: truncated,
// and reported nowhere.
func TestZeroFilledTailIsUnwritten(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	raw := frames(recs...)
	writeLog(t, dir, 0, 0, append(raw, make([]byte, 64)...))
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("unexpected snapshot")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered %d records, want all %d", len(got), len(recs))
	}
	if info.Torn || info.TornBytes != 0 || info.Corrupt || info.DroppedBytes != 0 {
		t.Fatalf("info = %+v, want neither torn nor corrupt", info)
	}
	if onDisk, err := os.ReadFile(logName(dir, 0, 0)); err != nil || !reflect.DeepEqual(onDisk, raw) {
		t.Fatalf("unwritten space left on disk: %d bytes, want %d (%v)", len(onDisk), len(raw), err)
	}
	// Zeros followed by junk is not the crash shape: that stays corrupt.
	junk := append(append(frames(recs...), make([]byte, 16)...), 0xAB)
	dir2 := t.TempDir()
	writeLog(t, dir2, 0, 0, junk)
	_, _, info, err = Recover(dir2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Corrupt || info.Torn {
		t.Fatalf("zeros+junk: info = %+v, want Corrupt", info)
	}
}

// TestFrameCutIntoPreallocation is the mapped segment's crash mid-copy:
// whole frames, then the first half of one, then the zeros of the chunk
// it was being copied into. The half frame declares more bytes than were
// written before the zeros, so it is torn, not corrupt — and TornBytes
// counts only its written half.
func TestFrameCutIntoPreallocation(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	whole := frames(recs[:3]...)
	next := frames(recs[3])
	half := next[:len(next)/2]
	if half[len(half)-1] == 0 {
		t.Fatal("fixture: the half frame must end in a written, non-zero byte")
	}
	raw := append(append(append([]byte(nil), whole...), half...), make([]byte, 4096)...)
	writeLog(t, dir, 0, 0, raw)
	_, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:3]) {
		t.Fatalf("recovered %d records, want the 3 whole ones", len(got))
	}
	if !info.Torn || info.Corrupt || info.TornBytes != int64(len(half)) || info.DroppedBytes != 0 {
		t.Fatalf("info = %+v, want Torn (%d bytes) and not Corrupt", info, len(half))
	}
	if size := fileSize(t, logName(dir, 0, 0)); size != int64(len(whole)) {
		t.Fatalf("segment not cut to its whole frames: %d bytes, want %d", size, len(whole))
	}
}

// appendAll appends recs to l and commits them.
func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentSpansChunks fills a segment past two chunk boundaries with
// frames of an odd length, so one frame straddles each boundary: Close
// must leave exactly the framed bytes, and recovery must read every one.
func TestSegmentSpansChunks(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir, Sync: SyncNone})
	// Every ID below 2^21 past 2^14 is a three-byte uvarint: one length.
	rec := Record{Type: TAdmit, ID: 1 << 14, Tenant: strings.Repeat("t", 1000), Procs: 3, Dur: 7, Deadline: 1 << 30}
	n := len(frames(rec))
	if n%2 == 0 { // an odd length never divides a boundary at k·2^22
		rec.Tenant += "t"
		n = len(frames(rec))
	}
	var recs []Record
	for size := 0; size <= 2*chunk; size += n {
		rec.ID = 1<<14 + uint64(len(recs))
		recs = append(recs, rec)
	}
	appendAll(t, l, recs)
	for b := chunk; b < len(recs)*n; b += chunk {
		if b%n == 0 {
			t.Fatalf("no frame straddles the chunk boundary at %d", b)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, logName(dir, 0, 0)); size != int64(len(recs)*n) {
		t.Fatalf("closed segment is %d bytes, not its framed length %d", size, len(recs)*n)
	}
	_, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) || info.Torn || info.Corrupt {
		t.Fatalf("recovered %d of %d records, info = %+v", len(got), len(recs), info)
	}
}

// copyDir copies every file of dir into a fresh directory. Taken from a
// log that was committed but not closed, the copy is what a SIGKILL
// leaves: whole frames, then the unwritten rest of the mapped chunk.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestLiveSegmentRecovers: a committed, unclosed segment's copy replays
// every record and reports nothing, and is cut to its framed length.
func TestLiveSegmentRecovers(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir, Sync: SyncNone})
	defer l.Close()
	recs := sampleRecords()
	appendAll(t, l, recs)
	crashed := copyDir(t, dir)
	if size := fileSize(t, logName(crashed, 0, 0)); size != chunk {
		t.Fatalf("live segment is %d bytes, not one preallocated chunk", size)
	}
	_, got, info, err := Recover(crashed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered %d records, want all %d", len(got), len(recs))
	}
	if info.Torn || info.Corrupt || info.TornBytes != 0 || info.DroppedBytes != 0 {
		t.Fatalf("info = %+v, want a clean replay", info)
	}
	if size := fileSize(t, logName(crashed, 0, 0)); size != int64(len(frames(recs...))) {
		t.Fatalf("recovered segment is %d bytes, not its framed length %d", size, len(frames(recs...)))
	}
}

// TestRotateSealsOlderGeneration: Rotate cuts a segment to its frames
// before the next exists, so no generation but the final one ever holds
// unwritten space — the premise of reading a zero suffix anywhere else
// as corruption.
func TestRotateSealsOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})
	recs := sampleRecords()
	for i := 0; i < 3; i++ {
		appendAll(t, l, recs[2*i:2*i+2])
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(t, l, recs[6:])
	final := l.Stats().Gen
	for gen := uint64(0); gen < final; gen++ {
		raw, err := os.ReadFile(logName(dir, 0, gen))
		if err != nil {
			t.Fatal(err)
		}
		if want := frames(recs[2*gen : 2*gen+2]...); !reflect.DeepEqual(raw, want) {
			t.Fatalf("generation %d: %d bytes on disk, want its %d framed bytes", gen, len(raw), len(want))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, info, err := Recover(dir, 0)
	if err != nil || !reflect.DeepEqual(got, recs) || info.Torn || info.Corrupt {
		t.Fatalf("recovered %d of %d records, info = %+v, err %v", len(got), len(recs), info, err)
	}
}

// TestAppendCommitAllocs: once the frame scratch has grown, a record's
// way into the log allocates nothing, synced or not.
func TestAppendCommitAllocs(t *testing.T) {
	for _, sync := range []SyncMode{SyncNone, SyncBatch} {
		l := openLog(t, Options{Dir: t.TempDir(), Sync: sync})
		rec := sampleRecords()[0]
		allocs := testing.AllocsPerRun(200, func() {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per Append+Commit, want 0", sync, allocs)
		}
	}
}

func TestCorruptMidLogDropsSuffixAndLaterGens(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	raw := frames(recs[:4]...)
	// Flip one payload byte of the third frame: records 0-1 survive,
	// everything after (including generation 2) is suspect.
	third := len(frames(recs[:2]...))
	raw[third+frameHeader] ^= 0x01
	writeLog(t, dir, 0, 1, raw)
	gen2 := frames(recs[4:]...)
	writeLog(t, dir, 0, 2, gen2)
	_, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := recs[:2]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want the 2-record prefix", got)
	}
	if !info.Corrupt || info.Torn {
		t.Fatalf("info = %+v, want Corrupt and not Torn", info)
	}
	if wantDropped := int64(len(raw)-third) + int64(len(gen2)); info.DroppedBytes != wantDropped {
		t.Fatalf("DroppedBytes = %d, want %d", info.DroppedBytes, wantDropped)
	}
	// The verdict is repaired onto disk: the damaged file is truncated at
	// the last good frame and the later generation quarantined, so a
	// second recovery reaches the same answer with no damage left to find.
	if onDisk, err := os.ReadFile(logName(dir, 0, 1)); err != nil || len(onDisk) != third {
		t.Fatalf("corrupt generation not truncated: %d bytes, want %d (%v)", len(onDisk), third, err)
	}
	if _, err := os.Stat(logName(dir, 0, 2)); !os.IsNotExist(err) {
		t.Fatalf("generation 2 not quarantined: %v", err)
	}
	if q, err := os.ReadFile(logName(dir, 0, 2) + ".corrupt"); err != nil || !reflect.DeepEqual(q, gen2) {
		t.Fatalf("quarantined generation 2 bytes lost: %v", err)
	}
	_, got, info, err = Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:2]) || info.Corrupt || info.Torn {
		t.Fatalf("second recovery: %d records, info = %+v, want the clean 2-record prefix", len(got), info)
	}
}

// A torn tail anywhere but the newest generation is not a crash
// artifact — generation N was complete before N+1 was created — so it
// must read as corruption.
func TestTornOlderGenIsCorruption(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	raw := frames(recs[:2]...)
	writeLog(t, dir, 0, 1, raw[:len(raw)-3])
	writeLog(t, dir, 0, 2, frames(recs[2:]...))
	_, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d records, want 1", len(got))
	}
	if !info.Corrupt || info.Torn {
		t.Fatalf("info = %+v, want Corrupt and not Torn", info)
	}
}

func TestSnapshotAnchorsReplay(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	writeLog(t, dir, 0, 1, frames(recs[:4]...)) // covered by the snapshot: must not replay
	writeLog(t, dir, 0, 2, frames(recs[4:]...))
	s := &Snapshot{Shard: 0, Gen: 2, NextSeq: 9}
	if err := os.WriteFile(snapName(dir, 0, 2), encodeSnapshot(s), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Gen != 2 || snap.NextSeq != 9 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !reflect.DeepEqual(got, recs[4:]) {
		t.Fatalf("replayed %+v, want only generation-2 records", got)
	}
	if !info.HasSnapshot {
		t.Fatalf("info = %+v", info)
	}
}

// A snapshot newer than every log generation is legal (crash between
// snapshot rename and the next append): state is the snapshot alone.
func TestSnapshotNewerThanLogs(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 1, frames(sampleRecords()...))
	s := &Snapshot{Shard: 0, Gen: 5, NextSeq: 17}
	if err := os.WriteFile(snapName(dir, 0, 5), encodeSnapshot(s), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, got, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.NextSeq != 17 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(got) != 0 {
		t.Fatalf("replayed %d records from generations the snapshot covers", len(got))
	}
}

func TestBadSnapshotFallsBackOlder(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	old := &Snapshot{Shard: 0, Gen: 1, NextSeq: 3}
	if err := os.WriteFile(snapName(dir, 0, 1), encodeSnapshot(old), 0o644); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir, 0, 1, frames(recs[:4]...))
	// Newest snapshot damaged (crash mid-write before rename would
	// normally prevent this; this is disk damage).
	bad := encodeSnapshot(&Snapshot{Shard: 0, Gen: 2, NextSeq: 9})
	bad[len(bad)-1] ^= 0xFF
	if err := os.WriteFile(snapName(dir, 0, 2), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir, 0, 2, frames(recs[4:]...))
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Gen != 1 {
		t.Fatalf("snapshot = %+v, want the generation-1 fallback", snap)
	}
	if info.BadSnapshots != 1 {
		t.Fatalf("BadSnapshots = %d, want 1", info.BadSnapshots)
	}
	// With the older anchor, both generations replay.
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want all %d", len(got), len(recs))
	}
}

// A snapshot claiming the wrong shard or generation is as bad as a
// CRC failure: it must not anchor replay. Replay falls back to the empty
// state before generation 0 while the logs from there are all present,
// and refuses once one of them is gone.
func TestMisdirectedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	writeLog(t, dir, 0, 0, frames(recs[:4]...))
	writeLog(t, dir, 0, 1, frames(recs[4:]...))
	wrong := &Snapshot{Shard: 3, Gen: 1}
	if err := os.WriteFile(snapName(dir, 0, 1), encodeSnapshot(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, got, info, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("adopted a shard-3 snapshot as shard 0's")
	}
	if info.BadSnapshots != 1 || len(got) != len(recs) {
		t.Fatalf("info = %+v, records = %d", info, len(got))
	}
	if err := os.Remove(logName(dir, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Recover(dir, 0); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "shard-0.1.snap") {
		t.Fatalf("Recover without generation 0 = %v, want ErrCorrupt naming the snapshot", err)
	}
}

func TestRotateAndSnapshotTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, Options{Dir: dir})
	defer l.Close()
	recs := sampleRecords()
	for _, r := range recs[:4] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.SinceSnapshot() != 4 {
		t.Fatalf("SinceSnapshot = %d, want 4", l.SinceSnapshot())
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if l.SinceSnapshot() != 0 {
		t.Fatalf("SinceSnapshot after rotate = %d", l.SinceSnapshot())
	}
	for _, r := range recs[4:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshot generation gen: the rotated-away generation must vanish.
	if err := l.WriteSnapshot(&Snapshot{Shard: 0, Gen: gen, NextSeq: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logName(dir, 0, gen-1)); !os.IsNotExist(err) {
		t.Fatalf("generation %d survived truncation: %v", gen-1, err)
	}
	snap, got, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.NextSeq != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !reflect.DeepEqual(got, recs[4:]) {
		t.Fatalf("recovered %+v, want the post-rotation records", got)
	}
	if st := l.Stats(); st.Snapshots != 1 || st.Records != uint64(len(recs)) {
		t.Fatalf("stats = %+v", st)
	}
	// A snapshot addressed to another shard's log must be refused.
	if err := l.WriteSnapshot(&Snapshot{Shard: 1, Gen: gen}); err == nil {
		t.Fatal("cross-shard snapshot accepted")
	}
}

func TestOpenSkipsExistingGenerations(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 3, frames(sampleRecords()[:2]...))
	l := openLog(t, Options{Dir: dir})
	defer l.Close()
	if g := l.Stats().Gen; g != 4 {
		t.Fatalf("Open landed on generation %d, want 4 (one past the newest)", g)
	}
	if err := l.Append(sampleRecords()[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	_, got, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d records across generations, want 3", len(got))
	}
}

func TestOptionsNormalize(t *testing.T) {
	if _, err := (Options{}).Normalize(); err == nil {
		t.Fatal("empty Dir accepted")
	}
	o, err := (Options{Dir: "x"}).Normalize()
	if err != nil || o.Sync != SyncBatch {
		t.Fatalf("defaults: %+v, %v", o, err)
	}
	if _, err := (Options{Dir: "x", Sync: "flush"}).Normalize(); err == nil {
		t.Fatal("unknown sync mode accepted")
	}
	if _, err := (Options{Dir: "x", SnapEvery: -1}).Normalize(); err == nil {
		t.Fatal("negative SnapEvery accepted")
	}
}

// FuzzWALReplay checks the scanner against an in-memory oracle: a
// record script is framed to disk, the file is cut at an arbitrary
// point and padded with zeros — the unwritten rest of a mapped chunk —
// and Recover must return exactly the longest whole-frame prefix and
// leave only it on disk: torn only when the cut split a frame and left
// a non-zero byte of it, corrupt never (a cut never fabricates a
// valid-looking frame, it only shortens one).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint16(0))
	f.Add([]byte{1, 9, 4, 'a', 'b', 2, 9}, uint32(11), uint16(64))
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 4, 1, 1, 7, 1}, uint32(6), uint16(3))
	f.Fuzz(func(t *testing.T, script []byte, cut uint32, zeros uint16) {
		pad := int(zeros)
		// Decode the script into records: each byte run picks a type and
		// fills fields from subsequent bytes. Deterministic, total.
		var recs []Record
		for i := 0; i < len(script); {
			r := Record{Type: Type(script[i]%2 + 1), ID: uint64(script[i]) << 3}
			i++
			take := func() int64 {
				if i >= len(script) {
					return 0
				}
				v := int64(script[i]) - 128
				i++
				return v
			}
			if r.Type == TAdmit {
				r.Ready, r.Dur, r.Deadline, r.Start = take(), take(), take(), take()
				r.Procs = int(uint8(take()))
				n := int(uint8(take())) % 8
				if n > len(script)-i {
					n = len(script) - i
				}
				r.Tenant = string(script[i : i+n])
				i += n
			}
			recs = append(recs, r)
		}
		raw := frames(recs...)
		// Oracle: which records survive a cut at offset cut%(len+1)?
		off := int(cut) % (len(raw) + 1)
		var keep int
		var consumed int
		for keep < len(recs) {
			n := len(frames(recs[keep]))
			if consumed+n > off {
				// The frame the cut split is whole again when the cut took
				// only zero bytes of it and the suffix puts them back.
				if end := consumed + n; end <= off+pad && written(raw[off:end]) == 0 {
					consumed, keep = end, keep+1
				}
				break
			}
			consumed += n
			keep++
		}
		// What the cut left of the frame it split, up to its last
		// non-zero byte: the bytes recovery can tell were written.
		var cutLeft int
		if off > consumed {
			cutLeft = written(raw[consumed:off])
		}
		dir := t.TempDir()
		writeLog(t, dir, 0, 1, append(raw[:off:off], make([]byte, pad)...))
		snap, got, info, err := Recover(dir, 0)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if snap != nil {
			t.Fatal("snapshot from nowhere")
		}
		if len(got) != keep {
			t.Fatalf("cut %d+%d zeros: recovered %d records, oracle says %d", off, pad, len(got), keep)
		}
		if keep > 0 && !reflect.DeepEqual(got, recs[:keep]) {
			t.Fatalf("cut %d+%d zeros: recovered records differ from the oracle prefix", off, pad)
		}
		if wantTorn := cutLeft > 0; info.Torn != wantTorn || info.TornBytes != int64(cutLeft) {
			t.Fatalf("cut %d+%d zeros: Torn = %v (%d bytes), oracle says %v (%d) (%+v)",
				off, pad, info.Torn, info.TornBytes, wantTorn, cutLeft, info)
		}
		if info.Corrupt || info.DroppedBytes != 0 {
			t.Fatalf("cut %d+%d zeros: a truncation read as corruption (%+v)", off, pad, info)
		}
		if size := fileSize(t, logName(dir, 0, 1)); size != int64(consumed) {
			t.Fatalf("cut %d+%d zeros: segment is %d bytes, not its %d whole-frame bytes", off, pad, size, consumed)
		}
	})
}
