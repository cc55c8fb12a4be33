package resd

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// walConfig is the recovery tests' base configuration: small machine,
// multiple shards, deterministic placement so a reference service and a
// WAL-backed one fed the same stream assign identical IDs and starts.
func walConfig(backend, dir string, snapEvery int) Config {
	return Config{
		Shards: 4, M: 32, Backend: backend,
		WAL: &wal.Options{Dir: dir, Sync: wal.SyncNone, SnapEvery: snapEvery},
	}
}

// driveBoth applies n deterministic admit/cancel operations to both
// services in lockstep, asserting each decision (ID, shard, start) is
// identical — the two histories must be the same history.
func driveBoth(t *testing.T, ref, svc *Service, r *rng.PCG, n int, held *[]Reservation) {
	t.Helper()
	tenants := []string{"", "acme", "zeta"}
	for i := 0; i < n; i++ {
		if len(*held) > 0 && r.Bool(0.3) {
			k := r.Intn(len(*held))
			id := (*held)[k].ID
			if err := ref.Cancel(id); err != nil {
				t.Fatalf("op %d: reference Cancel: %v", i, err)
			}
			if err := svc.Cancel(id); err != nil {
				t.Fatalf("op %d: wal Cancel: %v", i, err)
			}
			(*held)[k] = (*held)[len(*held)-1]
			*held = (*held)[:len(*held)-1]
			continue
		}
		req := Request{
			Tenant:   tenants[r.Intn(len(tenants))],
			Ready:    core.Time(r.Int63n(10000)),
			Q:        r.IntRange(1, 8),
			Dur:      core.Time(r.Int63Range(1, 50)),
			Deadline: NoDeadline,
		}
		a, err := ref.Admit(req)
		if err != nil {
			t.Fatalf("op %d: reference Admit: %v", i, err)
		}
		b, err := svc.Admit(req)
		if err != nil {
			t.Fatalf("op %d: wal Admit: %v", i, err)
		}
		if a != b {
			t.Fatalf("op %d: decisions diverged: reference %+v, wal %+v", i, a, b)
		}
		*held = append(*held, b)
	}
}

// assertSameState compares the full recoverable surface of two services:
// per-shard committed reservations (the Dump oracle), capacity indexes
// (the same breakpoints, the same capacity at each), per-shard durable
// counters, and per-tenant books (minus the process-lifetime slack
// percentile, which recovery documents as reset).
func assertSameState(t *testing.T, ref, svc *Service) {
	t.Helper()
	for i := 0; i < ref.Shards(); i++ {
		want, err := ref.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: dump differs:\n got %+v\nwant %+v", i, got, want)
		}
		widx, err := ref.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		gidx, err := svc.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		bps := widx.Breakpoints()
		if gbps := gidx.Breakpoints(); !reflect.DeepEqual(gbps, bps) {
			t.Fatalf("shard %d: index breakpoints differ:\n got %v\nwant %v", i, gbps, bps)
		}
		for _, at := range bps {
			if g, w := gidx.AvailableAt(at), widx.AvailableAt(at); g != w {
				t.Fatalf("shard %d: index capacity at %v is %d, want %d", i, at, g, w)
			}
		}
		wb := shardTenantStats(t, ref, i)
		gb := shardTenantStats(t, svc, i)
		for name := range wb {
			if w, g := wb[name], gb[name]; g != w {
				t.Fatalf("shard %d tenant %q: books differ: got %+v, want %+v", i, name, g, w)
			}
		}
		if len(gb) != len(wb) {
			t.Fatalf("shard %d: %d tenant books, want %d", i, len(gb), len(wb))
		}
	}
	ws, gs := ref.Stats(), svc.Stats()
	for i := range ws {
		w, g := ws[i], gs[i]
		if g.Active != w.Active || g.CommittedArea != w.CommittedArea ||
			g.Admitted != w.Admitted || g.Cancelled != w.Cancelled {
			t.Fatalf("shard %d: stats differ: got %+v, want %+v", i, g, w)
		}
	}
}

// TestRecoveryOracle is the tentpole acceptance test: a WAL-backed
// service killed (Close is a clean shutdown, but replay only believes
// the log) and reopened over the same directory must hold exactly the
// state of an uninterrupted reference service fed the identical stream
// — same IDs, same placements, same index, same books — and must keep
// agreeing as both continue admitting. Runs on both capacity backends,
// with and without snapshots anchoring the replay, over several streams;
// the subtest's name carries the stream's seed, so every failure names it.
func TestRecoveryOracle(t *testing.T) {
	for _, backend := range []string{"array", "tree"} {
		for _, snapEvery := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s/snapevery=%d", backend, snapEvery), func(t *testing.T) {
				for _, seed := range []uint64{0xFEED, 0x5EED1, 0x5EED2, 0x5EED3} {
					t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
						oracleRun(t, backend, snapEvery, seed)
					})
				}
			})
		}
	}
}

// oracleRun is one TestRecoveryOracle stream.
func oracleRun(t *testing.T, backend string, snapEvery int, seed uint64) {
	dir := t.TempDir()
	ref, err := New(Config{Shards: 4, M: 32, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	svc, err := New(walConfig(backend, dir, snapEvery))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	var held []Reservation
	driveBoth(t, ref, svc, r, 400, &held)
	assertSameState(t, ref, svc)
	svc.Close()

	svc, err = New(walConfig(backend, dir, snapEvery))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc.Close()
	wi := svc.WALInfo()
	if !wi.Enabled {
		t.Fatal("WALInfo.Enabled false on a WAL service")
	}
	if snapEvery > 0 && wi.Snapshots == 0 {
		t.Errorf("400 ops with SnapEvery=64 produced no snapshot anchor: %+v", wi)
	}
	if wi.Corrupt != 0 {
		t.Errorf("clean shutdown read as corrupt: %+v", wi)
	}
	assertSameState(t, ref, svc)

	// Both continue: recovered nextSeq must not re-mint old IDs.
	driveBoth(t, ref, svc, r, 200, &held)
	assertSameState(t, ref, svc)
}

// TestRecoveryFromLiveDirectory is the SIGKILL shape at the service
// level: the WAL directory of an unsynced service is copied while it is
// still serving — segments mapped, nothing sealed, every one ending in
// the unwritten rest of its chunk — and a service opened over the copy
// must hold exactly what was acknowledged before the copy, with nothing
// reported torn, corrupt or dropped: resdsrv's /healthz stays "ok".
func TestRecoveryFromLiveDirectory(t *testing.T) {
	dir := t.TempDir()
	ref, err := New(Config{Shards: 4, M: 32, Backend: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	svc, err := New(walConfig("tree", dir, 0))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r := rng.New(0x11FE)
	var held []Reservation
	driveBoth(t, ref, svc, r, 400, &held)

	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if raw[len(raw)-1] != 0 {
			t.Fatalf("%s: a live segment should end in unwritten space", ent.Name())
		}
		if err := os.WriteFile(filepath.Join(crashed, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The original keeps serving; none of this is in the copy.
	if _, err := svc.Admit(Request{Q: 1, Dur: 5, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}

	got, err := New(walConfig("tree", crashed, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, ref, got)
	if wi := got.WALInfo(); wi.Records == 0 || wi.Torn != 0 || wi.Corrupt != 0 || wi.DroppedBytes != 0 {
		t.Fatalf("WALInfo = %+v, want a clean replay", wi)
	}
	for i, w := range got.WALStats() {
		if w.Failed != 0 {
			t.Fatalf("shard %d: log failed after recovery: %+v", i, w)
		}
	}
}

// TestRecoveryTornTail crashes mid-frame: a half-written record at the
// log tail is the normal crash signature and must roll back to the last
// whole record, not poison the shard.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(walConfig("array", dir, 0))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	var ids []ID
	for i := 0; i < 40; i++ {
		resv, err := svc.Admit(Request{Ready: core.Time(i), Q: 2, Dur: 10, Deadline: NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resv.ID)
	}
	before := make(map[int][]Reservation)
	for i := 0; i < svc.Shards(); i++ {
		before[i], _ = svc.Dump(i)
	}
	svc.Close()
	// Tear every shard's newest log: append half of a valid frame.
	frame := wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: uint64(ids[0])})
	for i := 0; i < 4; i++ {
		name, raw := newestLog(t, dir, i)
		if err := os.WriteFile(name, append(raw, frame[:len(frame)/2]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, err = New(walConfig("array", dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wi := svc.WALInfo()
	if wi.Torn != 4 || wi.Corrupt != 0 {
		t.Fatalf("WALInfo = %+v, want 4 torn shards and no corruption", wi)
	}
	for i := 0; i < svc.Shards(); i++ {
		got, err := svc.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("shard %d: torn tail changed state", i)
		}
	}
	// The torn cancel never happened: cancelling for real must succeed.
	if err := svc.Cancel(ids[0]); err != nil {
		t.Fatalf("cancel after torn-tail recovery: %v", err)
	}
}

// TestRecoveryTornTailThenRestart is the double-restart sequence that
// used to drop acknowledged records: a torn generation is benign on the
// first recovery, but unless that recovery truncates the torn bytes off
// disk, the second recovery — by which point newer generations hold
// acknowledged admissions — rereads the same tail as mid-log corruption
// and silently discards everything after it.
func TestRecoveryTornTailThenRestart(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(walConfig("array", dir, 0))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := svc.Admit(Request{Ready: core.Time(i), Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	// Crash signature: every shard's newest log ends mid-frame.
	frame := wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: 1})
	for i := 0; i < 4; i++ {
		name, raw := newestLog(t, dir, i)
		if err := os.WriteFile(name, append(raw, frame[:len(frame)/2]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// First restart: recovery rolls the torn frames back, then the
	// service acknowledges a fresh batch into the next generations.
	svc, err = New(walConfig("array", dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if wi := svc.WALInfo(); wi.Torn != 4 || wi.Corrupt != 0 {
		t.Fatalf("first restart: WALInfo = %+v, want 4 torn shards", wi)
	}
	for i := 0; i < 40; i++ {
		if _, err := svc.Admit(Request{Ready: core.Time(100 + i), Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[int][]Reservation)
	for i := 0; i < svc.Shards(); i++ {
		before[i], _ = svc.Dump(i)
	}
	svc.Close()
	// Second restart: every acknowledged admission — including the whole
	// post-repair batch — must still be there, and the once-torn
	// generation must not reread as corruption.
	svc, err = New(walConfig("array", dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if wi := svc.WALInfo(); wi.Corrupt != 0 {
		t.Fatalf("second restart: repaired tail read as corruption: %+v", wi)
	}
	for i := 0; i < svc.Shards(); i++ {
		got, err := svc.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("shard %d: acknowledged records lost across the second restart: got %d reservations, want %d",
				i, len(got), len(before[i]))
		}
	}
}

// newestLog returns the path and contents of a shard's highest-
// generation log file.
func newestLog(t *testing.T, dir string, shard int) (string, []byte) {
	t.Helper()
	var best string
	var bestGen uint64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		var s int
		var gen uint64
		if n, _ := fmt.Sscanf(ent.Name(), "shard-%d.%d.wal", &s, &gen); n == 2 && s == shard && gen >= bestGen {
			best, bestGen = filepath.Join(dir, ent.Name()), gen
		}
	}
	if best == "" {
		t.Fatalf("no log for shard %d in %s", shard, dir)
	}
	raw, err := os.ReadFile(best)
	if err != nil {
		t.Fatal(err)
	}
	return best, raw
}

// writeShardLog fabricates a crash state: raw framed records as one
// shard's generation-1 log.
func writeShardLog(t *testing.T, dir string, shard int, recs ...wal.Record) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = wal.AppendRecord(buf, r)
	}
	name := filepath.Join(dir, fmt.Sprintf("shard-%d.1.wal", shard))
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Shard 1's generation-1 snapshot as the last build with a rebalancer
// encoded it: two live reservations of tenant "default" — (start 0,
// dur 10, q 2) and (start 10, dur 20, q 2) — next sequence 2.
// snapMovedCounters has every migration counter at 4 and nothing else;
// in snapPending the second entry is a pending copy of shard 0's
// id 7, in snapForeign a committed one; snapOpenOut has an unacknowledged
// out of id (1,2) to shard 0.
const (
	snapMovedCounters = "52534e500101010202000404010764656661756c7404780200000404028080808080804000140200000764656661756c748180808080804014280200000764656661756c74003ba7d097"
	snapPending       = "52534e500101010202000000010764656661756c7402280200000000020714280201000764656661756c748080808080804000140200000764656661756c74004dbe77e6"
	snapOpenOut       = "52534e500101010202000000010764656661756c7404780200000000028080808080804000140200000764656661756c748180808080804014280200000764656661756c74018280808080804000be69e966"
	snapForeign       = "52534e500101010202000100010764656661756c7404780200000100020714280200000764656661756c748080808080804000140200000764656661756c740045fe4b72"
)

// rawFrame frames a payload the way the log does (u32 length, u32 CRC).
func rawFrame(payload ...byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestRetiredLogRefused: a directory holding what only the rebalancer
// wrote — an intact record of type 3–7, a pending copy, an open out, a
// reservation living away from the shard its id names — fails New with
// wal.ErrRetired and is not touched: no truncation at the refused
// record, no boot generation, no repair. Migration counters alone are
// history, not state, and load.
func TestRetiredLogRefused(t *testing.T) {
	admits := wal.AppendRecord(nil, wal.Record{Type: wal.TAdmit, ID: uint64(makeID(1, 0)), Procs: 2, Dur: 10, Deadline: int64(NoDeadline)})
	admits = wal.AppendRecord(admits, wal.Record{Type: wal.TAdmit, ID: uint64(makeID(1, 1)), Procs: 2, Dur: 20, Deadline: int64(NoDeadline), Start: 10})
	for _, c := range []struct {
		name      string
		log, snap []byte // shard 1, generation 1
		loads     bool
	}{
		// The payloads the five types had: type, id 5, then the move's fields.
		{name: "migrate-in", log: rawFrame(3, 5, 0, 40, 20, 2, 0)},
		{name: "migrate-out", log: rawFrame(4, 5, 0)},
		{name: "migrate-commit", log: rawFrame(5, 5)},
		{name: "migrate-abort", log: rawFrame(6, 5)},
		{name: "migrate-out-ack", log: rawFrame(7, 5)},
		{name: "pending-live-entry", snap: unhex(t, snapPending)},
		{name: "open-out", snap: unhex(t, snapOpenOut)},
		{name: "foreign-live-id", snap: unhex(t, snapForeign)},
		{name: "counters-only", snap: unhex(t, snapMovedCounters), loads: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.snap != nil {
				if err := os.WriteFile(filepath.Join(dir, "shard-1.1.snap"), c.snap, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				// Admissions before the retired record and after it: dropping
				// the suffix as damage would lose the last one silently.
				tail := wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: uint64(makeID(1, 0))})
				raw := append(append(append([]byte(nil), admits...), c.log...), tail...)
				if err := os.WriteFile(filepath.Join(dir, "shard-1.1.wal"), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirDigest(t, dir)
			svc, err := New(walConfig("tree", dir, 64))
			skipNoLog(t, err)
			if c.loads {
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				want := []Reservation{
					{ID: makeID(1, 0), Shard: 1, Start: 0, Dur: 10, Procs: 2},
					{ID: makeID(1, 1), Shard: 1, Start: 10, Dur: 20, Procs: 2},
				}
				if got, _ := svc.Dump(1); !reflect.DeepEqual(got, want) {
					t.Fatalf("dump = %+v, want %+v", got, want)
				}
				return
			}
			if err == nil {
				svc.Close()
				t.Fatal("New read a directory holding migration state")
			}
			if !errors.Is(err, wal.ErrRetired) || errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("err = %v, want wal.ErrRetired", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "removed in this build") {
				t.Fatalf("refusal does not say where and why: %v", err)
			}
			if after := dirDigest(t, dir); after != before {
				t.Fatalf("refused New changed the directory:\nbefore:\n%safter:\n%s", before, after)
			}
		})
	}
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirDigest lists every file in dir, in name order, with its size and a
// checksum of its contents.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d bytes crc %08x\n", ent.Name(), len(raw), crc32.ChecksumIEEE(raw))
	}
	return out.String()
}

// TestRecoveryRefusesDamagedSnapshot: a snapshot with one flipped byte
// is the only record of what it held — WriteSnapshot deleted the
// generations before it — so New refuses with wal.ErrCorrupt, naming the
// file, and leaves the directory as found. Booting without it would serve
// only what was admitted after it, and the boot snapshot would then
// delete the damaged file.
func TestRecoveryRefusesDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig("tree", dir, 4)
	cfg.Shards = 1
	svc, err := New(cfg)
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := svc.Admit(Request{Ready: core.Time(i * 100), Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want one", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirDigest(t, dir)
	svc, err = New(cfg)
	if err == nil {
		live, _ := svc.Dump(0)
		svc.Close()
		t.Fatalf("New booted over a damaged snapshot with %d of 12 reservations live", len(live))
	}
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(snaps[0])) {
		t.Fatalf("err = %v, want wal.ErrCorrupt naming %s", err, filepath.Base(snaps[0]))
	}
	if after := dirDigest(t, dir); after != before {
		t.Fatalf("refused New changed the directory:\nbefore:\n%safter:\n%s", before, after)
	}
}

// TestRecoveryWarnsOnSkippedSnapshot: a damaged snapshot whose state the
// logs before it still rebuild — as after a crash between a snapshot's
// rename and the pruning of older generations — is skipped; the replay
// is whole and the journal says so with a warning.
func TestRecoveryWarnsOnSkippedSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig("tree", dir, 0)
	cfg.Shards = 1
	svc, err := New(cfg)
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := svc.Admit(Request{Ready: core.Time(i * 100), Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := svc.Dump(0)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	// Generation 0 holds every record; a damaged snapshot claims
	// generation 1, whose log the next boot opens.
	if err := os.WriteFile(filepath.Join(dir, "shard-0.1.snap"), []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := flight.NewJournal(64, nil)
	cfg.WAL.Journal = j
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got, _ := svc.Dump(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d reservations, want all %d", len(got), len(want))
	}
	if n := j.SubsysCount("resd", flight.Warn); n != 1 {
		t.Fatalf("%d resd warnings journaled, want the skipped snapshot's one: %+v", n, j.Tail(0))
	}
}

// TestRecoveryCorruptMidLog injects damage before the tail: replay must
// keep the proven prefix, count the corruption, and come up serving.
func TestRecoveryCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig("array", dir, 0)
	cfg.Shards = 1
	svc, err := New(cfg)
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := svc.Admit(Request{Ready: core.Time(i * 100), Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	// Flip a payload byte of the 6th frame: a CRC failure before the
	// tail, which must read as damage rather than a crash artifact. The
	// frame walk uses the on-disk layout (u32 length, u32 CRC, payload).
	name, raw := newestLog(t, dir, 0)
	off := 0
	for i := 0; i < 5; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	raw[off+8] ^= 0x20
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wi := svc.WALInfo()
	if wi.Corrupt != 1 || wi.DroppedBytes == 0 {
		t.Fatalf("WALInfo = %+v, want one corrupt shard with dropped bytes", wi)
	}
	dump, err := svc.Dump(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) == 0 || len(dump) >= 10 {
		t.Fatalf("recovered %d of 10 reservations, want a proper non-empty prefix", len(dump))
	}
	// The service keeps admitting, and new IDs never collide with
	// recovered ones.
	seen := map[ID]bool{}
	for _, r := range dump {
		seen[r.ID] = true
	}
	for i := 0; i < 5; i++ {
		resv, err := svc.Admit(Request{Ready: 0, Q: 1, Dur: 5, Deadline: NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		if seen[resv.ID] {
			t.Fatalf("recovered service re-minted live ID %#x", uint64(resv.ID))
		}
	}
}

// TestRecoveryRejectsContradictoryLog: records that are CRC-clean but
// semantically impossible (cancel of an unknown ID), or a checksummed
// snapshot that lists one ID twice, must surface as ErrCorrupt from New,
// never as a panic or silent misstate.
func TestRecoveryRejectsContradictoryLog(t *testing.T) {
	dir := t.TempDir()
	writeShardLog(t, dir, 0, wal.Record{Type: wal.TCancel, ID: uint64(makeID(0, 5))})
	cfg := walConfig("array", dir, 0)
	if _, err := New(cfg); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("New over a contradictory log: err = %v, want wal.ErrCorrupt", err)
	}

	dir = t.TempDir()
	l, err := wal.Open(0, wal.Options{Dir: dir, Sync: wal.SyncNone})
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	twice := wal.Live{ID: uint64(makeID(0, 1)), Dur: 10, Procs: 2, Tenant: "t"}
	err = l.WriteSnapshot(&wal.Snapshot{Shard: 0, Gen: gen, NextSeq: 2, Admitted: 2,
		Books: []wal.TenantBook{{Tenant: "t", Active: 2, Admitted: 2}}, Live: []wal.Live{twice, twice}})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := New(walConfig("array", dir, 0)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("New over a snapshot listing an id twice: err = %v, want wal.ErrCorrupt", err)
	}
}

// TestEndlessAdmissionAreaSaturates: without quotas an endless admission is
// admitted, and its area — MaxInt64, saturated — must neither wrap the
// shard's sum nor its tenant's. Two endless reservations (Q = 2, then
// Q = 3) share a shard beside a finite one on the other: Stats, TenantStats
// and TenantTotals read MaxInt64 for the endless shard, which placement
// ranks heaviest; a recovered service reads the same; and once both are
// cancelled the sums are exact again, recovered too. Snapshots are taken
// every record, so the saturated book areas they store are what a later
// recovery finds and must not subtract from.
func TestEndlessAdmissionAreaSaturates(t *testing.T) {
	cfg := Config{Shards: 2, M: 8, WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone, SnapEvery: 1}}
	open := func() *Service {
		s, err := New(cfg)
		skipNoLog(t, err)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(s *Service, when string, area0, area1 int64, want []int) {
		t.Helper()
		for i, want := range []int64{area0, area1} {
			if got := s.Stats()[i].CommittedArea; got != want {
				t.Errorf("%s: shard %d Stats area %d, want %d", when, i, got, want)
			}
			if got := shardTenantStats(t, s, i)["t"].CommittedArea; got != want {
				t.Errorf("%s: shard %d tenant book area %d, want %d", when, i, got, want)
			}
		}
		tot, err := s.TenantTotals()
		if err != nil {
			t.Fatal(err)
		}
		if got := tot["t"].CommittedArea; got != satAdd(area0, area1) {
			t.Errorf("%s: TenantTotals area %d, want %d", when, got, satAdd(area0, area1))
		}
		if got := order(s.shards, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: placement order %v, want %v", when, got, want)
		}
	}
	admit := func(s *Service, req Request, shard int) Reservation {
		t.Helper()
		req.Tenant = "t"
		r, err := s.Admit(req)
		if err != nil || r.Shard != shard {
			t.Fatalf("Admit(%+v) = %+v, %v; want shard %d", req, r, err, shard)
		}
		return r
	}

	s := open()
	admit(s, Request{Q: 8, Dur: 10, Deadline: NoDeadline}, 0)
	// Shard 0 is full at tick 0, so both endless requests, which must
	// start there, land on shard 1 however placement ranks the two.
	e2 := admit(s, Request{Q: 2, Dur: core.Infinity, Deadline: 0}, 1)
	check(s, "Q=2 admitted", 80, math.MaxInt64, []int{0, 1})
	e3 := admit(s, Request{Q: 3, Dur: core.Infinity, Deadline: 0}, 1)
	check(s, "admitted", 80, math.MaxInt64, []int{0, 1})
	s.Close()

	s = open()
	check(s, "recovered", 80, math.MaxInt64, []int{0, 1})
	if err := s.Cancel(e2.ID); err != nil {
		t.Fatal(err)
	}
	check(s, "Q=2 cancelled", 80, math.MaxInt64, []int{0, 1})
	if err := s.Cancel(e3.ID); err != nil {
		t.Fatal(err)
	}
	check(s, "both cancelled", 80, 0, []int{1, 0})
	s.Close()

	s = open()
	defer s.Close()
	check(s, "recovered after the cancels", 80, 0, []int{1, 0})
}

// TestOverflowBookSurvivesRecovery: a log that names more than
// tenant.MaxAccounts tenants comes back with its overflow book whole. The
// first MaxAccounts names are admitted and cancelled, so the shard keeps a
// cell for each and the registry, which re-charges survivors only, opens no
// account for them; then three fresh names are admitted past the cap, one
// of them cancelled. After New the overflow book holds what those records
// imply, the snapshot lists each survivor under the name it was charged
// under, that name's account holds its area, and a Cancel releases that
// account, not the overflow book's.
func TestOverflowBookSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	var recs []wal.Record
	seq := uint64(0)
	admit := func(name string, start, dur int64, q int) ID {
		id := makeID(0, seq)
		seq++
		recs = append(recs, wal.Record{Type: wal.TAdmit, ID: uint64(id), Tenant: name,
			Start: start, Dur: dur, Procs: q, Deadline: int64(NoDeadline)})
		return id
	}
	cancel := func(id ID) { recs = append(recs, wal.Record{Type: wal.TCancel, ID: uint64(id)}) }
	for i := 0; i < tenant.MaxAccounts; i++ {
		cancel(admit(fmt.Sprintf("seed%d", i), 0, 1, 1))
	}
	f1 := admit("fresh1", 0, 10, 2)
	cancel(admit("fresh2", 0, 10, 1))
	f3 := admit("fresh3", 10, 5, 3)
	writeShardLog(t, dir, 0, recs...)

	reg := mustRegistry(t, 1<<40, tenant.Spec{})
	cfg := walConfig("tree", dir, 0)
	cfg.Shards, cfg.M, cfg.Quotas = 1, 8, reg
	s, err := New(cfg)
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := shardTenantStats(t, s, 0)
	want := TenantStats{Active: 2, CommittedArea: 2*10 + 3*5, Admitted: 3, Cancelled: 1}
	if o := ts[OverflowTenant]; o != want {
		t.Fatalf("overflow book after recovery = %+v, want %+v", o, want)
	}
	for _, name := range []string{"fresh1", "fresh2", "fresh3"} {
		if _, own := ts[name]; own {
			t.Fatalf("%s, past the cap, got a book of its own", name)
		}
	}
	if n := len(ts); n != tenant.MaxAccounts+1 {
		t.Fatalf("%d books, want the cap plus the overflow book", n)
	}
	snap := s.shards[0].snapshot(1)
	named := map[ID]string{}
	for _, lv := range snap.Live {
		named[ID(lv.ID)] = lv.Tenant
	}
	if len(named) != 2 || named[f1] != "fresh1" || named[f3] != "fresh3" {
		t.Fatalf("snapshot lists %+v, want %#x under fresh1 and %#x under fresh3", snap.Live, uint64(f1), uint64(f3))
	}
	if u := reg.Usage("fresh1"); u.Used != 20 || u.Inflight != 1 {
		t.Fatalf("fresh1's account after recovery = %+v, want area 20 held by one admission", u)
	}
	if u := reg.Usage("fresh3"); u.Used != 15 || u.Inflight != 1 {
		t.Fatalf("fresh3's account after recovery = %+v, want area 15 held by one admission", u)
	}
	if u := reg.Usage(OverflowTenant); u.Used != 0 || u.Inflight != 0 {
		t.Fatalf("recovery charged the overflow book's name: %+v", u)
	}
	if err := s.Cancel(f1); err != nil {
		t.Fatal(err)
	}
	if u := reg.Usage("fresh1"); u.Used != 0 || u.Inflight != 0 || u.Cancelled != 1 {
		t.Fatalf("fresh1's account after the cancel = %+v", u)
	}
	if u := reg.Usage(OverflowTenant); u.Used != 0 || u.Cancelled != 0 {
		t.Fatalf("the cancel released the overflow book's name: %+v", u)
	}
	if u := reg.Usage("fresh3"); u.Used != 15 {
		t.Fatalf("the cancel moved fresh3's account: %+v", u)
	}
}
