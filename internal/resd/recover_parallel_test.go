package resd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// copyWALDir copies every file of dir into a fresh directory, so that a
// recovery, which repairs what it reads, can run on the same state twice.
func copyWALDir(t *testing.T, dir string) string {
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

// atProcs runs f with GOMAXPROCS set to procs: the recovery phases run on
// min(Shards, GOMAXPROCS) goroutines.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// recovered is what a boot rebuilt, as the tests compare it: every
// shard's reservations, index breakpoints and the capacity at each, the
// recovery summary (less its directory and duration) and the journal's
// resd and wal events, in the order recorded.
type recovered struct {
	dumps  [][]Reservation
	bps    [][]core.Time
	free   [][]int
	info   WALInfo
	events []string
}

func recoverAt(t *testing.T, procs int, dir string) recovered {
	t.Helper()
	rec, err := flight.New(flight.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig("tree", dir, 8)
	cfg.Obs = &ObsConfig{Flight: rec}
	var svc *Service
	atProcs(procs, func() { svc, err = New(cfg) })
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var r recovered
	for _, ev := range rec.Journal().Tail(0) {
		if ev.Subsys == "resd" || ev.Subsys == "wal" {
			r.events = append(r.events, fmt.Sprintf("%s %d %s %v", ev.Subsys, ev.Shard, ev.Msg, ev.KV))
		}
	}
	for i := 0; i < svc.Shards(); i++ {
		d, err := svc.Dump(i)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := svc.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		bps := idx.Breakpoints()
		free := make([]int, len(bps))
		for k, at := range bps {
			free[k] = idx.AvailableAt(at)
		}
		r.dumps, r.bps, r.free = append(r.dumps, d), append(r.bps, bps), append(r.free, free)
	}
	r.info = svc.WALInfo()
	r.info.Dir, r.info.Replay = "", 0
	return r
}

// TestRecoveryIndependentOfProcs recovers one four-shard directory — a
// snapshot under every shard, several tenants, a torn tail on shard 1 and
// a tenant book overflowing on shard 3 — at GOMAXPROCS 1 and 4. The books,
// the indexes, WALInfo and the journal must not tell the two apart, and
// the journal must list each phase's events in shard order.
func TestRecoveryIndependentOfProcs(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(walConfig("tree", dir, 8))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustNew(t, Config{Shards: 4, M: 32, Backend: "tree"})
	var held []Reservation
	driveBoth(t, ref, svc, rng.New(7), 300, &held)
	ref.Close()
	svc.Close()

	// Shard 3's log goes on past the cap on tenant books: MaxAccounts names
	// admitted and cancelled, then one more admitted for good.
	name, raw := newestLog(t, dir, 3)
	const base = 1 << 20 // past every sequence number the service minted
	for k := uint64(0); k <= tenant.MaxAccounts; k++ {
		id := uint64(makeID(3, base+k))
		raw = wal.AppendRecord(raw, wal.Record{Type: wal.TAdmit, ID: id, Tenant: fmt.Sprintf("n%d", k),
			Procs: 1, Dur: 1, Start: 1 << 30, Deadline: int64(NoDeadline)})
		if k < tenant.MaxAccounts {
			raw = wal.AppendRecord(raw, wal.Record{Type: wal.TCancel, ID: id})
		}
	}
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Shard 1's newest log ends mid-frame.
	name, raw = newestLog(t, dir, 1)
	frame := wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: uint64(held[0].ID)})
	if err := os.WriteFile(name, append(raw, frame[:len(frame)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	one := recoverAt(t, 1, copyWALDir(t, dir))
	four := recoverAt(t, 4, copyWALDir(t, dir))
	if !reflect.DeepEqual(one.dumps, four.dumps) {
		t.Fatal("the books differ between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.bps, four.bps) || !reflect.DeepEqual(one.free, four.free) {
		t.Fatal("the indexes differ between GOMAXPROCS 1 and 4")
	}
	if one.info != four.info {
		t.Fatalf("WALInfo at GOMAXPROCS 1 = %+v, at 4 = %+v", one.info, four.info)
	}
	if one.info.Torn != 1 || one.info.Snapshots != 4 {
		t.Fatalf("WALInfo = %+v, want one torn shard and four snapshots", one.info)
	}
	if !reflect.DeepEqual(one.events, four.events) {
		t.Fatalf("journal at GOMAXPROCS 1:\n%s\nat 4:\n%s", strings.Join(one.events, "\n"), strings.Join(four.events, "\n"))
	}
	var order []string
	for _, ev := range one.events {
		f := strings.Fields(ev)
		order = append(order, f[0]+" "+f[1]+" "+f[2])
	}
	want := []string{
		"resd 1 wal", "resd 3 tenant", "resd -1 wal",
		"wal 0 log", "wal 0 snapshot", "wal 1 log", "wal 1 snapshot",
		"wal 2 log", "wal 2 snapshot", "wal 3 log", "wal 3 snapshot",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("journal events out of shard order:\n%s", strings.Join(one.events, "\n"))
	}
}

// TestRecoveryRefusalIsWhole breaks shard 2 of four in three ways — a
// record of a retired type, a cancel of an id it never admitted, a
// damaged snapshot whose logs are gone — and cuts shard 3's newest log
// mid-frame, then boots at GOMAXPROCS 1 and 4: New must fail naming shard
// 2, and leave every file as found, so no shard has a boot generation and
// shard 3's torn tail is still there.
func TestRecoveryRefusalIsWhole(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		svc, err := New(walConfig("tree", dir, 4))
		skipNoLog(t, err)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if _, err := svc.Admit(Request{Tenant: []string{"acme", "zeta"}[i%2], Ready: core.Time(i * 10), Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
		return dir
	}
	appendToShard2 := func(frame []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			name, raw := newestLog(t, dir, 2)
			if err := os.WriteFile(name, append(raw, frame...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		brk   func(*testing.T, string)
		cause error
	}{
		{"retired-record", appendToShard2(rawFrame(4, 5, 0)), wal.ErrRetired},
		{"cancel-of-unknown-id", appendToShard2(wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: uint64(makeID(2, 1<<30))})), wal.ErrCorrupt},
		{"damaged-snapshot", func(t *testing.T, dir string) {
			snaps, err := filepath.Glob(filepath.Join(dir, "shard-2.*.snap"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("shard 2 snapshots %v (%v), want one", snaps, err)
			}
			raw, err := os.ReadFile(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, wal.ErrCorrupt},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				dir := build(t)
				c.brk(t, dir)
				name, raw := newestLog(t, dir, 3)
				frame := wal.AppendRecord(nil, wal.Record{Type: wal.TCancel, ID: uint64(makeID(3, 1))})
				if err := os.WriteFile(name, append(raw, frame[:len(frame)/2]...), 0o644); err != nil {
					t.Fatal(err)
				}
				before := dirDigest(t, dir)
				var err error
				atProcs(procs, func() {
					var svc *Service
					if svc, err = New(walConfig("tree", dir, 4)); err == nil {
						svc.Close()
					}
				})
				if err == nil {
					t.Fatal("New booted over a broken shard 2")
				}
				if !errors.Is(err, c.cause) || !strings.Contains(err.Error(), "shard 2") {
					t.Fatalf("err = %v, want %v naming shard 2", err, c.cause)
				}
				if after := dirDigest(t, dir); after != before {
					t.Fatalf("refused New changed the directory:\nbefore:\n%safter:\n%s", before, after)
				}
			})
		}
	}
}

// TestRecoveryQuotaCutIsDeterministic reopens a four-shard directory whose
// survivors hold twice what the tenant's quota now allows: New fails, and
// names the same reservation on every one of 20 boots, at GOMAXPROCS 1
// and 4 in turn.
func TestRecoveryQuotaCutIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(walConfig("tree", dir, 0))
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := svc.Admit(Request{Tenant: "acme", Ready: core.Time(i * 7), Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	var first string
	for run := 0; run < 20; run++ {
		cfg := walConfig("tree", dir, 0)
		cfg.Quotas = mustRegistry(t, 80*2*10/2, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "acme", Share: 1}}})
		atProcs(1+3*(run%2), func() {
			if svc, err = New(cfg); err == nil {
				svc.Close()
			}
		})
		if err == nil || !strings.Contains(err.Error(), `no longer fits tenant "acme"'s quota`) {
			t.Fatalf("run %d: err = %v, want the quota refusal", run, err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d names another reservation:\n%v\nfirst run:\n%s", run, err, first)
		}
	}
}
