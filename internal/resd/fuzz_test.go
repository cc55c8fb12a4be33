package resd

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/wal"
)

// FuzzResdAdmission decodes the fuzz input into a Reserve/Cancel/Query/
// Restart op stream and replays it serially through a single-shard service
// on the tree backend, cross-checking every answer against a sequential
// oracle: a plain array Timeline driven by straight-line admission logic
// with the same α-floor. Any divergence — a different admitted start, a
// different error, a different capacity probe — means the event loop, the
// batching path, a backend or WAL recovery broke admission semantics. An
// input with a restart runs the service over an unsynced log that
// snapshots every few records, and a restart closes the service and opens
// it again over the same directory, so replays start from the log alone or
// from a snapshot; the oracle carries on as if nothing happened. Where no
// log can open, a restart does nothing.
func FuzzResdAdmission(f *testing.F) {
	f.Add([]byte{0, 0, 2, 10, 0, 0, 2, 10, 2, 5, 0, 0})
	f.Add([]byte{0, 0, 1, 4, 1, 0, 0, 0, 0, 3, 2, 7})
	f.Add([]byte{0, 1, 6, 3, 0, 2, 6, 3, 1, 1, 0, 0, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			m     = 8
			alpha = 0.25
		)
		floor := int(alpha * m) // 2
		cfg := Config{M: m, Alpha: alpha, Batch: 4}
		for i := 0; i+4 <= len(ops); i += 4 {
			if ops[i]%4 == 3 {
				cfg.WAL = &wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone, SnapEvery: 4}
				break
			}
		}
		s, err := New(cfg)
		if errors.Is(err, errors.ErrUnsupported) {
			cfg.WAL = nil
			s, err = New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		oracle := profile.New(m)
		type admitted struct {
			id    ID
			start core.Time
			dur   core.Time
			q     int
		}
		var live []admitted
		for len(ops) >= 4 {
			op, a, b, c := ops[0]%4, ops[1], ops[2], ops[3]
			ops = ops[4:]
			switch op {
			case 0: // reserve
				ready := core.Time(a)
				q := int(b%m) + 1
				dur := core.Time(c%32) + 1
				resv, err := s.Admit(Request{Ready: ready, Q: q, Dur: dur, Deadline: NoDeadline})
				if q+floor > m {
					if !errors.Is(err, ErrNeverFits) {
						t.Fatalf("Reserve(q=%d) err = %v, want ErrNeverFits", q, err)
					}
					continue
				}
				wantStart, ok := oracle.FindSlot(ready, q+floor, dur)
				if !ok {
					t.Fatalf("oracle found no slot for q=%d+%d (finite load, tail is m)", q, floor)
				}
				if err != nil {
					t.Fatalf("Reserve(%v,%d,%v): %v (oracle admits at %v)", ready, q, dur, err, wantStart)
				}
				if resv.Start != wantStart {
					t.Fatalf("Reserve(%v,%d,%v) admitted at %v, oracle at %v", ready, q, dur, resv.Start, wantStart)
				}
				if err := oracle.Commit(wantStart, dur, q); err != nil {
					t.Fatalf("oracle commit: %v", err)
				}
				live = append(live, admitted{id: resv.ID, start: wantStart, dur: dur, q: q})
			case 1: // cancel (index a into live, or a bogus id when empty)
				if len(live) == 0 {
					if err := s.Cancel(makeID(0, uint64(a)+1<<20)); !errors.Is(err, ErrUnknownID) {
						t.Fatalf("cancel of bogus id err = %v, want ErrUnknownID", err)
					}
					continue
				}
				k := int(a) % len(live)
				ad := live[k]
				live = append(live[:k], live[k+1:]...)
				if err := s.Cancel(ad.id); err != nil {
					t.Fatalf("cancel %#x: %v", uint64(ad.id), err)
				}
				if err := oracle.Release(ad.start, ad.dur, ad.q); err != nil {
					t.Fatalf("oracle release: %v", err)
				}
			case 2: // query
				at := core.Time(a) + core.Time(b)
				free, err := s.Query(at)
				if err != nil {
					t.Fatalf("query(%v): %v", at, err)
				}
				if want := oracle.AvailableAt(at); free[0] != want {
					t.Fatalf("query(%v) = %d, oracle %d", at, free[0], want)
				}
			case 3: // restart over the same log
				if cfg.WAL == nil {
					continue
				}
				s.Close()
				if s, err = New(cfg); err != nil {
					t.Fatalf("restart: %v", err)
				}
			}
		}
		// Final conservation: cancel everything and require pristine state.
		for _, ad := range live {
			if err := s.Cancel(ad.id); err != nil {
				t.Fatalf("drain cancel: %v", err)
			}
		}
		snap, err := s.Snapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumSegments() != 1 || snap.AvailableAt(0) != m {
			t.Fatalf("not pristine after drain: %v", snap)
		}
	})
}
