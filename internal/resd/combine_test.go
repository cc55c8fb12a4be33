package resd

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// The TestCombine* tests cover what used to lean on a resident goroutine
// per shard: answers reaching the caller that asked, shutdown, fairness
// between callers, and the goroutine count itself. CI runs them under
// -race -count=5 at GOMAXPROCS 1 and 2.

// TestCombineOwnAnswer is a seeded stress — callers × shards, admit,
// cancel and query, soft-mode quotas so fairOrder permutes the turns, the
// WAL fsyncing so combiners yield for group commits — in which every call must
// get exactly its own answer: each caller asks only for durations
// congruent to its own index, so an answer delivered to the wrong slot
// shows as a wrong Dur or Procs, a cancel of a held ID must succeed, and
// no ID is handed out twice. After quiesce the shards' books and the quota
// ledger must hold exactly what the callers still hold.
func TestCombineOwnAnswer(t *testing.T) {
	const (
		shards  = 3
		m       = 32
		callers = 12
		opsPerG = 400
		horizon = 1 << 20
		seed    = 17
	)
	tenants := []string{"a", "b", "c"}
	reg := mustRegistry(t, tenant.PrefixCapacity(shards, m, 0, horizon), tenant.Spec{
		Mode: "soft",
		Tenants: []tenant.TenantSpec{
			{Name: "a", Share: 0.6}, {Name: "b", Share: 0.3}, {Name: "c", Share: 0.1},
		},
	})
	s := mustNew(t, Config{
		Shards: shards, M: m, Batch: 4, Quotas: reg,
		WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncBatch, SnapEvery: 500},
	})
	held := make([][]Reservation, callers)
	ids := make([][]ID, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(seed, uint64(g))
			for i := 0; i < opsPerG; i++ {
				switch {
				case r.Bool(0.3) && len(held[g]) > 0:
					k := r.Intn(len(held[g]))
					resv := held[g][k]
					held[g] = append(held[g][:k], held[g][k+1:]...)
					if err := s.Cancel(resv.ID); err != nil {
						t.Errorf("seed %d caller %d: cancel of held %#x: %v", seed, g, uint64(resv.ID), err)
						return
					}
				case r.Bool(0.15):
					free, err := s.Query(core.Time(r.Int63n(horizon)))
					if err != nil || len(free) != shards {
						t.Errorf("seed %d caller %d: query = %v, %v", seed, g, free, err)
						return
					}
					for _, f := range free {
						if f < 0 || f > m {
							t.Errorf("seed %d caller %d: query answered %v", seed, g, free)
							return
						}
					}
				default:
					req := Request{
						Tenant: tenants[g%len(tenants)], Ready: core.Time(r.Int63n(horizon)),
						Q: r.IntRange(1, m/2), Dur: core.Time(1 + g + callers*r.Intn(8)), Deadline: NoDeadline,
					}
					resv, err := s.Admit(req)
					if err != nil {
						t.Errorf("seed %d caller %d: admit %+v: %v", seed, g, req, err)
						return
					}
					if resv.Procs != req.Q || resv.Dur != req.Dur || resv.Start < req.Ready {
						t.Errorf("seed %d caller %d: asked %+v, answered %+v", seed, g, req, resv)
						return
					}
					held[g] = append(held[g], resv)
					ids[g] = append(ids[g], resv.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[ID]int)
	for g := range ids {
		for _, id := range ids[g] {
			if prev, dup := seen[id]; dup {
				t.Fatalf("seed %d: id %#x answered to callers %d and %d", seed, uint64(id), prev, g)
			}
			seen[id] = g
		}
	}
	var wantActive int
	var wantArea int64
	wantTenant := make(map[string]int64)
	for g := range held {
		wantActive += len(held[g])
		for _, resv := range held[g] {
			area := int64(resv.Dur) * int64(resv.Procs)
			wantArea += area
			wantTenant[tenants[g%len(tenants)]] += area
		}
	}
	var gotActive int
	var gotArea int64
	for _, st := range s.Stats() {
		gotActive += st.Active
		gotArea += st.CommittedArea
	}
	if gotActive != wantActive || gotArea != wantArea {
		t.Fatalf("seed %d: books disagree with callers: active %d vs %d, area %d vs %d",
			seed, gotActive, wantActive, gotArea, wantArea)
	}
	totals, err := s.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tenants {
		if u := reg.Usage(name); u.Used != wantTenant[name] || totals[name].CommittedArea != wantTenant[name] {
			t.Errorf("seed %d: tenant %s holds %d; registry says %d, shard books %d",
				seed, name, wantTenant[name], u.Used, totals[name].CommittedArea)
		}
	}
	for _, d := range s.QueueDepths() {
		if d != 0 {
			t.Errorf("seed %d: queue depths %v after quiesce", seed, s.QueueDepths())
			break
		}
	}
}

// TestCombineCloseRace closes a durable service under mixed traffic:
// Close must return, every call must come back with a real answer or
// ErrClosed, and every call after Close gets ErrClosed.
func TestCombineCloseRace(t *testing.T) {
	const (
		m       = 32
		callers = 12
	)
	s, err := New(Config{
		Shards: 3, M: m, Batch: 4,
		WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone},
	})
	skipNoLog(t, err)
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(23, uint64(g))
			var last Reservation
			var holding bool
			for {
				var err error
				switch {
				case holding && r.Bool(0.4):
					err = s.Cancel(last.ID)
					holding = false
				case r.Bool(0.2):
					_, err = s.Query(core.Time(r.Int63n(1 << 20)))
				default:
					q, dur := r.IntRange(1, m), core.Time(1+g+callers*r.Intn(8))
					last, err = s.Admit(Request{Ready: core.Time(r.Int63n(1 << 20)), Q: q, Dur: dur, Deadline: NoDeadline})
					holding = err == nil
					if holding && (last.Procs != q || last.Dur != dur) {
						t.Errorf("torn reservation %+v for q=%d dur=%v", last, q, dur)
						return
					}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("caller %d: %v, want an answer or ErrClosed", g, err)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	for served.Load() < 200 { // traffic is flowing on every kind of op
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for _, c := range []chan struct{}{closed, done} {
		select {
		case <-c:
		case <-time.After(30 * time.Second):
			t.Fatal("Close or a caller still blocked after 30s")
		}
	}
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Query(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	// Admissions that met the closing shards mid-walk came back with
	// ErrClosed; none may have left its area behind.
	noneInFlight(t, s, "closed under traffic")
}

// TestCombineTenureBounded holds the first combiner's turn open while
// 3×Batch callers queue behind it, then lets go: the first combiner must
// be back with its caller after serving at most Batch operations — the
// role passes on rather than one caller working off everyone's backlog —
// and every queued caller is still answered. Once Batch operations have
// been served the hook stalls whoever starts another turn until the first
// caller is back, so what that caller reads on its way out is exactly
// what it served, and a combiner that overstays stalls itself.
func TestCombineTenureBounded(t *testing.T) {
	const batch = 4
	release, firstBack := make(chan struct{}), make(chan struct{})
	var turns atomic.Int64
	var s *Service
	s = mustNew(t, Config{M: 8, Batch: batch, turnHook: func(int) {
		if turns.Add(1) == 1 {
			<-release
		} else if s.Stats()[0].Ops >= batch {
			<-firstBack
		}
	}})
	first := make(chan uint64, 1)
	go func() {
		if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
			t.Errorf("first caller: %v", err)
		}
		first <- s.Stats()[0].Ops
	}()
	for turns.Load() == 0 { // the first caller is the combiner, inside its turn
		runtime.Gosched()
	}
	var wg sync.WaitGroup
	for i := 0; i < 3*batch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
				t.Errorf("queued caller: %v", err)
			}
		}()
	}
	for s.QueueDepths()[0] < 3*batch {
		runtime.Gosched()
	}
	close(release)
	select {
	case ops := <-first:
		if ops > batch {
			t.Errorf("first combiner served %d operations before returning, want <= Batch = %d", ops, batch)
		}
		close(firstBack)
	case <-time.After(30 * time.Second):
		close(firstBack)
		t.Fatal("first combiner still serving after Batch operations")
	}
	wg.Wait()
	if st := s.Stats()[0]; st.Admitted != 3*batch+1 {
		t.Errorf("admitted %d, want %d", st.Admitted, 3*batch+1)
	}
}

// TestCombineNoShardGoroutines: a shard is data, not a goroutine.
func TestCombineNoShardGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := mustNew(t, Config{Shards: 64, M: 8})
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("64 shards took %d goroutines (%d → %d), want none per shard", after-before, before, after)
	}
}
