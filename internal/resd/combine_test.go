package resd

import (
	"errors"
	"math"
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
// between callers, and the goroutine count itself. The TestLockPath* tests
// cover the other way a call is served, under the shard's lock on a shard
// whose turns end in no fsync, and the hand-over between the two when a
// log fails. CI runs both under -race -count=5 at GOMAXPROCS 1 and 2.

// TestCombineOwnAnswer is a seeded stress — callers × shards, admit,
// cancel and query, quotas tight enough for one tenant that its refusals
// cross the combiner beside admissions, the WAL fsyncing so combiners
// yield for group commits — in which every call must get exactly its own
// answer: each caller asks only for durations congruent to its own index,
// so an answer or refusal delivered to the wrong slot shows as a wrong Dur
// or Procs, a cancel of a held ID must succeed, and no ID is handed out
// twice. After quiesce the shards' books and the quota ledger must hold
// exactly what the callers still hold.
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
	// c's budget is ≈ 20 000 processor·ticks, a fraction of what its
	// callers ask for; a and b never reach theirs.
	reg := mustRegistry(t, tenant.PrefixCapacity(shards, m, 0, horizon), tenant.Spec{
		Tenants: []tenant.TenantSpec{
			{Name: "a", Share: 0.6}, {Name: "b", Share: 0.3}, {Name: "c", Share: 0.0002},
		},
	})
	s := mustNew(t, Config{
		Shards: shards, M: m, Batch: 4, Quotas: reg,
		WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncBatch, SnapEvery: 500},
	})
	held := make([][]Reservation, callers)
	ids := make([][]ID, callers)
	var refused atomic.Int64
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
					var ref *Refusal
					var why *tenant.QuotaError
					switch {
					case errors.As(err, &ref) && errors.As(err, &why):
						if ref.Q != req.Q || ref.Dur != req.Dur || why.Name != req.Tenant || why.Area != int64(req.Q)*int64(req.Dur) {
							t.Errorf("seed %d caller %d: asked %+v, refused %+v (%+v)", seed, g, req, ref, why)
							return
						}
						refused.Add(1)
						continue
					case err != nil:
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
	if refused.Load() == 0 {
		t.Fatalf("seed %d: no quota refusals crossed the combiner — the budgets never bound", seed)
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
}

// TestCombineTenureBounded holds the first combiner's turn open on a
// shard that fsyncs while 3×Batch callers queue behind it, then lets go:
// the first combiner must be back with its caller after serving at most
// Batch operations — the role passes on rather than one caller working off
// everyone's backlog — and every queued caller is still answered. The
// hook stalls every turn after the first until the first caller is back,
// so what that caller reads on its way out is exactly what it served (its
// heir's turn cannot publish first and be counted as its own), and a
// combiner that overstays stalls itself. (Without an fsync no caller
// serves another; see TestLockPathServesOneCallPerTurn.)
func TestCombineTenureBounded(t *testing.T) {
	const batch = 4
	release, firstBack := make(chan struct{}), make(chan struct{})
	var turns atomic.Int64
	s := mustNew(t, Config{M: 8, Batch: batch, WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncBatch}, turnHook: func(int) {
		if turns.Add(1) == 1 {
			<-release
		} else {
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

// lockPathStress runs callers goroutines of ops mixed calls each — admit
// of up to half the machine, cancel of a held reservation, query —
// against s, checking every answer is the caller's own, and returns what
// each caller still holds and every id it was handed.
func lockPathStress(t *testing.T, s *Service, seed uint64, callers, ops int) (held [][]Reservation, ids []ID) {
	t.Helper()
	const horizon = 1 << 20
	m := s.cfg.M
	held = make([][]Reservation, callers)
	got := make([][]ID, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(seed, uint64(g))
			for i := 0; i < ops; i++ {
				switch {
				case r.Bool(0.3) && len(held[g]) > 0:
					k := r.Intn(len(held[g]))
					id := held[g][k].ID
					held[g] = append(held[g][:k], held[g][k+1:]...)
					if err := s.Cancel(id); err != nil {
						t.Errorf("seed %d caller %d: cancel of held %#x: %v", seed, g, uint64(id), err)
						return
					}
				case r.Bool(0.15):
					if _, err := s.Query(core.Time(r.Int63n(horizon))); err != nil {
						t.Errorf("seed %d caller %d: query: %v", seed, g, err)
						return
					}
				default:
					q, dur := r.IntRange(1, m/2), core.Time(1+g+callers*r.Intn(8))
					resv, err := s.Admit(Request{Ready: core.Time(r.Int63n(horizon)), Q: q, Dur: dur, Deadline: NoDeadline})
					if err != nil || resv.Procs != q || resv.Dur != dur {
						t.Errorf("seed %d caller %d: asked q=%d dur=%v, answered %+v, %v", seed, g, q, dur, resv, err)
						return
					}
					held[g] = append(held[g], resv)
					got[g] = append(got[g], resv.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		ids = append(ids, got[g]...)
	}
	return held, ids
}

// checkHeld fails unless the shards' books hold exactly what the callers
// do, no id was handed out twice, and no caller is counted as waiting.
func checkHeld(t *testing.T, s *Service, held [][]Reservation, ids []ID) {
	t.Helper()
	seen := make(map[ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %#x handed out twice", uint64(id))
		}
		seen[id] = true
	}
	var wantActive int
	var wantArea int64
	for g := range held {
		wantActive += len(held[g])
		for _, r := range held[g] {
			wantArea += int64(r.Dur) * int64(r.Procs)
		}
	}
	var gotActive int
	var gotArea int64
	for _, st := range s.Stats() {
		gotActive += st.Active
		gotArea += st.CommittedArea
	}
	if gotActive != wantActive || gotArea != wantArea {
		t.Errorf("books disagree with callers: active %d vs %d, area %d vs %d", gotActive, wantActive, gotArea, wantArea)
	}
	for _, d := range s.QueueDepths() {
		if d != 0 {
			t.Errorf("queue depths %v after quiesce", s.QueueDepths())
			break
		}
	}
}

// TestLockPathServesOneCallPerTurn: on shards whose turns end in no fsync
// — no log, or one that never fsyncs — every call is a turn of its own,
// served by its caller under the shard's lock, so after a concurrent
// stress Batches equals Ops on every shard. Under SyncBatch the same
// stress group-commits: some turn serves more than one call.
func TestLockPathServesOneCallPerTurn(t *testing.T) {
	const seed, callers, ops = 29, 8, 300
	for _, mode := range []wal.SyncMode{"", wal.SyncNone, wal.SyncBatch} {
		name := "nolog"
		if mode != "" {
			name = string(mode)
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2, M: 32}
			n := ops
			if mode != "" {
				cfg.WAL = &wal.Options{Dir: t.TempDir(), Sync: mode}
			}
			if mode == wal.SyncBatch {
				n = ops / 3 // every turn fsyncs
			}
			s := mustNew(t, cfg)
			held, ids := lockPathStress(t, s, seed, callers, n)
			if t.Failed() {
				return
			}
			checkHeld(t, s, held, ids)
			var batches, served uint64
			for i, st := range s.Stats() {
				batches += st.Batches
				served += st.Ops
				if mode != wal.SyncBatch && st.Batches != st.Ops {
					t.Errorf("seed %d shard %d: %d turns for %d operations, want one each", seed, i, st.Batches, st.Ops)
				}
			}
			if mode == wal.SyncBatch && served <= batches {
				t.Errorf("seed %d: %d operations in %d turns under SyncBatch, want some shared", seed, served, batches)
			}
		})
	}
}

// TestLockPathLogFailsUnderTraffic fails shard 0's log from inside a
// turn while callers are queued behind its combiner: the shard stops
// fsyncing mid-turn, hands the role on until its queue is empty, and from
// then on serves under its lock. Every call is answered once, no id is
// handed out twice, and a serial caller's turns, which ran with the lock
// free while the log fsynced, run with it held afterwards.
func TestLockPathLogFailsUnderTraffic(t *testing.T) {
	const seed, callers, ops, failAt = 31, 8, 120, 20
	var s *Service
	var turns, locked atomic.Int64
	var probe atomic.Bool
	s = mustNew(t, Config{M: 32, Batch: 4, WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncBatch},
		turnHook: func(int) {
			sh := s.shards[0]
			if probe.Load() {
				if sh.mu.TryLock() {
					sh.mu.Unlock()
				} else {
					locked.Add(1)
				}
				return
			}
			if turns.Add(1) == failAt {
				for give := time.Now().Add(10 * time.Second); sh.depth.Load() == 0 && time.Now().Before(give); {
					runtime.Gosched()
				}
				if sh.depth.Load() == 0 {
					t.Error("no caller queued behind the failing turn")
				}
				sh.walFail("commit", errors.New("injected"))
			}
		}})
	serial := func(n int) {
		t.Helper()
		probe.Store(true)
		defer probe.Store(false)
		locked.Store(0)
		for i := 0; i < n; i++ {
			r, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline})
			if err == nil {
				err = s.Cancel(r.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	serial(5)
	if n := locked.Load(); n != 0 {
		t.Fatalf("%d of 10 turns held the lock while the log fsynced", n)
	}
	held, ids := lockPathStress(t, s, seed, callers, ops)
	if t.Failed() {
		return
	}
	checkHeld(t, s, held, ids)
	sh := s.shards[0]
	if n := sh.walFailed.Load(); n != 1 {
		t.Fatalf("walFailed = %d, want 1", n)
	}
	if sh.syncs.Load() {
		t.Fatal("the failed log still fsyncs")
	}
	before := s.Stats()[0]
	serial(5)
	if n := locked.Load(); n != 10 {
		t.Errorf("%d of 10 turns after the failure held the lock, want all", n)
	}
	if after := s.Stats()[0]; after.Batches-before.Batches != after.Ops-before.Ops {
		t.Errorf("after the failure: %d turns for %d operations", after.Batches-before.Batches, after.Ops-before.Ops)
	}
}

// TestLockPathWalkWaitsOnFirstRanked: with every shard's lock held, the
// walk has nowhere to go and waits for the first-ranked shard, blocked on
// its lock rather than spinning over the held ones or giving up, and is
// served there once the holders let go. Two shards, the first lighter;
// callers A and B are held inside a turn on each.
func TestLockPathWalkWaitsOnFirstRanked(t *testing.T) {
	var holds atomic.Int64 // how many more turns the hook holds
	entered, release := make(chan int, 2), make(chan struct{})
	s := mustNew(t, Config{Shards: 2, M: 8, turnHook: func(shard int) {
		if holds.Add(-1) >= 0 {
			entered <- shard
			<-release
		}
	}})
	admit := func(dur core.Time, done chan<- Reservation) {
		r, err := s.Admit(Request{Q: 1, Dur: dur, Deadline: NoDeadline})
		if err != nil {
			t.Errorf("admit of %v: %v", dur, err)
		}
		done <- r
	}
	setup := make(chan Reservation, 2)
	admit(10, setup)
	admit(12, setup)
	light, heavy := (<-setup).Shard, (<-setup).Shard
	if light == heavy {
		t.Fatalf("both setup admissions on shard %d", light)
	}
	holds.Store(2)
	aDone, bDone, cDone := make(chan Reservation, 1), make(chan Reservation, 1), make(chan Reservation, 1)
	for _, c := range []chan Reservation{aDone, bDone} {
		go admit(5, c)
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			close(release)
			t.Fatal("a holder never reached its turn")
		}
	}
	go admit(5, cDone)
	for give := time.Now().Add(30 * time.Second); s.QueueDepths()[light] == 0 && time.Now().Before(give); {
		runtime.Gosched()
	}
	if d := s.QueueDepths(); d[light] != 1 || d[heavy] != 0 {
		t.Errorf("queue depths %v with both shards held, want caller C waiting on shard %d alone", d, light)
	}
	select {
	case r := <-cDone:
		t.Errorf("caller C came back (%+v) while both shards were held", r)
	default:
	}
	close(release)
	if a, b := <-aDone, <-bDone; a.Shard != light || b.Shard != heavy {
		t.Errorf("holders admitted on shards %d and %d, want %d and %d", a.Shard, b.Shard, light, heavy)
	}
	if c := <-cDone; c.Shard != light {
		t.Errorf("caller C admitted on shard %d, want the first-ranked %d", c.Shard, light)
	}
}

// TestLockPathWalkStaysBalanced: passing over held shards must not undo
// the rank. 16 callers admit and cancel on 4 shards of 256 processors;
// every answer is checked against its request, and at quiescence the
// heaviest shard's committed area is at most 1.5 times the lightest's.
func TestLockPathWalkStaysBalanced(t *testing.T) {
	const shards, callers, ops, bound = 4, 16, 400, 1.5
	seed := uint64(time.Now().UnixNano())
	s := mustNew(t, Config{Shards: shards, M: 256})
	held, ids := lockPathStress(t, s, seed, callers, ops)
	if t.Failed() {
		t.Fatalf("seed %d", seed)
	}
	checkHeld(t, s, held, ids)
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, st := range s.Stats() {
		lo, hi = min(lo, st.CommittedArea), max(hi, st.CommittedArea)
	}
	if lo <= 0 || float64(hi) > bound*float64(lo) {
		t.Errorf("seed %d: committed area ranges %d..%d over %d shards, want max/min <= %v", seed, lo, hi, shards, bound)
	}
}
