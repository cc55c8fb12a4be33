package resd

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rebal"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// TestRebalanceMovesLoad is the happy path: a first-fit hot spot on shard
// 0 is drained to shard 1, books and counters transfer, capacity is
// conserved, and the original reservation handles keep working — Cancel
// follows the migration.
func TestRebalanceMovesLoad(t *testing.T) {
	reg := mustRegistry(t, 1<<20, tenant.Spec{})
	s := mustNew(t, Config{
		Shards: 2, M: 8, Placement: "first-fit",
		RebalanceThreshold: 0.01, Quotas: reg,
	})
	var held []Reservation
	for i := 0; i < 4; i++ {
		r, err := s.Admit(Request{Tenant: "acme", Ready: 100, Q: 2, Dur: 10, Deadline: NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		if r.Shard != 0 {
			t.Fatalf("first-fit landed on shard %d", r.Shard)
		}
		held = append(held, r)
	}
	usedBefore := reg.Usage("acme").Used

	rep, err := s.Rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 2 || rep.Applied != 2 || rep.Aborted != 0 || rep.Skipped != 0 {
		t.Fatalf("report = %+v, want 2 planned and applied", rep)
	}
	if rep.Before != 1 || rep.After != 0 {
		t.Fatalf("imbalance %v → %v, want 1 → 0", rep.Before, rep.After)
	}
	st := s.Stats()
	if st[0].MigratedOut != 2 || st[1].MigratedIn != 2 || st[0].MigratedIn != 0 {
		t.Fatalf("migration counters: %+v", st)
	}
	if st[0].Active != 2 || st[1].Active != 2 || st[0].CommittedArea != 40 || st[1].CommittedArea != 40 {
		t.Fatalf("post-migration books: %+v", st)
	}
	// Capacity is really held on both shards at the reservations' window.
	free, err := s.Query(105)
	if err != nil {
		t.Fatal(err)
	}
	if free[0] != 4 || free[1] != 4 {
		t.Fatalf("Query(105) = %v, want [4 4]", free)
	}
	// Quota was transferred, not double-counted: the registry never moved.
	if used := reg.Usage("acme").Used; used != usedBefore {
		t.Fatalf("registry usage changed across migration: %d → %d", usedBefore, used)
	}
	ts1, err := s.TenantStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if ts1["acme"].MigratedIn != 2 || ts1["acme"].Active != 2 {
		t.Fatalf("target tenant books: %+v", ts1["acme"])
	}

	// Every original handle still cancels — including the migrated ones,
	// whose ID still names shard 0.
	for _, r := range held {
		if err := s.Cancel(r.ID); err != nil {
			t.Fatalf("cancel %#x after migration: %v", uint64(r.ID), err)
		}
	}
	if used := reg.Usage("acme").Used; used != 0 {
		t.Fatalf("registry not drained after cancels: %d", used)
	}
	for i := 0; i < 2; i++ {
		snap, err := s.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumSegments() != 1 || snap.AvailableAt(0) != 8 {
			t.Fatalf("shard %d not pristine after drain: %v", i, snap)
		}
	}
}

// TestRebalanceFrozenWindow pins the migratable-window policy: a
// reservation starting inside [now, now+Δ) is never moved, however
// lopsided the shards.
func TestRebalanceFrozenWindow(t *testing.T) {
	s := mustNew(t, Config{
		Shards: 2, M: 8, Placement: "first-fit",
		RebalanceThreshold: 0.01, RebalanceFreeze: 50,
	})
	rSoon, err := s.Admit(Request{Ready: 5, Q: 4, Dur: 10, Deadline: NoDeadline}) // starts at 5: frozen
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Ready: 500, Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil { // movable
		t.Fatal(err)
	}
	rep, err := s.Rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 {
		t.Fatalf("report = %+v, want exactly the movable reservation applied", rep)
	}
	// The frozen reservation stayed put on shard 0.
	free, err := s.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if free[0] != 4 || free[1] != 8 {
		t.Fatalf("Query(7) = %v: the frozen reservation moved", free)
	}
	if err := s.Cancel(rSoon.ID); err != nil {
		t.Fatal(err)
	}
	// With now pushed past both starts, nothing is movable at all.
	if _, err := s.Admit(Request{Ready: 600, Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Rebalance(580)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 0 || rep.Planned != 0 {
		t.Fatalf("frozen-window round still moved: %+v", rep)
	}
	if _, err := s.Rebalance(-1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Rebalance(-1) err = %v, want ErrBadRequest", err)
	}
}

// TestExecuteMoveSkipsFullTarget drives the executor against a target
// whose window is occupied: the tentative commit is refused, nothing
// moves, and the source copy stays fully owned by its shard.
func TestExecuteMoveSkipsFullTarget(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, M: 8, Placement: "first-fit"})
	x, err := s.Admit(Request{Ready: 100, Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// Fill shard 1's [100,110) window past the point where q=4 fits, going
	// through the shard directly (placement would route it to shard 0).
	if _, err := s.shards[1].do(request{kind: opReserve, tenant: tenant.DefaultTenant, ready: 100, q: 5, dur: 10, deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	applied, aborted, err := s.executeMove(rebal.Move{
		Resv: rebal.Resv{ID: uint64(x.ID), Start: x.Start, Dur: x.Dur, Procs: x.Procs, Tenant: tenant.DefaultTenant},
		From: 0, To: 1,
	})
	if err != nil || applied || aborted {
		t.Fatalf("executeMove = (%v, %v, %v), want skipped", applied, aborted, err)
	}
	if st := s.Stats(); st[0].MigratedOut != 0 || st[1].MigratedIn != 0 || st[0].Active != 1 {
		t.Fatalf("skipped move mutated state: %+v", st)
	}
	if err := s.Cancel(x.ID); err != nil {
		t.Fatalf("cancel after skipped move: %v", err)
	}
}

// TestExecuteMoveAbortsOnConcurrentCancel drives the rollback path: the
// reservation vanishes between planning and execution, so the tentative
// target copy must be rolled back without releasing quota twice and
// without leaving forwarding state behind.
func TestExecuteMoveAbortsOnConcurrentCancel(t *testing.T) {
	reg := mustRegistry(t, 1<<20, tenant.Spec{})
	s := mustNew(t, Config{Shards: 2, M: 8, Placement: "first-fit", Quotas: reg})
	x, err := s.Admit(Request{Tenant: "acme", Ready: 100, Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	mv := rebal.Move{
		Resv: rebal.Resv{ID: uint64(x.ID), Start: x.Start, Dur: x.Dur, Procs: x.Procs, Tenant: "acme"},
		From: 0, To: 1,
	}
	if err := s.Cancel(x.ID); err != nil { // the race, made deterministic
		t.Fatal(err)
	}
	applied, aborted, err := s.executeMove(mv)
	if err != nil || applied || !aborted {
		t.Fatalf("executeMove = (%v, %v, %v), want aborted", applied, aborted, err)
	}
	if used := reg.Usage("acme").Used; used != 0 {
		t.Fatalf("aborted move left quota charged: %d", used)
	}
	snap, err := s.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumSegments() != 1 || snap.AvailableAt(0) != 8 {
		t.Fatalf("aborted move left capacity on the target: %v", snap)
	}
	if err := s.Cancel(x.ID); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double cancel after aborted move err = %v, want ErrUnknownID", err)
	}
	if st := s.Stats(); st[1].MigratedIn != 0 || st[0].MigratedOut != 0 {
		t.Fatalf("aborted move counted as a migration: %+v", st)
	}
}

// TestBackgroundRebalancer checks the Config.RebalanceEvery wiring: the
// ticker goroutine drains a hot spot without any manual Rebalance call.
func TestBackgroundRebalancer(t *testing.T) {
	s := mustNew(t, Config{
		Shards: 2, M: 8, Placement: "first-fit",
		RebalanceEvery: time.Millisecond, RebalanceThreshold: 0.01,
	})
	for i := 0; i < 4; i++ {
		if _, err := s.Admit(Request{Ready: 100, Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st[1].MigratedIn >= 2 && st[0].Active == 2 && st[1].Active == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background rebalancer never drained the hot spot: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSerialReplayMatchesFCFSWithRebalancerConfigured extends the
// determinism bridge: with every rebalance knob set but the background
// balancer disabled, serial replay must still land bit-for-bit on
// sched.FCFS's offline placements — configuring rebalancing must not
// perturb admission, only migration (which never runs here).
func TestSerialReplayMatchesFCFSWithRebalancerConfigured(t *testing.T) {
	r := rng.New(20260729)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: 32, N: 150, MinRun: 5, MaxRun: 500, MaxWidthFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.Res = workload.ReservationStream(r.Split(), 32, 0.5, 12, 20000)
	want, err := sched.FCFS{Backend: "tree"}.Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{
		M: inst.M, Pre: inst.Res,
		RebalanceEvery: 0, RebalanceThreshold: 0.05, RebalanceFreeze: 100, RebalanceMaxMoves: 8,
	})
	ready := core.Time(0)
	for idx, j := range inst.Jobs {
		resv, err := s.Admit(Request{Ready: ready, Q: j.Procs, Dur: j.Len, Deadline: NoDeadline})
		if err != nil {
			t.Fatalf("job %d: %v", idx, err)
		}
		if resv.Start != want.Start[idx] {
			t.Fatalf("job %d placed at %v, FCFS places it at %v", idx, resv.Start, want.Start[idx])
		}
		ready = resv.Start
	}
}

// TestRebalanceStressConservation is the -race acceptance stress: many
// client goroutines hammer a first-fit (deliberately skew-piling) service
// while a concurrent rebalancer migrates reservations between shards the
// whole time. At quiescence the shard books must account for exactly what
// the clients hold, migrations must actually have happened, every held
// handle must still cancel (through the forwarding overlay), and a full
// drain must return every shard to the pristine constant-m profile with
// globally balanced admit/cancel/migrate ledgers.
func TestRebalanceStressConservation(t *testing.T) {
	const (
		shards     = 8
		m          = 64
		goroutines = 8
		opsPerG    = 300
		horizon    = 100000
	)
	for _, backend := range []string{"array", "tree"} {
		t.Run(backend, func(t *testing.T) {
			s := mustNew(t, Config{
				Shards: shards, M: m, Alpha: 0.25, Backend: backend,
				Placement: "first-fit", Batch: 16,
				RebalanceThreshold: 0.05, RebalanceMaxMoves: 64,
			})
			stop := make(chan struct{})
			var reb sync.WaitGroup
			reb.Add(1)
			go func() {
				defer reb.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Rebalance(0); err != nil {
						t.Errorf("rebalance: %v", err)
						return
					}
					runtime.Gosched()
				}
			}()

			held := make([][]Reservation, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.NewStream(31, uint64(g))
					for i := 0; i < opsPerG; i++ {
						if r.Bool(0.3) && len(held[g]) > 0 {
							k := r.Intn(len(held[g]))
							resv := held[g][k]
							held[g] = append(held[g][:k], held[g][k+1:]...)
							if err := s.Cancel(resv.ID); err != nil {
								t.Errorf("cancel %#x: %v", uint64(resv.ID), err)
								return
							}
							continue
						}
						ready := core.Time(r.Int63n(horizon))
						q := r.IntRange(1, m/4)
						dur := core.Time(r.Int63Range(1, 200))
						resv, err := s.Admit(Request{Ready: ready, Q: q, Dur: dur, Deadline: NoDeadline})
						if err != nil {
							t.Errorf("reserve: %v", err)
							return
						}
						held[g] = append(held[g], resv)
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			reb.Wait()
			if t.Failed() {
				return
			}

			var wantActive int
			var wantArea int64
			for g := range held {
				wantActive += len(held[g])
				for _, resv := range held[g] {
					wantArea += int64(resv.Dur) * int64(resv.Procs)
				}
			}
			var gotActive int
			var gotArea int64
			var migIn, migOut uint64
			for _, st := range s.Stats() {
				gotActive += st.Active
				gotArea += st.CommittedArea
				migIn += st.MigratedIn
				migOut += st.MigratedOut
			}
			if gotActive != wantActive || gotArea != wantArea {
				t.Fatalf("books disagree with clients: active %d vs %d, area %d vs %d",
					gotActive, wantActive, gotArea, wantArea)
			}
			if migIn != migOut {
				t.Fatalf("migration ledger unbalanced: in %d, out %d", migIn, migOut)
			}
			if migOut == 0 {
				t.Fatal("no migrations under a first-fit hot spot — the stress proved nothing")
			}

			for g := range held {
				for _, resv := range held[g] {
					if err := s.Cancel(resv.ID); err != nil {
						t.Fatalf("drain cancel %#x: %v", uint64(resv.ID), err)
					}
				}
			}
			var admitted, cancelled uint64
			for i, st := range s.Stats() {
				admitted += st.Admitted
				cancelled += st.Cancelled
				if st.Active != 0 || st.CommittedArea != 0 {
					t.Fatalf("shard %d books not drained: %+v", i, st)
				}
				snap, err := s.Snapshot(i)
				if err != nil {
					t.Fatal(err)
				}
				if snap.NumSegments() != 1 || snap.AvailableAt(0) != m {
					t.Fatalf("shard %d not pristine after drain: %v", i, snap)
				}
			}
			// Migration moves cancels to other shards, so the ledger only
			// balances globally — which it must, exactly.
			if admitted != cancelled {
				t.Fatalf("global ledger: admitted %d != cancelled %d", admitted, cancelled)
			}
		})
	}
}

// TestTenantQuotaStressMigration extends the three-way ledger agreement
// to cover migrations: competing tenants hammer a hard-mode service while
// the rebalancer migrates their reservations between shards, with a
// concurrent monitor asserting no tenant ever exceeds its budget. At the
// end the clients' held reservations, the registry's lock-free accounts
// and the shards' loop-owned books must agree exactly — migration moves
// per-shard books but may never create, lose or double-count a
// processor·tick of quota.
func TestTenantQuotaStressMigration(t *testing.T) {
	const (
		shards     = 4
		m          = 64
		alpha      = 0.25
		horizon    = 100000
		goroutines = 8
		opsPerG    = 250
	)
	capacity := tenant.PrefixCapacity(shards, m, alpha, horizon)
	tenants := []string{"etl", "web", "adhoc", "lab"}
	reg := mustRegistry(t, capacity, tenant.Spec{
		Tenants: []tenant.TenantSpec{
			{Name: "etl", Share: 0.3},
			{Name: "web", Share: 0.3},
			{Name: "adhoc", Share: 0.00001}, // must hit ErrQuota under load
			{Name: "lab", Share: 0.2},
		},
	})
	s := mustNew(t, Config{
		Shards: shards, M: m, Alpha: alpha,
		Placement: "first-fit", Batch: 16, Quotas: reg,
		RebalanceThreshold: 0.05, RebalanceMaxMoves: 64,
	})

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // rebalancer
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Rebalance(0); err != nil {
				t.Errorf("rebalance: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() { // budget monitor
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range tenants {
				if u := reg.Usage(name); u.Used > u.Budget {
					t.Errorf("tenant %s admitted area %d > budget %d", name, u.Used, u.Budget)
					return
				}
			}
			runtime.Gosched()
		}
	}()

	held := make([][]Reservation, goroutines)
	quotaRejects := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := tenants[g%len(tenants)]
			r := rng.NewStream(17, uint64(g))
			for i := 0; i < opsPerG; i++ {
				// A caller that finds its shard idle serves itself and never
				// parks, so on one processor each caller would run to the
				// end before the rebalancer got a round in: yield.
				runtime.Gosched()
				if r.Bool(0.25) && len(held[g]) > 0 {
					k := r.Intn(len(held[g]))
					resv := held[g][k]
					held[g] = append(held[g][:k], held[g][k+1:]...)
					if err := s.Cancel(resv.ID); err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
					continue
				}
				ready := core.Time(r.Int63n(horizon))
				q := r.IntRange(1, m/4)
				dur := core.Time(r.Int63Range(1, 200))
				resv, err := s.Admit(Request{Tenant: name, Ready: ready, Q: q, Dur: dur, Deadline: NoDeadline})
				switch {
				case err == nil:
					held[g] = append(held[g], resv)
				case errors.Is(err, ErrQuota):
					quotaRejects[g]++
				default:
					t.Errorf("reserve(%s): %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}

	var totalQuotaRejects int
	for _, n := range quotaRejects {
		totalQuotaRejects += n
	}
	if totalQuotaRejects == 0 {
		t.Fatal("no quota rejections under stress — budgets never bound, tune the test")
	}
	var migrations uint64
	for _, st := range s.Stats() {
		migrations += st.MigratedOut
	}
	if migrations == 0 {
		t.Fatal("no migrations under stress — the ledger test proved nothing")
	}

	wantArea := map[string]int64{}
	wantActive := map[string]int{}
	for g := range held {
		name := tenants[g%len(tenants)]
		for _, resv := range held[g] {
			wantArea[name] += int64(resv.Dur) * int64(resv.Procs)
			wantActive[name]++
		}
	}
	totals, err := s.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tenants {
		if u := reg.Usage(name); u.Used != wantArea[name] || int(u.Inflight) != wantActive[name] {
			t.Errorf("registry vs clients for %s: used %d inflight %d, want %d/%d",
				name, u.Used, u.Inflight, wantArea[name], wantActive[name])
		}
		ts := totals[name]
		if ts.CommittedArea != wantArea[name] || ts.Active != wantActive[name] {
			t.Errorf("shard books vs clients for %s: area %d active %d, want %d/%d",
				name, ts.CommittedArea, ts.Active, wantArea[name], wantActive[name])
		}
		if ts.MigratedIn != ts.MigratedOut {
			t.Errorf("tenant %s migration ledger unbalanced: in %d, out %d",
				name, ts.MigratedIn, ts.MigratedOut)
		}
	}

	for g := range held {
		for _, resv := range held[g] {
			if err := s.Cancel(resv.ID); err != nil {
				t.Fatalf("drain cancel: %v", err)
			}
		}
	}
	for _, name := range tenants {
		if u := reg.Usage(name); u.Used != 0 || u.Inflight != 0 {
			t.Errorf("tenant %s not drained: %+v", name, u)
		}
	}
	for i := 0; i < shards; i++ {
		snap, err := s.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumSegments() != 1 || snap.AvailableAt(0) != m {
			t.Fatalf("shard %d not pristine after drain: %v", i, snap)
		}
	}
}

// TestPressurePlacementSpreadsTenants pins the quota-aware placement
// policy: each tenant's own footprint is what routes it, so one tenant's
// pile-up never captures another tenant's placement.
func TestPressurePlacementSpreadsTenants(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, M: 8, Placement: "pressure"})
	if s.Placement() != "pressure" {
		t.Fatalf("placement = %q", s.Placement())
	}
	// Tenant a alternates shards: its own area is the primary key.
	r1, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Shard == r2.Shard {
		t.Fatalf("tenant a's reservations piled on shard %d", r1.Shard)
	}
	r3, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 30, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// a now holds area 20+60 on one side, 20 on the other; shard loads are
	// unequal. A fresh tenant b has no footprint anywhere, so the tie
	// breaks to the less-loaded shard — not wherever a went last.
	lighter := r1.Shard
	if r3.Shard == r1.Shard {
		lighter = r2.Shard
	}
	rb, err := s.Admit(Request{Tenant: "b", Q: 2, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Shard != lighter {
		t.Fatalf("tenant b routed to shard %d, want the lighter shard %d", rb.Shard, lighter)
	}
}
