package resd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tenant"
	"repro/internal/workload"
)

func mustRegistry(t *testing.T, capacity int64, spec tenant.Spec) *tenant.Registry {
	t.Helper()
	r, err := tenant.New(capacity, spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReserveForChargesAndReleasesQuota(t *testing.T) {
	// m=8, α=0: the whole machine is reservable. Tenant "t" owns 10% of a
	// 8×100 capacity = 80 processor·ticks.
	reg := mustRegistry(t, 800, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.1}}})
	s := mustNew(t, Config{M: 8, Quotas: reg})
	r1, err := s.Admit(Request{Tenant: "t", Q: 8, Dur: 10, Deadline: NoDeadline}) // area 80: exactly the budget
	if err != nil {
		t.Fatal(err)
	}
	if u := reg.Usage("t"); u.Used != 80 || u.Inflight != 1 {
		t.Fatalf("usage after admit = %+v", u)
	}
	if _, err := s.Admit(Request{Tenant: "t", Q: 1, Dur: 1, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-budget err = %v, want ErrQuota", err)
	}
	// ErrQuota and tenant.ErrQuota are the same sentinel.
	if _, err := s.Admit(Request{Tenant: "t", Q: 1, Dur: 1, Deadline: NoDeadline}); !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("errors.Is(err, tenant.ErrQuota) failed: %v", err)
	}
	st := s.Stats()[0]
	if st.RejectedQuota != 2 || st.Rejected != 0 || st.RejectedDeadline != 0 {
		t.Fatalf("stats after quota rejections: %+v", st)
	}
	// Cancel returns the budget.
	if err := s.Cancel(r1.ID); err != nil {
		t.Fatal(err)
	}
	if u := reg.Usage("t"); u.Used != 0 || u.Inflight != 0 {
		t.Fatalf("usage after cancel = %+v", u)
	}
	if _, err := s.Admit(Request{Tenant: "t", Q: 8, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatalf("re-reserve after cancel: %v", err)
	}
	// Another tenant is unaffected throughout.
	if _, err := s.Admit(Request{Tenant: "other", Q: 8, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
}

func TestQuotaRejectionShortCircuitsShardWalk(t *testing.T) {
	// 4 idle shards: a quota rejection is global, so it is booked on exactly
	// one shard (one RejectedQuota in total), unlike α and deadline
	// rejections which walk on.
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.001}}})
	s := mustNew(t, Config{Shards: 4, M: 8, Quotas: reg})
	if _, err := s.Admit(Request{Tenant: "t", Q: 4, Dur: 10, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	var total uint64
	for _, st := range s.Stats() {
		total += st.RejectedQuota
	}
	if total != 1 {
		t.Fatalf("RejectedQuota across shards = %d, want 1 (short-circuit)", total)
	}
	if u := reg.Usage("t"); u.Rejected != 1 || u.Used != 0 {
		t.Fatalf("registry after rejection: %+v", u)
	}
}

func TestQuotaCheckRunsAfterAlphaAndDeadline(t *testing.T) {
	// A request that α-rejects or deadline-rejects must not burn budget
	// and must not count as a quota rejection.
	reg := mustRegistry(t, 1<<20, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.5}}})
	s := mustNew(t, Config{M: 8, Alpha: 0.5, Quotas: reg})
	if _, err := s.Admit(Request{Tenant: "t", Q: 5, Dur: 10, Deadline: NoDeadline}); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("α rejection err = %v", err)
	}
	if _, err := s.Admit(Request{Q: 4, Dur: 100, Deadline: NoDeadline}); err != nil { // default tenant holds [0,100)
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Tenant: "t", Q: 4, Dur: 10, Deadline: 50}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline rejection err = %v", err)
	}
	if u := reg.Usage("t"); u.Used != 0 || u.Rejected != 0 {
		t.Fatalf("budget burnt by non-quota rejections: %+v", u)
	}
}

// TestQuotaDoorTakesNoTurn: a request the budget already refuses is
// refused by Admit before any shard is asked. No shard serves a turn for
// it, the registry counts one refusal and charges nothing, and the
// refusal is booked on the shard placement ranked first.
func TestQuotaDoorTakesNoTurn(t *testing.T) {
	// "t" owns 5% of 1000: a budget of 50.
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.05}}})
	s := mustNew(t, Config{Shards: 4, M: 8, Quotas: reg})
	// Serial least-loaded routing: the default tenant's 10 lands on shard
	// 0 and t's 20 on shard 1, so shard 2 is ranked first from here on.
	if _, err := s.Admit(Request{Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Tenant: "t", Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	_, err := s.Admit(Request{Tenant: "t", Q: 4, Dur: 10, Deadline: NoDeadline}) // 40 > 50 − 20
	var ref *Refusal
	if !errors.As(err, &ref) || ref.Kind != ErrQuota || ref.Shard != 2 {
		t.Fatalf("over-budget err = %#v, want a quota *Refusal booked on shard 2", err)
	}
	var why *tenant.QuotaError
	if !errors.As(err, &why) || why.Name != "t" || why.Used != 20 || why.Budget != 50 || why.Area != 40 {
		t.Fatalf("quota figures = %+v, want t used 20 of 50 with area 40", why)
	}
	for i, st := range s.Stats() {
		if st.Batches != before[i].Batches || st.Ops != before[i].Ops {
			t.Errorf("shard %d served a turn for a door refusal: %+v → %+v", i, before[i], st)
		}
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if st.RejectedQuota != want {
			t.Errorf("shard %d RejectedQuota = %d, want %d", i, st.RejectedQuota, want)
		}
	}
	if u := reg.Usage("t"); u.Rejected != 1 || u.Used != 20 || u.Inflight != 1 {
		t.Fatalf("registry after door refusal: %+v", u)
	}
}

// TestQuotaChargeRefusesWhatDoorPassed: the door reads the budget, the
// charge spends it. Two requests of one tenant, with budget for one, both
// pass the door while the shard is held and queue behind its turn; the
// charge admits exactly one and refuses the other with the winner's area
// on the books.
func TestQuotaChargeRefusesWhatDoorPassed(t *testing.T) {
	reg := mustRegistry(t, 800, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.1}}}) // budget 80
	release := make(chan struct{})
	var turns atomic.Int64
	s := mustNew(t, Config{M: 8, Quotas: reg, turnHook: func(int) {
		if turns.Add(1) == 1 {
			<-release
		}
	}})
	go func() { // the default tenant's admission holds the shard's first turn
		if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	for turns.Load() == 0 {
		runtime.Gosched()
	}
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := s.Admit(Request{Tenant: "t", Q: 8, Dur: 10, Deadline: NoDeadline}) // area 80 each
			errs <- err
		}()
	}
	for s.QueueDepths()[0] < 2 { // both are past the door
		runtime.Gosched()
	}
	if u := reg.Usage("t"); u.Used != 0 || u.Rejected != 0 {
		t.Fatalf("the door charged or refused: %+v", u)
	}
	close(release)
	var admitted, refused int
	for range 2 {
		err := <-errs
		var why *tenant.QuotaError
		switch {
		case err == nil:
			admitted++
		case errors.As(err, &why) && why.Used == 80 && why.Area == 80:
			refused++
		default:
			t.Fatalf("err = %v, want nil or a charge refusal with 80 used", err)
		}
	}
	if admitted != 1 || refused != 1 {
		t.Fatalf("%d admitted, %d refused; want one of each", admitted, refused)
	}
	if u := reg.Usage("t"); u.Used != 80 || u.Inflight != 1 || u.Rejected != 1 {
		t.Fatalf("registry after the race: %+v", u)
	}
	if st := s.Stats()[0]; st.RejectedQuota != 1 || st.Admitted != 2 {
		t.Fatalf("shard after the race: %+v", st)
	}
}

// TestQuotaRefusalBeforeDeadline: the door asks before any shard does, so
// a request that is over budget and would also miss its deadline is
// refused for the quota.
func TestQuotaRefusalBeforeDeadline(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.01}}}) // budget 10
	s := mustNew(t, Config{M: 8, Quotas: reg})
	if _, err := s.Admit(Request{Q: 8, Dur: 100, Deadline: NoDeadline}); err != nil { // default tenant holds [0,100)
		t.Fatal(err)
	}
	_, err := s.Admit(Request{Tenant: "t", Q: 4, Dur: 10, Deadline: 50})
	if !errors.Is(err, ErrQuota) || errors.Is(err, ErrDeadline) {
		t.Fatalf("over budget and late: err = %v, want ErrQuota", err)
	}
	if st := s.Stats()[0]; st.RejectedQuota != 1 || st.RejectedDeadline != 0 {
		t.Fatalf("stats = %+v, want one quota refusal and no deadline one", st)
	}
}

// TestEndlessAdmissionCannotCreditQuota: the area of an endless request is
// more than any budget, not a product that wraps negative. As a wrapping
// product, Q=2 for core.Infinity ticks comes to −2, which passes a
// used + area > budget check and leaves the tenant with a larger budget
// than it was given.
func TestEndlessAdmissionCannotCreditQuota(t *testing.T) {
	reg := mustRegistry(t, 800, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.1}}}) // budget 80
	s := mustNew(t, Config{M: 8, Quotas: reg})
	for _, q := range []int{1, 2, 3, 8} {
		if _, err := s.Admit(Request{Tenant: "t", Q: q, Dur: core.Infinity, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
			t.Fatalf("endless q=%d: err = %v, want ErrQuota", q, err)
		}
	}
	if u := reg.Usage("t"); u.Used != 0 || u.Inflight != 0 || u.Rejected != 4 {
		t.Fatalf("ledger after endless requests: %+v", u)
	}
	if st := s.Stats()[0]; st.CommittedArea != 0 || st.Active != 0 {
		t.Fatalf("shard after endless requests: %+v", st)
	}
	// Once the tenant holds some of its budget, the charge must not wrap
	// either: the room left is compared, not the sum.
	if _, err := s.Admit(Request{Tenant: "t", Q: 1, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Tenant: "t", Q: 1, Dur: core.Infinity, Deadline: NoDeadline}); !errors.Is(err, ErrQuota) {
		t.Fatalf("endless after 10 used: err = %v, want ErrQuota", err)
	}
	if u := reg.Usage("t"); u.Used != 10 {
		t.Fatalf("ledger after endless request on a used budget: %+v", u)
	}
}

// shardTenantStats reads one shard's tenant books inside one of its turns.
func shardTenantStats(t *testing.T, s *Service, shard int) map[string]TenantStats {
	t.Helper()
	resp, err := s.shards[shard].do(request{kind: opTenantStats}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]TenantStats, len(resp.tstats))
	for _, row := range resp.tstats {
		out[row.name] = row.TenantStats
	}
	return out
}

func TestTenantStatsPerShard(t *testing.T) {
	reg := mustRegistry(t, 1<<20, tenant.Spec{})
	s := mustNew(t, Config{Shards: 2, M: 8, Quotas: reg})
	// Serial least-loaded routing, every request of area 20: a's three go
	// to shards 0, 1, 0 (a tie goes to the lower index), b's to shard 1,
	// and the cancel takes a's first back off shard 0.
	var held []Reservation
	for i := 0; i < 3; i++ {
		r, err := s.Admit(Request{Tenant: "a", Q: 2, Dur: 10, Deadline: NoDeadline})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	if _, err := s.Admit(Request{Tenant: "b", Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(held[0].ID); err != nil {
		t.Fatal(err)
	}
	st0 := shardTenantStats(t, s, 0)
	if a := st0["a"]; a.Active != 1 || a.Admitted != 2 || a.Cancelled != 1 || a.CommittedArea != 20 {
		t.Fatalf("shard 0 tenant a stats = %+v", a)
	}
	if _, ok := st0["b"]; ok {
		t.Fatalf("shard 0 keeps a book for b: %+v", st0)
	}
	st1 := shardTenantStats(t, s, 1)
	if a := st1["a"]; a.Active != 1 || a.Admitted != 1 || a.Cancelled != 0 || a.CommittedArea != 20 {
		t.Fatalf("shard 1 tenant a stats = %+v", a)
	}
	if b := st1["b"]; b.Active != 1 || b.Admitted != 1 || b.CommittedArea != 20 {
		t.Fatalf("shard 1 tenant b stats = %+v", b)
	}
	tot, err := s.TenantTotals()
	if err != nil {
		t.Fatal(err)
	}
	if tot["a"].Active != 2 || tot["b"].Active != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestTenantQuotaStressConservation is the acceptance-criteria stress:
// many goroutines hammer a sharded quota-enforcing service as competing
// tenants while a monitor concurrently asserts that no tenant's admitted
// area ever exceeds its budgeted share of the α-prefix. Afterwards the
// three ledgers — the clients' held reservations, the registry's
// lock-free accounts, and the shards' loop-owned per-tenant books — must
// agree exactly, and a full drain must return every one of them to zero
// and every shard index to the pristine constant-m profile. Run under
// -race this also covers the cross-goroutine quota CAS path from inside
// the shard loops.
func TestTenantQuotaStressConservation(t *testing.T) {
	const (
		shards     = 4
		m          = 64
		alpha      = 0.25
		horizon    = 100000
		goroutines = 8
		opsPerG    = 300
	)
	capacity := tenant.PrefixCapacity(shards, m, alpha, horizon)
	tenants := []string{"etl", "web", "adhoc", "lab"}
	reg := mustRegistry(t, capacity, tenant.Spec{
		Tenants: []tenant.TenantSpec{
			{Name: "etl", Share: 0.2},
			{Name: "web", Share: 0.2},
			// Deliberately tiny: this tenant must hit ErrQuota under load.
			{Name: "adhoc", Share: 0.00001},
			{Name: "lab", Share: 0.25},
		},
	})
	s := mustNew(t, Config{
		Shards: shards, M: m, Alpha: alpha, Batch: 16, Quotas: reg,
	})

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
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
			// Yield between sweeps: a busy-spinning monitor would starve
			// the shard loops' own yield-then-drain batching.
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
			r := rng.NewStream(13, uint64(g))
			for i := 0; i < opsPerG; i++ {
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
	monitor.Wait()
	if t.Failed() {
		return
	}

	// The tiny tenant must actually have been squeezed, or the stress
	// proved nothing.
	var totalQuotaRejects int
	for _, n := range quotaRejects {
		totalQuotaRejects += n
	}
	if totalQuotaRejects == 0 {
		t.Fatal("no quota rejections under stress — budgets never bound, tune the test")
	}

	// Ledger agreement: clients vs registry vs shard books.
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
	}

	// Drain and require pristine state everywhere.
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

// TestPrefixCapacityMatchesServiceFloor is the drift guard for the
// capacity formula every quota caller shares: tenant.PrefixCapacity must
// compute the reservable width with exactly the α-floor rounding the
// service enforces, for any α and m. If resd ever changes its floor,
// this fails before the budgets silently diverge from the prefix.
func TestPrefixCapacityMatchesServiceFloor(t *testing.T) {
	for _, m := range []int{1, 7, 8, 64, 255, 1000} {
		for _, alpha := range []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.99, 1} {
			s := mustNew(t, Config{M: m, Alpha: alpha})
			want := int64(m-s.Floor()) * 10 // shards=1, horizon=10
			if got := tenant.PrefixCapacity(1, m, alpha, 10); got != want {
				t.Errorf("PrefixCapacity(1, %d, %v, 10) = %d, service floor %d implies %d",
					m, alpha, got, s.Floor(), want)
			}
		}
	}
}

// TestShardTenantBooksBounded pins the per-shard cap on tenant cells:
// names beyond tenant.MaxAccounts are booked in the OverflowTenant cell
// instead of growing the combiner-owned books without limit, and such a
// reservation still knows the name its quota was charged under — Cancel
// releases that account, the snapshot lists that name.
func TestShardTenantBooksBounded(t *testing.T) {
	reg := mustRegistry(t, 1<<40, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "known", Share: 0.5}}})
	s := mustNew(t, Config{M: 8, Quotas: reg})
	sh := s.shards[0]
	// Fill the shard's cells to the cap through the resolver itself (no
	// request is in flight, so the test may act as the combiner); doing
	// it by admission would fill the registry's accounts too, and the
	// fresh name below must keep an account of its own.
	for i := 0; i < tenant.MaxAccounts; i++ {
		sh.cell(fmt.Sprintf("seed%d", i))
	}
	if c := sh.cell("seed5"); c.name != "seed5" || sh.cells[c.idx] != c {
		t.Fatalf("existing name resolved to cell %q at %d", c.name, c.idx)
	}
	if c := sh.cell("fresh"); c.name != OverflowTenant {
		t.Fatalf("fresh name past cap resolved to %q, want %q", c.name, OverflowTenant)
	}
	if n := len(sh.cells); n != tenant.MaxAccounts+1 {
		t.Fatalf("%d cells, want the cap plus the overflow cell", n)
	}

	r, err := s.Admit(Request{Tenant: "fresh", Q: 2, Dur: 5, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	ts := shardTenantStats(t, s, 0)
	if _, own := ts["fresh"]; own {
		t.Fatal("a name past the cap got a book of its own")
	}
	if o := ts[OverflowTenant]; o.Active != 1 || o.CommittedArea != 10 || o.Admitted != 1 {
		t.Fatalf("overflow book after admit = %+v", o)
	}
	if u := reg.Usage("fresh"); u.Used != 10 || u.Inflight != 1 {
		t.Fatalf("registry usage of the charged name after admit = %+v", u)
	}
	if snap := sh.snapshot(1); len(snap.Live) != 1 || snap.Live[0].Tenant != "fresh" {
		t.Fatalf("snapshot lists %+v, want the charged name", snap.Live)
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	if u := reg.Usage("fresh"); u.Used != 0 || u.Inflight != 0 || u.Cancelled != 1 {
		t.Fatalf("registry usage of the charged name after cancel = %+v", u)
	}
	if u := reg.Usage(OverflowTenant); u.Used != 0 || u.Cancelled != 0 {
		t.Fatalf("cancel touched the overflow book's name in the registry: %+v", u)
	}
	if n := len(sh.live.charged); n != 0 {
		t.Fatalf("%d charged names left after cancel", n)
	}
	ts = shardTenantStats(t, s, 0)
	if o := ts[OverflowTenant]; o.Active != 0 || o.CommittedArea != 0 || o.Cancelled != 1 {
		t.Fatalf("overflow book after cancel = %+v", o)
	}
}

// TestSerialReplayMatchesFCFSWithQuotas pins the no-regression guarantee
// of the acceptance criteria: a single tenant with a full budget replayed
// serially must land exactly on sched.FCFS's offline placements — the
// quota layer may not perturb placement, only gate it.
func TestSerialReplayMatchesFCFSWithQuotas(t *testing.T) {
	r := rng.New(20260729)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: 32, N: 150, MinRun: 5, MaxRun: 500, MaxWidthFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.Res = workload.ReservationStream(r.Split(), 32, 0.5, 12, 20000)
	t.Run("hard", func(t *testing.T) {
		want, err := sched.FCFS{Backend: "tree"}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		reg := mustRegistry(t, 1<<40, tenant.Spec{
			Mode:    "hard",
			Tenants: []tenant.TenantSpec{{Name: "solo", Share: 1}},
		})
		s := mustNew(t, Config{M: inst.M, Pre: inst.Res, Quotas: reg})
		ready := core.Time(0)
		for idx, j := range inst.Jobs {
			resv, err := s.Admit(Request{Tenant: "solo", Ready: ready, Q: j.Procs, Dur: j.Len, Deadline: NoDeadline})
			if err != nil {
				t.Fatalf("job %d: %v", idx, err)
			}
			if resv.Start != want.Start[idx] {
				t.Fatalf("job %d placed at %v, FCFS places it at %v", idx, resv.Start, want.Start[idx])
			}
			ready = resv.Start
		}
	})
}
