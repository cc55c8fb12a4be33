package tenant

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func mustNew(t *testing.T, capacity int64, spec Spec) *Registry {
	t.Helper()
	r, err := New(capacity, spec)
	if err != nil {
		t.Fatalf("New(%d, %+v): %v", capacity, spec, err)
	}
	return r
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Mode: "strict"},
		{Mode: "soft"},
		{DefaultShare: 1.5},
		{DefaultShare: -0.1},
		{Tenants: []TenantSpec{{Name: "", Share: 0.5}}},
		{Tenants: []TenantSpec{{Name: "t", Share: 0}}},
		{Tenants: []TenantSpec{{Name: "t", Share: 2}}},
		{Tenants: []TenantSpec{{Name: "t", Share: math.NaN()}}},
		{Tenants: []TenantSpec{{Name: "t", Share: 0.5}, {Name: "t", Share: 0.1}}},
		{Tenants: []TenantSpec{{Name: strings.Repeat("x", MaxNameLen+1), Share: 0.5}}},
	}
	for _, spec := range bad {
		if _, err := New(1000, spec); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) err = %v, want ErrConfig", spec, err)
		}
	}
	if _, err := New(0, Spec{}); !errors.Is(err, ErrConfig) {
		t.Errorf("capacity 0 accepted: %v", err)
	}
	// "hard" is the one mode, and may be spelled out.
	if _, err := New(1000, Spec{Mode: "hard"}); err != nil {
		t.Errorf("mode hard rejected: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
		"mode": "hard",
		"default_share": 0.1,
		"tenants": [
			{"name": "etl", "share": 0.5},
			{"name": "adhoc", "share": 0.25}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != "hard" || spec.DefaultShare != 0.1 || len(spec.Tenants) != 2 {
		t.Fatalf("parsed spec %+v", spec)
	}
	for _, bad := range []string{
		// Unknown fields must fail loudly, not silently grant full shares.
		`{"mode": "hard", "tennants": []}`,
		`{"mode": "gentle"}`,
		// Hard is the only mode and budgets are one level deep: a file
		// naming another mode or a group is refused, not half-read.
		`{"mode": "soft"}`,
		`{"groups": [{"name": "prod", "share": 0.5}]}`,
		`{"tenants": [{"name": "etl", "group": "prod", "share": 0.5}]}`,
	} {
		if _, err := ParseSpec(strings.NewReader(bad)); !errors.Is(err, ErrConfig) {
			t.Errorf("ParseSpec(%s) err = %v, want ErrConfig", bad, err)
		}
	}
}

func TestBudgetHierarchyResolution(t *testing.T) {
	r := mustNew(t, 1000, Spec{
		Tenants: []TenantSpec{
			{Name: "etl", Share: 0.5},
			{Name: "web", Share: 0.25},
			{Name: "lab", Share: 0.1},
		},
		DefaultShare: 0.25,
	})
	// One level: every budget is the tenant's share of the capacity.
	want := map[string]int64{"etl": 500, "web": 250, "lab": 100}
	for name, budget := range want {
		if u := r.Usage(name); u.Budget != budget {
			t.Errorf("%s budget = %d, want %d", name, u.Budget, budget)
		}
	}
	// A runtime-discovered tenant gets DefaultShare of the capacity.
	if u := r.Usage("newcomer"); u.Share != 0.25 || u.Budget != 250 {
		t.Errorf("discovered tenant = %+v, want share 0.25 budget 250", u)
	}
	// The tenantless name maps to DefaultTenant.
	if got := r.Usage(""); got.Tenant != DefaultTenant {
		t.Errorf("Usage(\"\") tenant = %q, want %q", got.Tenant, DefaultTenant)
	}
}

func TestHardModeEnforcesTenantBudget(t *testing.T) {
	r := mustNew(t, 1000, Spec{Tenants: []TenantSpec{{Name: "t", Share: 0.1}}})
	if err := r.Acquire("t", 100); err != nil {
		t.Fatal(err)
	}
	err := r.Acquire("t", 1)
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("over-budget acquire err = %v, want ErrQuota", err)
	}
	var why *QuotaError
	if !errors.As(err, &why) || *why != (QuotaError{Name: "t", Used: 100, Budget: 100, Area: 1}) {
		t.Fatalf("over-budget acquire err = %#v, want the tenant's own figures", err)
	}
	if want := `tenant: quota exceeded: tenant "t" used 100 of 100 with request area 1`; err.Error() != want {
		t.Fatalf("over-budget acquire says %q, want %q", err, want)
	}
	if u := r.Usage("t"); u.Used != 100 || u.Rejected != 1 {
		t.Fatalf("usage after rejection = %+v, want used 100 rejected 1", u)
	}
	r.Admit("t")
	r.Release("t", 100)
	if u := r.Usage("t"); u.Used != 0 || u.Inflight != 0 || u.Admitted != 1 || u.Cancelled != 1 {
		t.Fatalf("usage after release = %+v", u)
	}
	// Released area is acquirable again.
	if err := r.Acquire("t", 100); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireRoomNeverOverflows: the room is compared as area > budget −
// used, so an area near math.MaxInt64 is refused however much is held,
// where used + area would wrap negative and pass; and Area saturates
// instead of wrapping.
func TestAcquireRoomNeverOverflows(t *testing.T) {
	if got := Area(2, math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("Area(2, MaxInt64) = %d, want it saturated", got)
	}
	if got := Area(3, 7); got != 21 {
		t.Fatalf("Area(3, 7) = %d", got)
	}
	r := mustNew(t, 1000, Spec{Tenants: []TenantSpec{{Name: "t", Share: 0.1}}})
	if err := r.Acquire("t", 10); err != nil {
		t.Fatal(err)
	}
	for _, area := range []int64{math.MaxInt64, math.MaxInt64 - 5} {
		if err := r.Acquire("t", area); !errors.Is(err, ErrQuota) {
			t.Fatalf("Acquire(%d) with 10 of 100 used: err = %v, want ErrQuota", area, err)
		}
		var why QuotaError
		if r.Account("t").Check(area, &why) || why.Used != 10 || why.Area != area {
			t.Fatalf("Check(%d) passed or reported %+v", area, why)
		}
	}
	if u := r.Usage("t"); u.Used != 10 || u.Rejected != 4 {
		t.Fatalf("usage = %+v, want 10 used and four refusals", u)
	}
}

// TestAccountHandle: a handle resolves as a name does, the read-only
// check charges nothing, and the handle's operations move the ledger the
// name's wrappers report.
func TestAccountHandle(t *testing.T) {
	r := mustNew(t, 1000, Spec{Tenants: []TenantSpec{{Name: "t", Share: 0.1}}})
	a := r.Account("t")
	if a != r.Account("t") || r.Account("") != r.Account(DefaultTenant) {
		t.Fatal("a name resolved to two accounts")
	}
	var why QuotaError
	if !a.Check(100, &why) || a.Check(101, &why) {
		t.Fatal("Check disagrees with a budget of 100")
	}
	if u := r.Usage("t"); u.Used != 0 || u.Rejected != 1 {
		t.Fatalf("Check charged or miscounted: %+v", u)
	}
	if !a.TryAcquire(60, &why) {
		t.Fatal(why)
	}
	a.Rollback(60)
	if !a.TryAcquire(60, &why) || a.TryAcquire(41, &why) {
		t.Fatal("TryAcquire disagrees with 100 − 60")
	}
	a.Admit()
	if u := r.Usage("t"); u.Used != 60 || u.Inflight != 1 || u.Admitted != 1 || u.Rejected != 2 {
		t.Fatalf("after charge and admit: %+v", u)
	}
	a.Release(60)
	if u := r.Usage("t"); u.Used != 0 || u.Inflight != 0 || u.Cancelled != 1 {
		t.Fatalf("after release: %+v", u)
	}
}

func TestSetShareRebudgets(t *testing.T) {
	r := mustNew(t, 1000, Spec{Tenants: []TenantSpec{{Name: "t", Share: 0.1}}})
	if err := r.Acquire("t", 100); err != nil {
		t.Fatal(err)
	}
	if err := r.SetShare("t", 0.05); err != nil {
		t.Fatal(err)
	}
	// Nothing is evicted, but new admissions fail until usage drains.
	if u := r.Usage("t"); u.Budget != 50 || u.Used != 100 {
		t.Fatalf("after shrink: %+v", u)
	}
	if err := r.Acquire("t", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("acquire under shrunk budget err = %v, want ErrQuota", err)
	}
	if err := r.SetShare("t", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire("t", 300); err != nil {
		t.Fatalf("acquire under grown budget: %v", err)
	}
	for _, share := range []float64{0, -1, 1.5, math.NaN()} {
		if err := r.SetShare("t", share); !errors.Is(err, ErrConfig) {
			t.Errorf("SetShare(%v) err = %v, want ErrConfig", share, err)
		}
	}
	if err := r.SetShare(strings.Repeat("n", MaxNameLen+1), 0.5); !errors.Is(err, ErrConfig) {
		t.Errorf("oversized name err = %v, want ErrConfig", err)
	}
}

func TestAccountCapAliasesToDefault(t *testing.T) {
	r := mustNew(t, 1000, Spec{DefaultShare: 0.5})
	// Materialise accounts up to the cap (the default tenant included).
	r.Account("")
	for i := 0; i < MaxAccounts-1; i++ {
		r.Account(fmt.Sprintf("n%d", i))
	}
	if u := r.Usage("one-more"); u.Tenant != DefaultTenant {
		t.Fatalf("past the cap, new name materialised account %q, want alias to %q", u.Tenant, DefaultTenant)
	}
	if n := len(r.Tenants()); n != MaxAccounts {
		t.Fatalf("%d accounts after reading a name past the cap, want %d", n, MaxAccounts)
	}
	// Accounts created before the cap keep resolving to themselves, and
	// acquire/release on an aliased name stays balanced on the default
	// account (the alias is deterministic).
	if u := r.Usage("n5"); u.Tenant != "n5" {
		t.Fatalf("pre-cap account resolved to %q", u.Tenant)
	}
	if err := r.Acquire("stranger", 10); err != nil {
		t.Fatal(err)
	}
	if u := r.Usage(""); u.Used != 10 {
		t.Fatalf("aliased acquire landed on used=%d, want 10 on the default account", u.Used)
	}
	r.Release("stranger", 10)
	if u := r.Usage(""); u.Used != 0 {
		t.Fatalf("aliased release left used=%d", u.Used)
	}
	// Re-budgeting never aliases: a name with no account is refused and
	// the default tenant's budget stays as it was, while a name that has
	// an account is re-budgeted as before.
	if err := r.SetShare("stranger", 0.01); !errors.Is(err, ErrConfig) {
		t.Fatalf("SetShare of a name past the cap err = %v, want ErrConfig", err)
	}
	if u := r.Usage(""); u.Share != 0.5 || u.Budget != 500 {
		t.Fatalf("refused SetShare touched the default account: %+v", u)
	}
	if err := r.SetShare("n5", 0.1); err != nil {
		t.Fatal(err)
	}
	if u := r.Usage("n5"); u.Budget != 100 {
		t.Fatalf("pre-cap account re-budgeted to %d, want 100", u.Budget)
	}
}

// TestUsageOpensNoAccount: Usage reads a name without opening it, so
// neither the ledger nor the MaxAccounts budget moves.
func TestUsageOpensNoAccount(t *testing.T) {
	r := mustNew(t, 1000, Spec{DefaultShare: 0.25})
	if u := r.Usage("never-seen"); u != (Usage{Tenant: "never-seen", Share: 0.25, Budget: 250}) {
		t.Errorf("Usage of an unseen name = %+v, want a fresh account's figures", u)
	}
	if u := r.Usage(""); u.Tenant != DefaultTenant || u.Budget != 250 {
		t.Errorf("Usage(\"\") = %+v, want the default tenant's fresh figures", u)
	}
	if ts := r.Tenants(); len(ts) != 0 {
		t.Fatalf("Usage opened accounts: %+v", ts)
	}
}

func TestLedgerViews(t *testing.T) {
	r := mustNew(t, 1000, Spec{
		Tenants: []TenantSpec{{Name: "b", Share: 0.25}, {Name: "a", Share: 0.5}},
	})
	if err := r.Acquire("b", 40); err != nil {
		t.Fatal(err)
	}
	r.Admit("b")
	want := []Usage{
		{Tenant: "a", Share: 0.5, Budget: 500},
		{Tenant: "b", Share: 0.25, Budget: 250, Used: 40, Inflight: 1, Admitted: 1},
	}
	if ts := r.Tenants(); !reflect.DeepEqual(ts, want) {
		t.Fatalf("Tenants() = %+v, want %+v", ts, want)
	}
}

// TestConcurrentAcquireNeverExceedsBudget is the package-local half of the
// conservation property: many goroutines hammering Acquire/Release on
// shared tenants must never observe used > budget on any account, and the
// books must balance exactly once everything is released. Run under -race
// this also checks the atomics-only claim of the admission path.
func TestConcurrentAcquireNeverExceedsBudget(t *testing.T) {
	const (
		capacity   = 1 << 20
		goroutines = 8
		iters      = 2000
	)
	r := mustNew(t, capacity, Spec{
		Tenants: []TenantSpec{
			{Name: "a", Share: 0.25},
			{Name: "b", Share: 0.375},
			{Name: "c", Share: 0.25},
		},
	})
	tenants := []string{"a", "b", "c"}
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
				if u := r.Usage(name); u.Used > u.Budget {
					t.Errorf("tenant %s used %d > budget %d", name, u.Used, u.Budget)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := tenants[g%len(tenants)]
			area := int64(64 + g)
			held := 0
			for i := 0; i < iters; i++ {
				if held > 0 && i%3 == 0 {
					r.Release(name, area)
					held--
					continue
				}
				if err := r.Acquire(name, area); err == nil {
					r.Admit(name)
					held++
				} else if !errors.Is(err, ErrQuota) {
					t.Errorf("acquire: %v", err)
					return
				}
			}
			for ; held > 0; held-- {
				r.Release(name, area)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	monitor.Wait()
	for _, name := range tenants {
		if u := r.Usage(name); u.Used != 0 || u.Inflight != 0 {
			t.Errorf("tenant %s not drained: %+v", name, u)
		}
	}
}
