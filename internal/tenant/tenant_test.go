package tenant

import (
	"errors"
	"fmt"
	"math"
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
		{DefaultShare: 1.5},
		{DefaultShare: -0.1},
		{Groups: []GroupSpec{{Name: "", Share: 0.5}}},
		{Groups: []GroupSpec{{Name: "g", Share: 0}}},
		{Groups: []GroupSpec{{Name: "g", Share: 2}}},
		{Groups: []GroupSpec{{Name: "g", Share: 0.5}, {Name: "g", Share: 0.5}}},
		{Tenants: []TenantSpec{{Name: "", Share: 0.5}}},
		{Tenants: []TenantSpec{{Name: "t", Share: math.NaN()}}},
		{Tenants: []TenantSpec{{Name: "t", Share: 0.5}, {Name: "t", Share: 0.1}}},
		{Tenants: []TenantSpec{{Name: "t", Group: "nope", Share: 0.5}}},
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
	// "default" may be referenced without being declared.
	if _, err := New(1000, Spec{Tenants: []TenantSpec{{Name: "t", Group: DefaultGroup, Share: 0.5}}}); err != nil {
		t.Errorf("tenant in implicit default group rejected: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
		"mode": "soft",
		"default_share": 0.1,
		"groups": [{"name": "prod", "share": 0.75}],
		"tenants": [
			{"name": "etl", "group": "prod", "share": 0.5},
			{"name": "adhoc", "share": 0.25}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != "soft" || spec.DefaultShare != 0.1 || len(spec.Groups) != 1 || len(spec.Tenants) != 2 {
		t.Fatalf("parsed spec %+v", spec)
	}
	// Unknown fields must fail loudly, not silently grant full shares.
	if _, err := ParseSpec(strings.NewReader(`{"mode": "hard", "tennants": []}`)); !errors.Is(err, ErrConfig) {
		t.Fatalf("typo'd key err = %v, want ErrConfig", err)
	}
	if _, err := ParseSpec(strings.NewReader(`{"mode": "gentle"}`)); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad mode err = %v, want ErrConfig", err)
	}
}

func TestBudgetHierarchyResolution(t *testing.T) {
	r := mustNew(t, 1000, Spec{
		Groups: []GroupSpec{{Name: "prod", Share: 0.5}},
		Tenants: []TenantSpec{
			{Name: "etl", Group: "prod", Share: 0.5},
			{Name: "web", Group: "prod", Share: 0.25},
			{Name: "lab", Share: 0.1}, // default group (share 1)
		},
		DefaultShare: 0.25,
	})
	want := map[string]int64{"etl": 250, "web": 125, "lab": 100}
	for name, budget := range want {
		if u := r.Usage(name); u.Budget != budget {
			t.Errorf("%s budget = %d, want %d", name, u.Budget, budget)
		}
	}
	// Runtime-discovered tenant lands in the default group at DefaultShare.
	u := r.Usage("newcomer")
	if u.Group != DefaultGroup || u.Budget != 250 {
		t.Errorf("discovered tenant = %+v, want default group budget 250", u)
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

func TestHardModeEnforcesGroupBudget(t *testing.T) {
	// Two tenants each entitled to 80% of a group holding 100: the group
	// cap binds before the second tenant's own budget does.
	r := mustNew(t, 1000, Spec{
		Groups: []GroupSpec{{Name: "g", Share: 0.1}},
		Tenants: []TenantSpec{
			{Name: "a", Group: "g", Share: 0.8},
			{Name: "b", Group: "g", Share: 0.8},
		},
	})
	if err := r.Acquire("a", 70); err != nil {
		t.Fatal(err)
	}
	err := r.Acquire("b", 50)
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("group-exceeding acquire err = %v, want ErrQuota", err)
	}
	var why *QuotaError
	if !errors.As(err, &why) || *why != (QuotaError{Name: "b", Group: "g", Used: 70, Budget: 100, Area: 50}) {
		t.Fatalf("group-exceeding acquire err = %#v, want the group's figures", err)
	}
	if want := `tenant: quota exceeded: group "g" used 70 of 100 with request area 50 (tenant "b")`; err.Error() != want {
		t.Fatalf("group-exceeding acquire says %q, want %q", err, want)
	}
	// The failed acquire must not leak tenant-level usage, and the
	// rejection is booked on both the tenant and the binding group —
	// that's how an operator finds which budget is the bottleneck.
	if u := r.Usage("b"); u.Used != 0 || u.Rejected != 1 {
		t.Fatalf("tenant b after group rejection = %+v, want used 0 rejected 1", u)
	}
	gs := r.Groups()
	var g Usage
	for _, gu := range gs {
		if gu.Tenant == "g" {
			g = gu
		}
	}
	if g.Rejected != 1 {
		t.Fatalf("group g rejected = %d, want 1 (groups %+v)", g.Rejected, gs)
	}
	if err := r.Acquire("b", 30); err != nil {
		t.Fatalf("within-group acquire: %v", err)
	}
	// A tenant-level rejection does not blame the group.
	r2 := mustNew(t, 1000, Spec{Tenants: []TenantSpec{{Name: "t", Share: 0.01}}})
	if err := r2.Acquire("t", 500); !errors.Is(err, ErrQuota) {
		t.Fatal(err)
	}
	if g := r2.Groups()[0]; g.Rejected != 0 {
		t.Fatalf("default group rejected = %d after tenant-level rejection, want 0", g.Rejected)
	}
}

func TestSoftModeNeverRejects(t *testing.T) {
	r := mustNew(t, 100, Spec{Mode: "soft", Tenants: []TenantSpec{{Name: "t", Share: 0.01}}})
	if err := r.Acquire("t", 1000); err != nil {
		t.Fatalf("soft acquire rejected: %v", err)
	}
	if u := r.Usage("t"); u.Used != 1000 {
		t.Fatalf("soft usage = %d, want 1000", u.Used)
	}
	if ratio := r.Ratio("t"); ratio < 100 {
		t.Fatalf("ratio = %v, want >= 100 (1000 used of budget 1... dominated by group 1000/100)", ratio)
	}
}

func TestRatioOrdersByPressure(t *testing.T) {
	r := mustNew(t, 1000, Spec{
		Mode: "soft",
		Tenants: []TenantSpec{
			{Name: "light", Share: 0.5},
			{Name: "heavy", Share: 0.5},
		},
	})
	if err := r.Acquire("heavy", 400); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire("light", 50); err != nil {
		t.Fatal(err)
	}
	if rl, rh := r.Ratio("light"), r.Ratio("heavy"); rl >= rh {
		t.Fatalf("Ratio(light)=%v >= Ratio(heavy)=%v", rl, rh)
	}
	// Group pressure dominates when it exceeds the tenant's own: load the
	// shared default group far past "spare"'s individual share.
	if got := r.Ratio("spare"); got < 0.45 || got > 0.46 {
		t.Fatalf("idle tenant's group-dominated ratio = %v, want 450/1000", got)
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
	r.Usage("")
	for i := 0; i < MaxAccounts-1; i++ {
		r.Usage(fmt.Sprintf("n%d", i))
	}
	if u := r.Usage("one-more"); u.Tenant != DefaultTenant {
		t.Fatalf("past the cap, new name materialised account %q, want alias to %q", u.Tenant, DefaultTenant)
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
}

func TestModeSwitch(t *testing.T) {
	r := mustNew(t, 100, Spec{Mode: "soft"})
	if err := r.Acquire("t", 500); err != nil {
		t.Fatal(err)
	}
	r.SetMode(Hard)
	if r.Mode() != Hard {
		t.Fatalf("mode = %v", r.Mode())
	}
	// Over-budget tenant is not evicted but cannot acquire more.
	if err := r.Acquire("t", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("post-switch acquire err = %v, want ErrQuota", err)
	}
}

func TestLedgerViews(t *testing.T) {
	r := mustNew(t, 1000, Spec{
		Groups:  []GroupSpec{{Name: "prod", Share: 0.5}},
		Tenants: []TenantSpec{{Name: "b", Group: "prod", Share: 0.5}, {Name: "a", Share: 0.5}},
	})
	ts := r.Tenants()
	if len(ts) != 2 || ts[0].Tenant != "a" || ts[1].Tenant != "b" {
		t.Fatalf("Tenants() = %+v", ts)
	}
	gs := r.Groups()
	if len(gs) != 2 || gs[0].Tenant != DefaultGroup || gs[1].Tenant != "prod" {
		t.Fatalf("Groups() = %+v", gs)
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
		Groups: []GroupSpec{{Name: "g", Share: 0.5}},
		Tenants: []TenantSpec{
			{Name: "a", Group: "g", Share: 0.5},
			{Name: "b", Group: "g", Share: 0.75},
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
			for _, g := range r.Groups() {
				if g.Used > g.Budget {
					t.Errorf("group %s used %d > budget %d", g.Tenant, g.Used, g.Budget)
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
	for _, g := range r.Groups() {
		if g.Used != 0 || g.Inflight != 0 {
			t.Errorf("group %s not drained: %+v", g.Tenant, g)
		}
	}
}
