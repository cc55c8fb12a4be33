//go:build !race

package resd

import (
	"errors"
	"testing"

	"repro/internal/tenant"
)

// Not under -race: there sync.Pool drops a share of what is put back, on
// purpose, and the slot pool then allocates.

// TestAdmitCancelAllocs pins the allocation count of the unobserved hot
// path: a lone caller's admit+cancel allocates nothing — for a named
// tenant and with quotas armed too, once the first admission has made the
// tenant's cell — and a service with more than stackShards shards pays at
// most the order buffer and the keys per Admit.
func TestAdmitCancelAllocs(t *testing.T) {
	pair := func(svc *Service, name string) func() {
		return func() {
			r, err := svc.Admit(Request{Tenant: name, Ready: 0, Q: 1, Dur: 1, Deadline: NoDeadline})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Cancel(r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := mustNew(t, Config{Shards: 4, M: 16})
	if n := testing.AllocsPerRun(500, pair(plain, "")); n != 0 {
		t.Errorf("admit+cancel allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(500, pair(plain, "acme")); n != 0 {
		t.Errorf("a named tenant's admit+cancel allocates %v times, want 0", n)
	}
	reg := mustRegistry(t, 1<<40, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "acme", Share: 0.5}}})
	if n := testing.AllocsPerRun(500, pair(mustNew(t, Config{Shards: 4, M: 16, Quotas: reg}), "acme")); n != 0 {
		t.Errorf("quotas armed: admit+cancel allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(500, pair(mustNew(t, Config{Shards: 2 * stackShards, M: 16}), "")); n > 2 {
		t.Errorf("%d shards: admit+cancel allocates %v times, want <= 2 (order buffer and keys)", 2*stackShards, n)
	}
}

// TestRefusedAdmitAllocs: a refusal is one value — the *Refusal, with the
// quota's figures inside it — and no text until somebody prints it.
func TestRefusedAdmitAllocs(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "tiny", Share: 0.001}}})
	svc := mustNew(t, Config{Shards: 4, M: 16, Quotas: reg})
	refused := func(req Request, want error) func() {
		return func() {
			if _, err := svc.Admit(req); !errors.Is(err, want) {
				t.Fatalf("Admit(%+v) = %v, want %v", req, err, want)
			}
		}
	}
	if n := testing.AllocsPerRun(500, refused(Request{Tenant: "tiny", Q: 1, Dur: 5, Deadline: NoDeadline}, ErrQuota)); n > 1 {
		t.Errorf("a quota-refused Admit allocates %v times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(500, refused(Request{Q: 17, Dur: 5, Deadline: NoDeadline}, ErrNeverFits)); n > 1 {
		t.Errorf("an Admit refused before any shard is asked allocates %v times, want <= 1", n)
	}
	for i := 0; i < 4; i++ { // fill every shard at tick 0
		if _, err := svc.Admit(Request{Q: 16, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, refused(Request{Q: 1, Dur: 5, Deadline: 0}, ErrDeadline)); n > 4 {
		t.Errorf("an Admit four shards refuse for its deadline allocates %v times, want <= 4 (one per shard)", n)
	}
}
