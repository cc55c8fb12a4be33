package resd

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
)

// TestRefusalTextAndIs pins what callers and wire peers see of a refusal,
// a shard's or the one Admit gives before asking any: the sentinel errors.Is matches, and the text, byte for byte
// what it was when the turn formatted it.
func TestRefusalTextAndIs(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{
		Tenants: []tenant.TenantSpec{{Name: "tiny", Share: 0.001}},
	})
	// Eight processors, four of them gone for good, a floor of two.
	s := mustNew(t, Config{M: 8, Alpha: 0.25, Quotas: reg,
		Pre: []core.Reservation{{Procs: 4, Start: 0, Len: core.Infinity}}})
	if _, err := s.Admit(Request{Q: 2, Dur: 3, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	sentinels := []error{ErrNeverFits, ErrDeadline, ErrQuota}
	for _, c := range []struct {
		req   Request
		is    error
		shard int
		text  string
	}{
		{Request{Q: 3, Dur: 7, Deadline: NoDeadline}, ErrNeverFits, 0,
			"resd: request can never be admitted: q=3 dur=7 with α-floor 2 on shard 0"},
		// Q plus the floor exceeds M: refused before any shard is asked.
		{Request{Q: 7, Dur: 7, Deadline: NoDeadline}, ErrNeverFits, NoShard,
			"resd: request can never be admitted: q=7 with α-floor 2 exceeds m=8"},
		{Request{Q: 1, Dur: 5, Deadline: 2}, ErrDeadline, 0,
			"resd: earliest feasible start exceeds deadline: earliest feasible start 3 > deadline 2 (q=1 dur=5, shard 0)"},
		{Request{Tenant: "tiny", Q: 1, Dur: 5, Deadline: NoDeadline}, ErrQuota, 0,
			`shard 0: tenant: quota exceeded: tenant "tiny" used 0 of 1 with request area 5`},
	} {
		_, err := s.Admit(c.req)
		for _, sentinel := range sentinels {
			if got, want := errors.Is(err, sentinel), sentinel == c.is; got != want {
				t.Errorf("Admit(%+v) = %v: errors.Is(%v) = %v, want %v", c.req, err, sentinel, got, want)
			}
		}
		if err != nil && err.Error() != c.text {
			t.Errorf("Admit(%+v):\n got %q\nwant %q", c.req, err, c.text)
		}
		// The same facts as fields, for whoever renders them otherwise.
		var ref *Refusal
		if !errors.As(err, &ref) || ref.Kind != c.is || ref.Shard != c.shard || ref.Q != c.req.Q || ref.Dur != c.req.Dur ||
			ref.Deadline != c.req.Deadline || ref.Floor != 2 || (ref.M == 8) != (c.shard == NoShard) {
			t.Errorf("Admit(%+v) = %#v, want a *Refusal of kind %v carrying the request", c.req, err, c.is)
		}
		var quota *tenant.QuotaError
		if errors.As(err, &quota) != (c.is == ErrQuota) {
			t.Errorf("Admit(%+v) = %v: carries a *tenant.QuotaError: %v", c.req, err, quota != nil)
		}
	}
}
