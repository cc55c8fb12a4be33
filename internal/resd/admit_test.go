package resd

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// TestAdmitSettlesEachExit pins how every way out of Admit is settled:
// the outcome its trace record carries and what the SLO book counts. A
// refusal is one rejection however many shards said no, a deadline
// refusal is also a deadline-attainment sample, and a closed service
// answers nothing the SLO counts.
func TestAdmitSettlesEachExit(t *testing.T) {
	type counts struct{ admitted, rejected, dlAdmitted, dlRejected uint64 }
	for _, c := range []struct {
		name string
		cfg  func(t *testing.T) Config
		// setup runs before the probe, the request under test, and
		// after runs once it is settled.
		setup   func(t *testing.T, s *Service)
		after   func(t *testing.T, s *Service)
		probe   Request
		is      error
		outcome TraceOutcome
		want    counts
	}{
		{
			name:    "admitted",
			cfg:     func(*testing.T) Config { return Config{Shards: 2, M: 4} },
			probe:   Request{Q: 1, Dur: 5, Deadline: 10},
			outcome: TraceAdmitted,
			want:    counts{admitted: 1, dlAdmitted: 1},
		},
		{
			name:    "never-fits-at-the-door",
			cfg:     func(*testing.T) Config { return Config{Shards: 2, M: 4} },
			probe:   Request{Q: 5, Dur: 5, Deadline: NoDeadline},
			is:      ErrNeverFits,
			outcome: TraceRejectedCapacity,
			want:    counts{rejected: 1},
		},
		{
			name: "quota-at-the-door",
			cfg: func(t *testing.T) Config {
				reg := mustRegistry(t, 100, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.1}}}) // budget 10
				return Config{Shards: 2, M: 4, Quotas: reg}
			},
			probe:   Request{Tenant: "t", Q: 4, Dur: 5, Deadline: 10},
			is:      ErrQuota,
			outcome: TraceRejectedQuota,
			want:    counts{rejected: 1},
		},
		{
			// The door passes; the shard's turn opens with the budget gone.
			name: "quota-at-the-charge",
			cfg: func(t *testing.T) Config {
				reg := mustRegistry(t, 100, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "t", Share: 0.1}}}) // budget 10
				spent := false
				return Config{M: 4, Quotas: reg, turnHook: func(int) {
					if !spent {
						spent = reg.Account("t").TryAcquire(10, new(tenant.QuotaError))
					}
				}}
			},
			probe: Request{Tenant: "t", Q: 2, Dur: 5, Deadline: 10},
			after: func(t *testing.T, s *Service) {
				if u := s.cfg.Quotas.Usage("t"); u.Used != 10 || u.Rejected != 1 {
					t.Fatalf("usage %+v, want the hook's 10 used and one refusal: the door passed", u)
				}
			},
			is:      ErrQuota,
			outcome: TraceRejectedQuota,
			want:    counts{rejected: 1},
		},
		{
			// Tick 0 is full on both shards: every shard refuses for the
			// deadline, and the walk's verdict is one deadline refusal.
			name: "deadline",
			cfg:  func(*testing.T) Config { return Config{Shards: 2, M: 4} },
			setup: func(t *testing.T, s *Service) {
				for range 2 {
					if _, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline}); err != nil {
						t.Fatal(err)
					}
				}
			},
			probe:   Request{Q: 1, Dur: 1, Deadline: 0},
			is:      ErrDeadline,
			outcome: TraceRejectedDeadline,
			want:    counts{rejected: 1, dlRejected: 1},
		},
		{
			// Three of four processors gone for good on both shards: the
			// door passes a width of 2, and every shard finds no slot.
			name: "capacity-walk",
			cfg: func(*testing.T) Config {
				return Config{Shards: 2, M: 4, Pre: []core.Reservation{{Procs: 3, Start: 0, Len: core.Infinity}}}
			},
			probe:   Request{Q: 2, Dur: 5, Deadline: 10},
			is:      ErrNeverFits,
			outcome: TraceRejectedCapacity,
			want:    counts{rejected: 1},
		},
		{
			name:    "closed",
			cfg:     func(*testing.T) Config { return Config{Shards: 2, M: 4} },
			setup:   func(_ *testing.T, s *Service) { s.Close() },
			probe:   Request{Q: 1, Dur: 5, Deadline: 10},
			is:      ErrClosed,
			outcome: TraceError,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := slo.New(slo.Config{Spec: sloDrillSpec()})
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg(t)
			cfg.Obs = &ObsConfig{TraceSample: 1, SLO: eng}
			s := mustNew(t, cfg)
			if c.setup != nil {
				c.setup(t, s)
			}
			read := func() counts {
				var smp slo.Sample
				s.readSLO(&smp)
				return counts{smp.Admitted, smp.Rejected, smp.DeadlineAdmitted, smp.DeadlineRejected}
			}
			before := read()
			_, err = s.Admit(c.probe)
			if (c.is == nil) != (err == nil) || c.is != nil && !errors.Is(err, c.is) {
				t.Fatalf("Admit = %v, want %v", err, c.is)
			}
			after := read()
			got := counts{after.admitted - before.admitted, after.rejected - before.rejected,
				after.dlAdmitted - before.dlAdmitted, after.dlRejected - before.dlRejected}
			if got != c.want {
				t.Fatalf("SLO book counted %+v, want %+v", got, c.want)
			}
			trs := s.Traces(0)
			if len(trs) == 0 {
				t.Fatal("no trace record")
			}
			if last := trs[len(trs)-1]; last.Outcome != c.outcome {
				t.Fatalf("trace outcome %v, want %v", last.Outcome, c.outcome)
			}
			if c.after != nil {
				c.after(t, s)
			}
		})
	}
}
