package resd

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/restree"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// skipNoLog skips the test when err is wal.Open's refusal on a platform
// with no shared file mapping: the configuration under test has a log.
func skipNoLog(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip(err)
	}
}

// mustNew builds a service and registers its shutdown with the test.
func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	skipNoLog(t, err)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{M: 0},
		{M: -3},
		{M: 8, Alpha: -0.1},
		{M: 8, Alpha: 1.5},
		{M: 8, Shards: -1},
		{M: 8, Batch: -2},
		{M: 8, Placement: "no-such-policy"},
		{M: 8, Placement: "p2c"},
		{M: 8, Backend: "no-such-index"},
		{M: 8, Pre: []core.Reservation{{ID: 0, Procs: 9, Start: 0, Len: 5}}}, // oversubscribed
	}
	for _, cfg := range bad {
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Errorf("New(%+v) succeeded, want error", cfg)
		} else if cfg.Placement != "" && !errors.Is(err, ErrBadRequest) {
			t.Errorf("Placement %q: err = %v, want ErrBadRequest", cfg.Placement, err)
		}
	}
	// least-loaded is the one placement; "" and its name both mean it.
	mustNew(t, Config{M: 8, Placement: "least-loaded"})
	s := mustNew(t, Config{M: 8})
	if s.Shards() != 1 || s.M() != 8 || s.Floor() != 0 {
		t.Errorf("defaults wrong: shards=%d m=%d floor=%d", s.Shards(), s.M(), s.Floor())
	}
	// The shards run on the tree unless Config.Backend names another
	// registered index (bench/ runs a service on one it registers itself).
	if _, tree := s.shards[0].idx.(*restree.Tree); !tree {
		t.Errorf("shards run on %T by default, want *restree.Tree", s.shards[0].idx)
	}
	a := mustNew(t, Config{M: 8, Backend: "array"})
	if _, array := a.shards[0].idx.(*profile.Timeline); !array {
		t.Errorf("Backend array: shards run on %T, want *profile.Timeline", a.shards[0].idx)
	}
}

func TestReserveEnforcesAlphaRule(t *testing.T) {
	// m=8, α=1/2: every shard must keep 4 processors free of reservations.
	s := mustNew(t, Config{M: 8, Alpha: 0.5})
	if s.Floor() != 4 {
		t.Fatalf("floor = %d, want 4", s.Floor())
	}
	if _, err := s.Admit(Request{Q: 5, Dur: 10, Deadline: NoDeadline}); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("q=5 admitted past the α-floor: %v", err)
	}
	r1, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil || r1.Start != 0 {
		t.Fatalf("first q=4: %+v, %v", r1, err)
	}
	// A second q=4 in the same window would leave 0 free; the α rule
	// forces it to start after the first ends.
	r2, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil || r2.Start != 10 {
		t.Fatalf("second q=4: start=%v err=%v, want start=10", r2.Start, err)
	}
	// Narrow reservations still fit alongside r1 (4 committed + 1 <= 4 free
	// is violated, so even q=1 must wait: 8-4-4=0 head-room remains).
	r3, err := s.Admit(Request{Q: 1, Dur: 5, Deadline: NoDeadline})
	if err != nil || r3.Start != 20 {
		t.Fatalf("q=1: start=%v err=%v, want start=20 (after both q=4 holds)", r3.Start, err)
	}
}

func TestReserveBadArgs(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	for _, req := range []Request{
		{Ready: -1, Q: 1, Dur: 1}, {Q: 0, Dur: 1}, {Q: -2, Dur: 1}, {Q: 1, Dur: 0}, {Q: 1, Dur: -5},
	} {
		req.Deadline = NoDeadline
		if _, err := s.Admit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Admit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

// TestAdmitRefusesOverflowingWindow: a request whose Ready+Dur wraps past
// the end of time is a bad request, refused before the tracer, a shard or
// the quota ledger sees it — not an α refusal and not a backend fault.
func TestAdmitRefusesOverflowingWindow(t *testing.T) {
	quotas, err := tenant.New(tenant.PrefixCapacity(2, 8, 0.25, 1<<20), tenant.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Shards: 2, M: 8, Alpha: 0.25, Quotas: quotas,
		Obs: &ObsConfig{Registry: obs.NewRegistry(), TraceSample: 1}})
	before, used := s.Stats(), quotas.Usage("")
	for _, req := range []Request{
		{Ready: math.MaxInt64 - 10, Q: 1, Dur: 100, Deadline: NoDeadline},
		{Ready: 2, Q: 1, Dur: math.MaxInt64 - 1, Deadline: NoDeadline},
		{Tenant: "a", Ready: math.MaxInt64 / 2, Q: 8, Dur: math.MaxInt64/2 + 2, Deadline: 0},
	} {
		if _, err := s.Admit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Admit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
	if after := s.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused requests moved the shard stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if after := quotas.Usage(""); after != used {
		t.Errorf("refused requests moved the quota ledger: %+v, was %+v", after, used)
	}
	if n := len(s.Traces(0)); n != 0 {
		t.Errorf("refused requests left %d trace records", n)
	}
	// A window that ends one tick before the end of time still books.
	r, err := s.Admit(Request{Ready: math.MaxInt64 - 101, Q: 1, Dur: 100, Deadline: NoDeadline})
	if err != nil {
		t.Fatalf("window ending at MaxInt64-1: %v", err)
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Error(err)
	}
}

func TestCancelReturnsCapacity(t *testing.T) {
	s := mustNew(t, Config{M: 4})
	r, err := s.Admit(Request{Ready: 5, Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	free, err := s.Query(7)
	if err != nil || free[0] != 0 {
		t.Fatalf("Query(7) = %v, %v; want [0]", free, err)
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	free, err = s.Query(7)
	if err != nil || free[0] != 4 {
		t.Fatalf("Query(7) after cancel = %v, %v; want [4]", free, err)
	}
	if err := s.Cancel(r.ID); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double cancel err = %v, want ErrUnknownID", err)
	}
	if err := s.Cancel(makeID(3, 0)); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("cancel on missing shard err = %v, want ErrUnknownID", err)
	}
}

func TestPreReservationsAreExemptFromAlpha(t *testing.T) {
	// Pre holds 6 of 8 on [0,10) — more than α=0.5 would admit — and new
	// requests must work around it.
	s := mustNew(t, Config{M: 8, Alpha: 0.5, Pre: []core.Reservation{
		{ID: 0, Procs: 6, Start: 0, Len: 10},
	}})
	r, err := s.Admit(Request{Q: 4, Dur: 5, Deadline: NoDeadline})
	if err != nil || r.Start != 10 {
		t.Fatalf("Reserve around Pre: start=%v err=%v, want 10", r.Start, err)
	}
}

func TestLeastLoadedSpreadsEvenly(t *testing.T) {
	s := mustNew(t, Config{M: 8, Shards: 4})
	for i := 0; i < 16; i++ {
		if _, err := s.Admit(Request{Q: 2, Dur: 10, Deadline: NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.Stats() {
		if st.Active != 4 {
			t.Fatalf("shard %d holds %d of 16 equal reservations, want 4 (stats %+v)",
				i, st.Active, s.Stats())
		}
	}
}

func TestCloseRejectsFurtherRequests(t *testing.T) {
	s, err := New(Config{M: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Admit(Request{Q: 1, Dur: 1, Deadline: NoDeadline}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve after Close err = %v, want ErrClosed", err)
	}
	if err := s.Cancel(makeID(0, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Cancel after Close err = %v, want ErrClosed", err)
	}
	if _, err := s.Query(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close err = %v, want ErrClosed", err)
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	if _, err := s.Admit(Request{Q: 3, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.AvailableAt(5); got != 5 {
		t.Fatalf("snapshot avail(5) = %d, want 5", got)
	}
	// Mutating the live shard must not show through the snapshot.
	if _, err := s.Admit(Request{Q: 5, Dur: 10, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if got := snap.AvailableAt(5); got != 5 {
		t.Fatalf("snapshot changed under live traffic: avail(5) = %d", got)
	}
	if _, err := s.Snapshot(7); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Snapshot(7) err = %v, want ErrBadRequest", err)
	}
}

// TestSerialReplayMatchesFCFS is the determinism bridge back to the
// paper's offline world: a single-shard service, α=0, replaying a job
// stream serially with each ready time chained to the previous start must
// place every job exactly where sched.FCFS places it offline — on either
// capacity backend.
func TestSerialReplayMatchesFCFS(t *testing.T) {
	r := rng.New(20260729)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: 32, N: 200, MinRun: 5, MaxRun: 500, MaxWidthFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.Res = workload.ReservationStream(r.Split(), 32, 0.5, 12, 20000)
	for _, backend := range []string{"array", "tree"} {
		t.Run(backend, func(t *testing.T) {
			want, err := sched.FCFS{Backend: backend}.Schedule(inst)
			if err != nil {
				t.Fatal(err)
			}
			s := mustNew(t, Config{M: inst.M, Backend: backend, Pre: inst.Res})
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
		})
	}
}
