package reswire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/tenant"
)

// startServer builds a service + server on a loopback listener and
// registers teardown with the test. Returns the dial address. A setup hook
// runs before Serve, where SetMetrics and SetFlight must be called.
func startServer(t *testing.T, cfg resd.Config, setup ...func(*Server)) (string, *resd.Service) {
	t.Helper()
	svc, err := resd.New(cfg)
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip(err) // cfg has a log, and this platform cannot write one
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	for _, f := range setup {
		f(srv)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close(); <-done })
	return ln.Addr().String(), svc
}

func dial(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLoopbackOps(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := "pipeline=off"
		if pipeline {
			name = "pipeline=on"
		}
		t.Run(name, func(t *testing.T) {
			addr, _ := startServer(t, resd.Config{Shards: 2, M: 8, Alpha: 0.5})
			c := dial(t, addr, Options{Conns: 2, Pipeline: pipeline})

			if err := c.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
			r, err := c.Admit(resd.Request{Q: 4, Dur: 10, Deadline: resd.NoDeadline})
			if err != nil {
				t.Fatalf("Reserve: %v", err)
			}
			if r.Procs != 4 || r.Dur != 10 || r.Start < 0 {
				t.Fatalf("torn reservation %+v", r)
			}
			free, err := c.Query(5)
			if err != nil || len(free) != 2 {
				t.Fatalf("Query = %v, %v", free, err)
			}
			if free[r.Shard] != 4 {
				t.Errorf("free on shard %d = %d, want 4", r.Shard, free[r.Shard])
			}
			// Typed errors survive the wire.
			if _, err := c.Admit(resd.Request{Q: 5, Dur: 10, Deadline: resd.NoDeadline}); !errors.Is(err, resd.ErrNeverFits) || CodeOf(err) != CodeNeverFits {
				t.Errorf("α-violating Reserve err = %v (%v), want resd.ErrNeverFits (%v)", err, CodeOf(err), CodeNeverFits)
			}
			if _, err := c.Admit(resd.Request{Ready: -1, Q: 1, Dur: 1, Deadline: resd.NoDeadline}); !errors.Is(err, resd.ErrBadRequest) {
				t.Errorf("bad Reserve err = %v, want resd.ErrBadRequest", err)
			}
			// A window that wraps past the end of time is the caller's
			// mistake (BAD_REQUEST), not a server fault (INTERNAL).
			_, err = c.Admit(resd.Request{Ready: core.Infinity - 10, Q: 1, Dur: 100, Deadline: resd.NoDeadline})
			if !errors.Is(err, resd.ErrBadRequest) || CodeOf(err) != CodeBadRequest {
				t.Errorf("overflowing Admit err = %v (%v), want resd.ErrBadRequest (%v)", err, CodeOf(err), CodeBadRequest)
			}
			if err := c.Cancel(resd.ID(1 << 30)); !errors.Is(err, resd.ErrUnknownID) {
				t.Errorf("bogus Cancel err = %v, want resd.ErrUnknownID", err)
			}
			if err := c.Cancel(r.ID); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			st, err := c.Stats()
			if err != nil || len(st) != 2 {
				t.Fatalf("Stats = %v, %v", st, err)
			}
			var admitted uint64
			for _, s := range st {
				admitted += s.Admitted
			}
			if admitted != 1 {
				t.Errorf("admitted = %d, want 1", admitted)
			}
		})
	}
}

func TestLoopbackDeadline(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{Pipeline: true})
	if _, err := c.Admit(resd.Request{Q: 8, Dur: 100, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	// Earliest feasible start is 100; deadline 99 must reject with the
	// typed deadline error, REJECTED_DEADLINE on the wire.
	_, err := c.Admit(resd.Request{Q: 4, Dur: 10, Deadline: 99})
	if !errors.Is(err, resd.ErrDeadline) {
		t.Fatalf("err = %v, want resd.ErrDeadline", err)
	}
	r, err := c.Admit(resd.Request{Q: 4, Dur: 10, Deadline: 100})
	if err != nil || r.Start != 100 {
		t.Fatalf("deadline=100: %+v, %v; want start 100", r, err)
	}
}

func TestLoopbackSnapshotMatchesDirect(t *testing.T) {
	cfg := resd.Config{M: 16}
	addr, svc := startServer(t, cfg)
	c := dial(t, addr, Options{Pipeline: true})
	r := rng.New(77)
	for i := 0; i < 50; i++ {
		ready := core.Time(r.Int63n(1000))
		if _, err := c.Admit(resd.Request{Ready: ready, Q: r.IntRange(1, 16), Dur: core.Time(r.Int63Range(1, 50)), Deadline: resd.NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := svc.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt index must agree with the in-process snapshot at every
	// breakpoint of either profile.
	bps := append(direct.Breakpoints(), remote.Breakpoints()...)
	for _, bp := range bps {
		if g, w := remote.AvailableAt(bp), direct.AvailableAt(bp); g != w {
			t.Fatalf("AvailableAt(%v) = %d remote vs %d direct", bp, g, w)
		}
	}
	if g, w := remote.NumSegments(), direct.NumSegments(); g != w {
		t.Errorf("NumSegments = %d remote vs %d direct", g, w)
	}
}

func TestLoopbackSnapshotBadShard(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{})
	if _, err := c.Snapshot(5); !errors.Is(err, resd.ErrBadRequest) {
		t.Errorf("Snapshot(5) err = %v, want resd.ErrBadRequest", err)
	}
}

// TestRebuildSnapshotRejectsMalformedSegments feeds Client.Snapshot's
// rebuild segment lists no server sends. Each must fail with ErrFrame,
// not rebuild a profile that differs from the server's.
func TestRebuildSnapshotRejectsMalformedSegments(t *testing.T) {
	for name, segs := range map[string][]Segment{
		"empty":          nil,
		"starts late":    {{Start: 5, Free: 2}},
		"free above m":   {{Start: 0, Free: 9}},
		"free negative":  {{Start: 0, Free: 8}, {Start: 4, Free: -1}},
		"not increasing": {{Start: 0, Free: 8}, {Start: 4, Free: 3}, {Start: 4, Free: 8}},
	} {
		if tl, err := rebuildSnapshot(8, segs); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: rebuilt %v, err %v; want ErrFrame", name, tl, err)
		}
	}
	tl, err := rebuildSnapshot(8, []Segment{{Start: 0, Free: 8}, {Start: 10, Free: 3}, {Start: 20, Free: 8}})
	if err != nil || tl.AvailableAt(0) != 8 || tl.AvailableAt(15) != 3 || tl.NumSegments() != 3 {
		t.Fatalf("well-formed segments rebuilt %v, err %v", tl, err)
	}
}

// TestLoopbackStress hammers one server from many pipelined client
// goroutines with a mixed op stream. Under -race this exercises the whole
// stack: client multiplexing and write coalescing, server dispatch, shard
// event loops. Conservation is asserted at the end: everything admitted
// minus everything cancelled must still be standing in the shard stats.
func TestLoopbackStress(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 300
		m          = 64
		horizon    = 1 << 16
	)
	addr, _ := startServer(t, resd.Config{Shards: 4, M: m, Alpha: 0.25, Batch: 16})
	c := dial(t, addr, Options{Conns: 3, Pipeline: true, window: 64})

	var admitted, cancelled, rejected atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(1234, uint64(g))
			var held []resd.Reservation
			for i := 0; i < opsPerG; i++ {
				switch {
				case r.Bool(0.25) && len(held) > 0:
					k := r.Intn(len(held))
					if err := c.Cancel(held[k].ID); err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
					cancelled.Add(1)
					held = append(held[:k], held[k+1:]...)
				case r.Bool(0.1):
					if _, err := c.Query(core.Time(r.Int63n(horizon))); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				case r.Bool(0.05):
					if err := c.Ping(); err != nil {
						t.Errorf("ping: %v", err)
						return
					}
				default:
					ready := core.Time(r.Int63n(horizon))
					q := r.IntRange(1, m/2)
					dur := core.Time(r.Int63Range(1, 100))
					deadline := resd.NoDeadline
					if r.Bool(0.3) {
						deadline = ready + core.Time(r.Int63n(2000))
					}
					resv, err := c.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: deadline})
					switch {
					case err == nil:
						admitted.Add(1)
						held = append(held, resv)
					case errors.Is(err, resd.ErrDeadline):
						rejected.Add(1)
					default:
						t.Errorf("reserve: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sAdmitted, sCancelled, sRejectedDL, sActive uint64
	for _, s := range st {
		sAdmitted += s.Admitted
		sCancelled += s.Cancelled
		sRejectedDL += s.RejectedDeadline
		sActive += uint64(s.Active)
	}
	if sAdmitted != admitted.Load() || sCancelled != cancelled.Load() {
		t.Errorf("server books admitted=%d cancelled=%d, clients saw %d/%d",
			sAdmitted, sCancelled, admitted.Load(), cancelled.Load())
	}
	if sActive != admitted.Load()-cancelled.Load() {
		t.Errorf("active = %d, want admitted-cancelled = %d", sActive, admitted.Load()-cancelled.Load())
	}
	// Client-side deadline rejections ≤ server-side counts: a rejection
	// may be recorded on several shards before the service gives up.
	if sRejectedDL < rejected.Load() {
		t.Errorf("server deadline rejections %d < client-observed %d", sRejectedDL, rejected.Load())
	}
}

// TestServerCloseFailsInFlight closes the server under live traffic and
// asserts every outstanding and subsequent call fails fast with a client
// error instead of hanging.
func TestServerCloseFailsInFlight(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String(), Options{Conns: 2, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(5, uint64(g))
			for i := 0; i < 200; i++ {
				if _, err := c.Admit(resd.Request{Ready: core.Time(r.Int63n(1 << 20)), Q: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	srv.Close()
	<-serveDone

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("calls still blocked 30s after server Close")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("in-flight call failed with %v, want ErrClientClosed", err)
		}
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Ping after server close = %v, want ErrClientClosed", err)
	}
}

func mustRegistry(t *testing.T, capacity int64, spec tenant.Spec) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New(capacity, spec)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestQuotaOpsOverWire drives the quota surface end to end: tenant-
// attributed Reserve, QuotaGet, QuotaSet, and a quota rejection whose
// REJECTED_QUOTA code reconstructs tenant.ErrQuota client-side.
func TestQuotaOpsOverWire(t *testing.T) {
	reg := mustRegistry(t, 800, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "acme", Share: 0.1}}})
	addr, _ := startServer(t, resd.Config{M: 8, Quotas: reg})
	c := dial(t, addr, Options{Conns: 1, Pipeline: true})

	if _, err := c.Admit(resd.Request{Tenant: "acme", Q: 8, Dur: 10, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	q, err := c.QuotaGet("acme")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tenant != "acme" || q.Share != 0.1 || q.Used != 80 ||
		q.Budget != 80 || q.Capacity != 800 || q.Inflight != 1 {
		t.Fatalf("QuotaGet = %+v", q)
	}
	_, err = c.Admit(resd.Request{Tenant: "acme", Q: 1, Dur: 1, Deadline: resd.NoDeadline})
	if !errors.Is(err, tenant.ErrQuota) || !errors.Is(err, resd.ErrQuota) {
		t.Fatalf("over-budget remote err = %v, want ErrQuota via errors.Is", err)
	}
	// Re-budget over the wire and retry.
	if err := c.QuotaSet("acme", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(resd.Request{Tenant: "acme", Q: 1, Dur: 100, Deadline: resd.NoDeadline}); err != nil {
		t.Fatalf("post-QuotaSet reserve: %v", err)
	}
	// An out-of-range share never leaves the client: the encoder enforces
	// the protocol's (0,1] share range.
	if err := c.QuotaSet("acme", 1.5); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad share err = %v, want ErrFrame", err)
	}
}

// TestQuotaSetPastAccountCap: once the registry holds tenant.MaxAccounts
// accounts, a QuotaSet naming a fresh tenant is a BAD_REQUEST and leaves
// the default tenant — the account such a name is charged to — as it was.
func TestQuotaSetPastAccountCap(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{DefaultShare: 0.5})
	reg.Account("")
	for i := 0; i < tenant.MaxAccounts-1; i++ {
		reg.Account(fmt.Sprintf("n%d", i))
	}
	addr, _ := startServer(t, resd.Config{M: 8, Quotas: reg})
	c := dial(t, addr, Options{Conns: 1, Pipeline: false})
	if err := c.QuotaSet("stranger", 0.01); !errors.Is(err, resd.ErrBadRequest) {
		t.Fatalf("QuotaSet past the account cap err = %v, want resd.ErrBadRequest", err)
	}
	q, err := c.QuotaGet(tenant.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if q.Share != 0.5 || q.Budget != 500 {
		t.Fatalf("default tenant after a refused QuotaSet = %+v, want share 0.5 budget 500", q)
	}
}

// TestQuotaGetOpensNoAccount: reading a name the registry has never seen
// answers the figures its first admission would start from, and leaves
// the ledger as it was.
func TestQuotaGetOpensNoAccount(t *testing.T) {
	reg := mustRegistry(t, 1000, tenant.Spec{DefaultShare: 0.25})
	addr, _ := startServer(t, resd.Config{M: 8, Quotas: reg})
	c := dial(t, addr, Options{Conns: 1, Pipeline: true})
	q, err := c.QuotaGet("never-seen")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tenant != "never-seen" || q.Share != 0.25 || q.Budget != 250 || q.Used != 0 {
		t.Fatalf("QuotaGet of an unseen name = %+v, want a fresh account's figures", q)
	}
	if ts := reg.Tenants(); len(ts) != 0 {
		t.Fatalf("QuotaGet opened accounts: %+v", ts)
	}
}

func TestQuotaOpsWithoutRegistry(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{Conns: 1, Pipeline: false})
	if _, err := c.QuotaGet("acme"); !errors.Is(err, resd.ErrBadRequest) {
		t.Fatalf("QuotaGet on quota-less server err = %v, want resd.ErrBadRequest", err)
	}
	// Tenant-attributed Reserve still works: stats are kept, budgets just
	// never bind.
	if _, err := c.Admit(resd.Request{Tenant: "acme", Q: 4, Dur: 10, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
}
