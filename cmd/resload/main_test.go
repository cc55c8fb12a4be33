package main

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/tenant"
)

func TestClassifySeparatesRejectionsFromErrors(t *testing.T) {
	cases := []struct {
		name                               string
		err                                error
		alphaRej, dlRej, quotaRej, hardErr bool
	}{
		{"success", nil, false, false, false, false},
		{"alpha rejection", fmt.Errorf("wrapped: %w", resd.ErrNeverFits), true, false, false, false},
		{"deadline rejection", fmt.Errorf("wrapped: %w", resd.ErrDeadline), false, true, false, false},
		{"quota rejection", fmt.Errorf("wrapped: %w", resd.ErrQuota), false, false, true, false},
		{"quota rejection via tenant sentinel", fmt.Errorf("w: %w", tenant.ErrQuota), false, false, true, false},
		{"closed service", resd.ErrClosed, false, false, false, true},
		{"bad request", resd.ErrBadRequest, false, false, false, true},
		{"client death", reswire.ErrClientClosed, false, false, false, true},
		{"unknown", errors.New("socket exploded"), false, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, d, q, h := classify(c.err)
			if a != c.alphaRej || d != c.dlRej || q != c.quotaRej || h != c.hardErr {
				t.Errorf("classify(%v) = (α=%v, dl=%v, q=%v, hard=%v), want (%v, %v, %v, %v)",
					c.err, a, d, q, h, c.alphaRej, c.dlRej, c.quotaRej, c.hardErr)
			}
		})
	}
}

func TestReplayCountsRejectionsSeparately(t *testing.T) {
	// m=8, α=0.5 admits at most q=4: the q=6 request α-rejects, the
	// tight-deadline request deadline-rejects, the rest admit.
	svc, err := resd.New(resd.Config{M: 8, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []request{
		{ready: 0, q: 4, dur: 100, deadline: resd.NoDeadline},
		{ready: 0, q: 6, dur: 10, deadline: resd.NoDeadline}, // α-rule rejection
		{ready: 0, q: 4, dur: 10, deadline: 50},              // earliest start 100 > 50
		{ready: 0, q: 4, dur: 10, deadline: resd.NoDeadline}, // admitted at 100
	}
	res := replay(svc, reqs, []string{""}, 1, 0, 0, 1, 0)
	if len(res.admitted) != 2 || res.rejectedAlpha != 1 || res.rejectedDeadline != 1 || res.errored != 0 {
		t.Fatalf("admitted=%d rejectedα=%d rejectedDL=%d errored=%d, want 2/1/1/0",
			len(res.admitted), res.rejectedAlpha, res.rejectedDeadline, res.errored)
	}
	// A closed service produces hard errors, not rejections.
	svc.Close()
	res = replay(svc, reqs[:1], []string{""}, 1, 0, 0, 1, 0)
	if res.errored != 1 || res.rejectedAlpha != 0 || res.rejectedDeadline != 0 {
		t.Fatalf("closed service: errored=%d rejectedα=%d rejectedDL=%d, want 1/0/0", res.errored, res.rejectedAlpha, res.rejectedDeadline)
	}
	if !errors.Is(res.firstErr, resd.ErrClosed) {
		t.Fatalf("firstErr = %v, want ErrClosed", res.firstErr)
	}
}

// TestProgressLine pins the -statsevery row: record buckets outcomes the
// way the summary does (rejections apart from hard errors), the p99 is a
// sane upper bound on the observed latencies, and a nil progress is a
// no-op so the uninstrumented hot path stays free.
func TestProgressLine(t *testing.T) {
	var p progress
	p.record(time.Millisecond, nil)
	p.record(2*time.Millisecond, resd.ErrDeadline)
	p.record(time.Millisecond, resd.ErrNeverFits)
	p.record(3*time.Millisecond, resd.ErrClosed)
	line := p.line(time.Second)
	for _, want := range []string{"1 admitted", "2 rejected", "1 errors", "p99=", "req/s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	if p99 := p.lat.Quantile(0.99); p99 < int64(3*time.Millisecond) || p99 >= int64(6*time.Millisecond) {
		t.Errorf("p99 = %v, want in [3ms, 6ms)", time.Duration(p99))
	}
	var nilProg *progress
	nilProg.record(time.Millisecond, nil) // must not panic
}

// TestReplayWithStatsevery exercises the live ticker path end to end: a
// paced replay with a tiny period must finish cleanly (the ticker stops
// with the stream) and count exactly as the unticked run does.
func TestReplayWithStatsevery(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reqs := make([]request, 50)
	for i := range reqs {
		reqs[i] = request{ready: core.Time(i), q: 2, dur: 5, deadline: resd.NoDeadline}
	}
	res := replay(svc, reqs, []string{""}, 2, 0, 0, 1, 100*time.Microsecond)
	if len(res.admitted) != len(reqs) || res.errored != 0 {
		t.Fatalf("admitted=%d errored=%d, want %d/0", len(res.admitted), res.errored, len(reqs))
	}
}

// TestRemoteReplayMatchesInProcess is the wire-equivalence acceptance
// check: the same synthetic stream replayed serially (one client) against
// an in-process service and against an identically configured service
// behind a resdsrv-style loopback server must produce exactly the same
// accepted placements — IDs, shards, start times — and the same rejection
// tallies. The wire layer may batch and reorder in flight, but with one
// serial caller it must be observationally identical to a function call.
func TestRemoteReplayMatchesInProcess(t *testing.T) {
	const (
		m     = 32
		n     = 600
		alpha = 0.25
		seed  = 7
		slack = 400 // tight enough that some requests deadline-reject
	)
	cfg := resd.Config{Shards: 4, M: m, Alpha: alpha}
	reqs, err := requestStream("", m, n, alpha, seed, slack, 1, "uniform")
	if err != nil {
		t.Fatal(err)
	}

	// In-process run.
	direct, err := resd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want := replay(direct, reqs, []string{""}, 1, 0, 0.4, seed, 0)

	// Identical service behind the wire.
	remoteSvc, err := resd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteSvc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reswire.NewServer(remoteSvc)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	client, err := reswire.Dial(ln.Addr().String(), reswire.Options{Conns: 1, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got := replay(client, reqs, []string{""}, 1, 0, 0.4, seed, 0)

	if got.errored != 0 || want.errored != 0 {
		t.Fatalf("hard errors: remote %d (first %v), direct %d (first %v)",
			got.errored, got.firstErr, want.errored, want.firstErr)
	}
	if len(want.admitted) == 0 || want.rejectedDeadline == 0 {
		t.Fatalf("degenerate stream: %d admitted, %d deadline rejections — tune the test workload",
			len(want.admitted), want.rejectedDeadline)
	}
	if got.rejectedAlpha != want.rejectedAlpha || got.rejectedDeadline != want.rejectedDeadline {
		t.Errorf("rejections diverged: remote α=%d dl=%d, direct α=%d dl=%d",
			got.rejectedAlpha, got.rejectedDeadline, want.rejectedAlpha, want.rejectedDeadline)
	}
	if !reflect.DeepEqual(got.admitted, want.admitted) {
		if len(got.admitted) != len(want.admitted) {
			t.Fatalf("admitted counts diverged: remote %d, direct %d", len(got.admitted), len(want.admitted))
		}
		for i := range want.admitted {
			if got.admitted[i] != want.admitted[i] {
				t.Fatalf("placement %d diverged:\nremote %+v\ndirect %+v", i, got.admitted[i], want.admitted[i])
			}
		}
	}
}

func TestRequestStreamAppliesSlack(t *testing.T) {
	withSlack, err := requestStream("", 16, 50, 0.5, 1, 300, 1, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	without, err := requestStream("", 16, 50, 0.5, 1, 0, 1, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	for i := range withSlack {
		if want := withSlack[i].ready + 300; withSlack[i].deadline != want {
			t.Fatalf("request %d deadline = %v, want ready+300 = %v", i, withSlack[i].deadline, want)
		}
		if without[i].deadline != resd.NoDeadline {
			t.Fatalf("request %d without slack has deadline %v", i, without[i].deadline)
		}
	}
}

// TestReplayRecordsSlackPerTenant pins the per-admission slack samples
// and their tenant attribution: the parallel buffers must line up so the
// per-tenant table reports each tenant's own push-back, not a shuffle.
func TestReplayRecordsSlackPerTenant(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Serial (one client): the first fills [0,10), the second is pushed to
	// start 10 — slack 0 for tenant 0, slack 10 for tenant 1.
	reqs := []request{
		{ready: 0, q: 8, dur: 10, deadline: resd.NoDeadline, tenant: 0},
		{ready: 0, q: 8, dur: 10, deadline: resd.NoDeadline, tenant: 1},
	}
	res := replay(svc, reqs, []string{"t0", "t1"}, 1, 0, 0, 1, 0)
	if len(res.slacks) != 2 || len(res.latTenant) != 2 {
		t.Fatalf("recorded %d slacks / %d tenant indexes, want 2/2", len(res.slacks), len(res.latTenant))
	}
	byTenant := map[uint16]float64{}
	for i, s := range res.slacks {
		byTenant[res.latTenant[i]] = s
	}
	if byTenant[0] != 0 || byTenant[1] != 10 {
		t.Fatalf("slack by tenant = %v, want t0:0 t1:10", byTenant)
	}
}

// TestTenantTableUsesUnsortedBuffers pins the table-assembly ordering
// contract: tenantTable consumes the recording buffers positionally, so
// feeding it hand-built parallel data must attribute every sample to its
// own tenant.
func TestTenantTableUsesUnsortedBuffers(t *testing.T) {
	res := result{
		lats:      []float64{5000, 1000, 3000},
		slacks:    []float64{50, 0, 30},
		latTenant: []uint16{1, 0, 1},
		perTenant: make([]tenantCounts, 2),
	}
	tbl := tenantTable([]string{"a", "b"}, res).String()
	// Tenant b's slack-p99 is 50 (its own samples 50 and 30), tenant a's
	// is 0; a shuffled attribution would leak b's samples into a.
	if !strings.Contains(tbl, "50") {
		t.Fatalf("tenant table lost tenant b's slack:\n%s", tbl)
	}
}
