package reswire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// TestNodeSurfacesAgree checks that every telemetry surface renders the
// same resd.NodeSnapshot: after a seeded mix of admissions, cancellations
// and every kind of refusal, a quiesced service's Node() equals the Stats
// op over the wire, a Watch frame, the /metrics value of every family
// that carries one of its fields, and a flight bundle's node.json. The
// bare arm runs a service with no quotas, no log and no SLO engine, whose
// Node() has those families nil: the frame must decode them as nil too.
func TestNodeSurfacesAgree(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkNodeSurfaces(t, seed) })
	}
	t.Run("bare", checkBareNodeSurfaces)
}

func checkBareNodeSurfaces(t *testing.T) {
	reg := obs.NewRegistry()
	flightDir := t.TempDir()
	rec, err := flight.New(flight.Config{Registry: reg, Dir: flightDir})
	if err != nil {
		t.Fatal(err)
	}
	addr, svc := startServer(t, resd.Config{Shards: 2, M: 8,
		Obs: &resd.ObsConfig{Registry: reg, TraceSample: 1, Flight: rec}})
	c := dial(t, addr, Options{Conns: 1})
	for i := 0; i < 20; i++ {
		// Every fifth asks to start at once on a machine the others fill.
		req := resd.Request{Ready: core.Time(i), Q: 3, Dur: 40, Deadline: resd.NoDeadline}
		if i%5 == 4 {
			req.Deadline = req.Ready
		}
		if _, err := c.Admit(req); err != nil && !errors.Is(err, resd.ErrDeadline) {
			t.Fatalf("admit %+v: %v", req, err)
		}
	}
	node := agreeQuiesced(t, c, svc, rec, flightDir, reg)
	if node.Tenants != nil || node.WAL != nil || node.SLO != nil {
		t.Fatalf("bare service's Node has a family it runs without: %+v", node)
	}
	var admitted, dl uint64
	for _, st := range node.Shards {
		admitted, dl = admitted+st.Admitted, dl+st.RejectedDeadline
	}
	if admitted == 0 || dl == 0 || node.TracesSampled == 0 {
		t.Errorf("traffic left a counter at zero: %+v", node)
	}
}

func checkNodeSurfaces(t *testing.T, seed uint64) {
	const shards, m = 3, 16
	reg := obs.NewRegistry()
	flightDir := t.TempDir()
	rec, err := flight.New(flight.Config{Registry: reg, Dir: flightDir})
	if err != nil {
		t.Fatal(err)
	}
	// A minute-long period: the engine ticks once at Start and then only
	// when the test says so, so its states hold still while surfaces are
	// read.
	rules := []slo.RuleSpec{{Severity: "page", Burn: 2, Short: "1m", Long: "5m"}}
	eng, err := slo.New(slo.Config{Registry: reg, Journal: rec.Journal(), Spec: slo.Spec{
		Period: "1m", BudgetWindow: "1h",
		Objectives: []slo.ObjectiveSpec{
			{Name: "deadline", Signal: "deadline_attainment", Target: 0.9, Rules: rules},
			{Name: "acme-deadline", Signal: "deadline_attainment", Tenant: "acme", Target: 0.9, Rules: rules},
			{Name: "slack", Signal: "slack", Target: 0.5, Bound: 15, Rules: rules},
			{Name: "success", Signal: "error_rate", Target: 0.99, Rules: rules},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	quotas := mustRegistry(t, shards*(m-4)*1000, tenant.Spec{Mode: "hard", Tenants: []tenant.TenantSpec{
		{Name: "acme", Share: 0.02}, {Name: "beta", Share: 0.5}}})
	addr, svc := startServer(t, resd.Config{
		Shards: shards, M: m, Alpha: 0.25, Quotas: quotas,
		// Four processors held for ever: a request for 9–12 passes the
		// static α check (q + 4 ≤ 16) but no shard ever has room for it.
		Pre: []core.Reservation{{Procs: 4, Start: 0, Len: core.Infinity}},
		// Every admission sampled: more than the ring holds, so the counters
		// the surfaces carry are lifetime totals, not the ring's length.
		Obs: &resd.ObsConfig{Registry: reg, TraceSample: 1, SlowThreshold: 20 * time.Microsecond,
			Flight: rec, SLO: eng},
		WAL: &wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone, SnapEvery: 32},
	})
	c := dial(t, addr, Options{Conns: 1})

	r := rng.New(seed)
	tenants := []string{"acme", "beta", ""}
	var held []resd.ID
	// The engine's reading of the traffic, counted from the client's side
	// as the service counts it: each decision once, the deadline pairs
	// service-wide and for acme, and every admission's slack.
	reading := slo.Sample{TenantDeadline: map[string][2]uint64{}}
	var slack obs.Histogram
	for op := 0; op < 400; op++ {
		if k := r.Intn(10); k < 2 && len(held) > 0 {
			i := r.Intn(len(held))
			if err := c.Cancel(held[i]); err != nil {
				t.Fatalf("seed %d: cancel: %v", seed, err)
			}
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		req := resd.Request{Tenant: tenants[r.Intn(len(tenants))], Ready: core.Time(r.Intn(200)),
			Q: r.IntRange(1, 6), Dur: core.Time(r.IntRange(1, 50)), Deadline: resd.NoDeadline}
		switch r.Intn(10) {
		case 0:
			req.Q = r.IntRange(9, 12) // refused for capacity on every shard
		case 1, 2:
			req.Deadline = req.Ready // refused for its deadline once the shards fill
		}
		resv, err := c.Admit(req)
		switch {
		case err == nil:
			held = append(held, resv.ID)
		case !errors.Is(err, resd.ErrNeverFits) && !errors.Is(err, resd.ErrDeadline) && !errors.Is(err, resd.ErrQuota):
			t.Fatalf("seed %d: admit %+v: %v", seed, req, err)
		}
		pair := reading.TenantDeadline["acme"]
		switch {
		case err == nil:
			reading.Admitted++
			slack.Observe(int64(resv.Start - req.Ready))
			if req.Deadline != resd.NoDeadline {
				reading.DeadlineAdmitted++
				pair[0]++
			}
		case errors.Is(err, resd.ErrDeadline):
			reading.Rejected++
			reading.DeadlineRejected++
			pair[1]++
		default:
			reading.Rejected++
		}
		if req.Tenant == "acme" {
			reading.TenantDeadline["acme"] = pair
		}
	}
	slack.Snapshot(&reading.Slack)
	eng.Tick(time.Now(), &reading) // the states now cover the traffic

	before := agreeQuiesced(t, c, svc, rec, flightDir, reg)
	// The traffic reached every field the surfaces share, so agreement is
	// not agreement on zeros.
	var rej, dl, quota, cancelled, snaps uint64
	for _, st := range before.Shards {
		rej, dl, quota, cancelled = rej+st.Rejected, dl+st.RejectedDeadline, quota+st.RejectedQuota, cancelled+st.Cancelled
	}
	for _, w := range before.WAL {
		snaps += w.Snapshots
	}
	if rej == 0 || dl == 0 || quota == 0 || cancelled == 0 || snaps == 0 || before.TracesSampled <= resd.TraceRingLen ||
		len(before.Tenants) < 2 || len(before.WAL) != shards || len(before.SLO) != 4 {
		t.Errorf("seed %d: traffic left a family empty or the trace ring unwrapped: %+v", seed, before)
	}
}

// agreeQuiesced reads every surface until the node holds still across
// the reading, reports each surface that differs from Node(), and
// returns that Node().
func agreeQuiesced(t *testing.T, c *Client, svc *resd.Service, rec *flight.Recorder, flightDir string,
	reg *obs.Registry) resd.NodeSnapshot {
	t.Helper()
	for attempt := 0; ; attempt++ {
		before := svc.Node()
		diffs := nodeSurfaceDiffs(t, c, svc, rec, flightDir, reg, before)
		if after := svc.Node(); !reflect.DeepEqual(before, after) {
			// Not quiesced yet (a background snapshot write finishing, the
			// engine's own tick): read every surface again. Neither says
			// when it is done, so the node is polled until it holds still.
			if attempt == 50 {
				t.Fatalf("the node never held still: %+v then %+v", before, after)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		for _, d := range diffs {
			t.Error(d)
		}
		return before
	}
}

// nodeSurfaceDiffs reads every surface once and lists where each differs
// from want.
func nodeSurfaceDiffs(t *testing.T, c *Client, svc *resd.Service, rec *flight.Recorder, flightDir string,
	reg *obs.Registry, want resd.NodeSnapshot) []string {
	t.Helper()
	var diffs []string
	differ := func(surface string, got, want any) {
		if !reflect.DeepEqual(got, want) {
			diffs = append(diffs, fmt.Sprintf("%s:\n got %+v\nNode %+v", surface, got, want))
		}
	}

	// (a) The Stats op.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	differ("Stats op", stats, want.Shards)

	// (b) A Watch frame, taken after the traffic.
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := c.Watch(ctx, WatchOptions{Interval: MinWatchInterval})
	if err != nil {
		t.Fatal(err)
	}
	tel := <-ch
	cancel()
	drainWatch(t, ch)
	differ("Watch frame", tel.NodeSnapshot, want)

	// (c) /metrics: every family that renders a NodeSnapshot field.
	srv := httptest.NewServer(obs.Handler(reg, nil, nil))
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name string, v float64, labels ...string) {
		want := map[string]string{}
		for i := 0; i < len(labels); i += 2 {
			want[labels[i]] = labels[i+1]
		}
		got, ok := exp.Value(name, want)
		if !ok || got != v {
			diffs = append(diffs, fmt.Sprintf("/metrics %s%v = %v (one such series: %v), Node has %v", name, want, got, ok, v))
		}
	}
	series := func(name string, n int) {
		got := 0
		if f := exp.Family(name); f != nil {
			for _, s := range f.Samples {
				if s.Name == name {
					got++
				}
			}
		}
		if got != n {
			diffs = append(diffs, fmt.Sprintf("/metrics %s has %d series, Node has %d rows", name, got, n))
		}
	}
	for _, f := range []string{"resd_shard_queue_depth", "resd_shard_active", "resd_shard_committed_area",
		"resd_shard_batches_total", "resd_shard_ops_total", "resd_shard_ops_per_batch",
		"resd_admitted_total", "resd_cancelled_total"} {
		series(f, len(want.Shards))
	}
	series("resd_rejected_total", 3*len(want.Shards))
	for i, st := range want.Shards {
		sh := strconv.Itoa(i)
		metric("resd_shard_queue_depth", float64(want.Queue[i]), "shard", sh)
		metric("resd_shard_active", float64(st.Active), "shard", sh)
		metric("resd_shard_committed_area", float64(st.CommittedArea), "shard", sh)
		metric("resd_shard_batches_total", float64(st.Batches), "shard", sh)
		metric("resd_shard_ops_total", float64(st.Ops), "shard", sh)
		metric("resd_shard_ops_per_batch", float64(st.Ops)/float64(st.Batches), "shard", sh)
		metric("resd_admitted_total", float64(st.Admitted), "shard", sh)
		metric("resd_cancelled_total", float64(st.Cancelled), "shard", sh)
		metric("resd_rejected_total", float64(st.Rejected), "shard", sh, "reason", "capacity")
		metric("resd_rejected_total", float64(st.RejectedDeadline), "shard", sh, "reason", "deadline")
		metric("resd_rejected_total", float64(st.RejectedQuota), "shard", sh, "reason", "quota")
		metric("resd_slack_ticks", float64(st.SlackP99), "shard", sh, "quantile", "0.99")
	}
	for _, f := range []string{"resd_wal_bytes_total", "resd_wal_records_total", "resd_wal_fsyncs_total",
		"resd_wal_snapshots_total", "resd_wal_failures_total", "resd_wal_generation"} {
		series(f, len(want.WAL))
	}
	for _, w := range want.WAL {
		sh := strconv.Itoa(w.Shard)
		metric("resd_wal_bytes_total", float64(w.Bytes), "shard", sh)
		metric("resd_wal_records_total", float64(w.Records), "shard", sh)
		metric("resd_wal_fsyncs_total", float64(w.Fsyncs), "shard", sh)
		metric("resd_wal_snapshots_total", float64(w.Snapshots), "shard", sh)
		metric("resd_wal_failures_total", float64(w.Failed), "shard", sh)
		metric("resd_wal_generation", float64(w.Gen), "shard", sh)
		metric("resd_wal_fsync_ns", float64(w.FsyncP99), "shard", sh, "quantile", "0.99")
	}
	metric("resd_traces_sampled_total", float64(want.TracesSampled))
	metric("resd_slow_requests_total", float64(want.TracesSlow))
	for _, f := range []string{"tenant_quota_budget", "tenant_quota_used", "tenant_quota_inflight"} {
		series(f, len(want.Tenants))
	}
	for _, u := range want.Tenants {
		metric("tenant_quota_budget", float64(u.Budget), "tenant", u.Tenant)
		metric("tenant_quota_used", float64(u.Used), "tenant", u.Tenant)
		metric("tenant_quota_inflight", float64(u.Inflight), "tenant", u.Tenant)
	}
	for _, f := range []string{"resd_slo_attainment", "resd_slo_error_budget_remaining", "resd_slo_alert_state"} {
		series(f, len(want.SLO))
	}
	for _, o := range want.SLO {
		metric("resd_slo_attainment", o.Attainment, "objective", o.Name, "tenant", o.Tenant)
		metric("resd_slo_error_budget_remaining", o.BudgetRemaining, "objective", o.Name, "tenant", o.Tenant)
		metric("resd_slo_alert_state", float64(o.Severity), "objective", o.Name, "tenant", o.Tenant)
		burnMax := 0.0
		for _, s := range exp.Family("resd_slo_burn_rate").Samples {
			if s.Labels["objective"] == o.Name {
				burnMax = max(burnMax, s.Value)
			}
		}
		if burnMax != o.BurnMax {
			diffs = append(diffs, fmt.Sprintf("/metrics max resd_slo_burn_rate{objective=%q} = %v, Node has %v", o.Name, burnMax, o.BurnMax))
		}
	}

	// (d) A flight bundle's node.json.
	name, err := rec.Capture("surface agreement")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(flightDir, name, "node.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		WAL  resd.WALInfo      `json:"wal"`
		Node resd.NodeSnapshot `json:"node"`
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatal(err)
	}
	differ("bundle node.json", bundle.Node, want)
	differ("bundle node.json WALInfo", bundle.WAL, svc.WALInfo())
	return diffs
}
