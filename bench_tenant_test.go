package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/tenant"
)

// --- multi-tenant quota throughput (BENCH_tenant.json) ---
//
// The scenario is the quota tax: the same Reserve+Cancel admission round
// trip as BenchmarkResdThroughput, but through a tenant registry, across
// two axes — how many tenants share the prefix (1/4/16, equal shares)
// and which enforcement mode gates them. The registry's accounting is a
// sync.Map read plus a handful of atomics per admission, so the recorded
// claim is that quotas cost only a modest constant over the quota-less
// service, flat in the tenant count; a regression here (a lock on the
// acquire path, a scan over tenants) shows up directly as ns/op growth.

const (
	tenantBenchM       = 256
	tenantBenchShards  = 4
	tenantBenchAlpha   = 0.25
	tenantBenchPreload = 8192
	tenantBenchHorizon = 1 << 18
)

var (
	tenantBenchTenants = []int{1, 4, 16}
	tenantBenchModes   = []string{"hard", "soft"}
)

// tenantBenchNames memoizes the tenant name tables.
func tenantBenchNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// tenantLoadedServices memoizes preloaded services per (tenants, mode),
// mirroring resdLoadedService: the measured loop is Reserve+Cancel pairs,
// which restore the preloaded steady state exactly.
var (
	tenantSvcMu    sync.Mutex
	tenantServices = map[string]*resd.Service{}
)

func tenantLoadedService(tb testing.TB, tenants int, mode string) *resd.Service {
	tb.Helper()
	key := fmt.Sprintf("%d/%s", tenants, mode)
	tenantSvcMu.Lock()
	defer tenantSvcMu.Unlock()
	if svc, ok := tenantServices[key]; ok {
		return svc
	}
	names := tenantBenchNames(tenants)
	spec := tenant.Spec{Mode: mode}
	for _, name := range names {
		spec.Tenants = append(spec.Tenants, tenant.TenantSpec{Name: name, Share: 1 / float64(tenants)})
	}
	floor := int(tenantBenchAlpha * tenantBenchM)
	reg, err := tenant.New(tenant.PrefixCapacity(tenantBenchShards, tenantBenchM, tenantBenchAlpha, tenantBenchHorizon), spec)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := resd.New(resd.Config{
		Shards: tenantBenchShards, M: tenantBenchM, Alpha: tenantBenchAlpha,
		Placement: "least-loaded", Batch: 64, Quotas: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < tenantBenchPreload; i++ {
		ready := core.Time(r.Int63n(tenantBenchHorizon))
		q := r.Intn((tenantBenchM-floor)/4) + 1
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Tenant: names[i%tenants], Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	tenantServices[key] = svc // retained for the process lifetime, by design
	return svc
}

// tenantBenchOp is one measured admission: Admit for a tenant chosen by
// the caller's stream, Cancel straight after — one full quota
// acquire/admit/release cycle through the shard event loops.
func tenantBenchOp(svc *resd.Service, names []string, r *rng.PCG) error {
	floor := int(tenantBenchAlpha * tenantBenchM)
	ready := core.Time(r.Int63n(tenantBenchHorizon))
	q := r.Intn((tenantBenchM-floor)/4) + 1
	dur := core.Time(r.Intn(100) + 20)
	resv, err := svc.Admit(resd.Request{Tenant: names[r.Intn(len(names))], Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
	if err != nil {
		return err
	}
	return svc.Cancel(resv.ID)
}

// BenchmarkTenantThroughput measures admission throughput through the
// quota registry across the tenant-count and enforcement-mode axes. The
// rows are recorded in BENCH_tenant.json and gated in CI by
// cmd/benchgate -tenant.
func BenchmarkTenantThroughput(b *testing.B) {
	for _, tenants := range tenantBenchTenants {
		for _, mode := range tenantBenchModes {
			b.Run(fmt.Sprintf("tenants=%d/mode=%s", tenants, mode), func(b *testing.B) {
				svc := tenantLoadedService(b, tenants, mode)
				names := tenantBenchNames(tenants)
				var seq uint64
				b.SetParallelism(32)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					tenantSvcMu.Lock()
					seq++
					r := rng.NewStream(42, seq)
					tenantSvcMu.Unlock()
					for pb.Next() {
						if err := tenantBenchOp(svc, names, r); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// TestEmitTenantBenchJSON records the quota-throughput matrix as
// BENCH_tenant.json at the repository root. Opt-in (REPRO_EMIT_BENCH=1).
// It also enforces the claim the registry is built for: accounting is
// flat in the tenant count — 16 tenants may cost at most 1.8× the
// 1-tenant figure in either mode.
func TestEmitTenantBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the quota layer and write BENCH_tenant.json")
	}
	type row struct {
		Tenants   int     `json:"tenants"`
		Mode      string  `json:"mode"`
		NsPerOp   float64 `json:"ns_per_op"`
		OpsPerSec float64 `json:"ops_per_sec"`
	}
	out := struct {
		Benchmark string  `json:"benchmark"`
		M         int     `json:"m"`
		Shards    int     `json:"shards"`
		Alpha     float64 `json:"alpha"`
		Preload   int     `json:"preloaded_reservations"`
		Horizon   int64   `json:"accounting_horizon_ticks"`
		Workload  string  `json:"workload"`
		GoVersion string  `json:"go_version"`
		MaxProcs  int     `json:"gomaxprocs"`
		Rows      []row   `json:"rows"`
	}{
		Benchmark: "multi-tenant quota admission throughput: Reserve+Cancel vs tenant count × enforcement mode",
		M:         tenantBenchM,
		Shards:    tenantBenchShards,
		Alpha:     tenantBenchAlpha,
		Preload:   tenantBenchPreload,
		Horizon:   tenantBenchHorizon,
		Workload: "tree backend, least-loaded placement, equal shares, 32 clients round-robining " +
			"tenants; hard mode pays the CAS acquire, soft mode the ratio-ordered batches",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	measure := func(tenants int, mode string) float64 {
		svc := tenantLoadedService(t, tenants, mode)
		names := tenantBenchNames(tenants)
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				tenantSvcMu.Lock()
				seq++
				r := rng.NewStream(42, seq)
				tenantSvcMu.Unlock()
				for pb.Next() {
					if err := tenantBenchOp(svc, names, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return float64(res.NsPerOp())
	}
	single := map[string]float64{}
	for _, tenants := range tenantBenchTenants {
		for _, mode := range tenantBenchModes {
			ns := measure(tenants, mode)
			if tenants == 1 {
				single[mode] = ns
			}
			out.Rows = append(out.Rows, row{Tenants: tenants, Mode: mode, NsPerOp: ns, OpsPerSec: 1e9 / ns})
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_tenant.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Rows {
		t.Logf("tenants=%d mode=%s: %.0f ns/op (%.0f ops/s, %.2f× vs 1 tenant)",
			r.Tenants, r.Mode, r.NsPerOp, r.OpsPerSec, r.NsPerOp/single[r.Mode])
		if r.Tenants == 16 && r.NsPerOp > single[r.Mode]*1.8 {
			t.Errorf("%s mode at 16 tenants is %.2f× the 1-tenant cost, want <= 1.8× (accounting must stay flat)",
				r.Mode, r.NsPerOp/single[r.Mode])
		}
	}
}
