package repro

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
)

// --- reswire throughput over loopback (BENCH_reswire.json) ---
//
// The scenario is the wire tax: the same Reserve+Cancel admission round
// trip as BenchmarkResdThroughput, but through the reswire protocol over
// a loopback TCP connection. The axes are concurrent client goroutines
// (1/4/16, multiplexed over one shared connection) and pipelining on/off. With
// pipelining off every request pays a full write-flush-wait round trip —
// the classic RPC shape; with it on, concurrent callers' frames share
// flushes on both sides, so the syscall cost amortises across whatever
// is in flight. The recorded claim is that at 16 clients pipelining buys
// at least 2× the unpipelined throughput.

const (
	wireBenchM       = 256
	wireBenchShards  = 4
	wireBenchPreload = 4096
	wireBenchHorizon = 1 << 18
	wireBenchConns   = 1
)

var wireBenchClients = []int{1, 4, 16}

// wireBenchEndpoint memoizes one preloaded service + loopback server for
// the whole bench process (mirrors resdLoadedService): the measured loop
// is Reserve+Cancel pairs, which restore the preloaded state exactly.
var (
	wireBenchMu   sync.Mutex
	wireBenchAddr string
)

func wireBenchEndpoint(tb testing.TB) string {
	tb.Helper()
	wireBenchMu.Lock()
	defer wireBenchMu.Unlock()
	if wireBenchAddr != "" {
		return wireBenchAddr
	}
	svc, err := resd.New(resd.Config{
		Shards: wireBenchShards, M: wireBenchM,
		Placement: "least-loaded", Batch: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < wireBenchPreload; i++ {
		ready := core.Time(r.Int63n(wireBenchHorizon))
		q := r.Intn(wireBenchM/4) + 1
		if i%10 == 0 {
			q = wireBenchM - r.Intn(8) - 1 // near-full hold
		}
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go reswire.NewServer(svc).Serve(ln) // retained for the process lifetime, by design
	wireBenchAddr = ln.Addr().String()
	return wireBenchAddr
}

// wireBenchOp is one measured admission round trip: Reserve at a random
// ready time and Cancel straight after, both over the wire.
func wireBenchOp(c *reswire.Client, r *rng.PCG) error {
	ready := core.Time(r.Int63n(wireBenchHorizon))
	q := r.Intn(wireBenchM/4) + 1
	dur := core.Time(r.Intn(100) + 20)
	resv, err := c.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline})
	if err != nil {
		return err
	}
	return c.Cancel(resv.ID)
}

// runWireBench drives b.N admission round trips from the given number of
// client goroutines through one client (Conns fixed at wireBenchConns).
func runWireBench(b *testing.B, clients int, pipeline bool) {
	addr := wireBenchEndpoint(b)
	c, err := reswire.Dial(addr, reswire.Options{Conns: wireBenchConns, Pipeline: pipeline})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		n := b.N / clients
		if g < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			r := rng.NewStream(42, uint64(g+1))
			for i := 0; i < n; i++ {
				if err := wireBenchOp(c, r); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}

func onoff(pipeline bool) string {
	if pipeline {
		return "on"
	}
	return "off"
}

// BenchmarkWireThroughput measures wire-level admission throughput across
// the client-count and pipelining axes. The pipelined rows are recorded
// in BENCH_reswire.json and gated in CI by cmd/benchgate.
func BenchmarkWireThroughput(b *testing.B) {
	for _, clients := range wireBenchClients {
		for _, pipeline := range []bool{false, true} {
			b.Run(fmt.Sprintf("clients=%d/pipeline=%s", clients, onoff(pipeline)), func(b *testing.B) {
				runWireBench(b, clients, pipeline)
			})
		}
	}
}

// TestEmitWireBenchJSON records the wire-throughput matrix as
// BENCH_reswire.json at the repository root. Opt-in (REPRO_EMIT_BENCH=1).
// It also enforces the claim the client is built for: at 16 concurrent
// callers, pipelining must deliver at least 2× the unpipelined
// throughput.
func TestEmitWireBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the wire layer and write BENCH_reswire.json")
	}
	type row struct {
		Clients         int     `json:"clients"`
		Pipeline        string  `json:"pipeline"`
		NsPerOp         float64 `json:"ns_per_op"`
		AllocsPerOp     float64 `json:"allocs_per_op"`
		OpsPerSec       float64 `json:"ops_per_sec"`
		PipelineSpeedup float64 `json:"pipeline_speedup,omitempty"`
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		M         int    `json:"m"`
		Shards    int    `json:"shards"`
		Preload   int    `json:"preloaded_reservations"`
		Conns     int    `json:"client_connections"`
		Workload  string `json:"workload"`
		GoVersion string `json:"go_version"`
		MaxProcs  int    `json:"gomaxprocs"`
		Rows      []row  `json:"rows"`
	}{
		Benchmark: "reswire loopback admission throughput: Reserve+Cancel round trips vs client count × pipelining",
		M:         wireBenchM,
		Shards:    wireBenchShards,
		Preload:   wireBenchPreload,
		Conns:     wireBenchConns,
		Workload: "tree backend, least-loaded placement, moderate widths over a fixed horizon; " +
			"clients multiplexed over one TCP connection on loopback",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	measure := func(clients int, pipeline bool) (float64, float64) {
		res := testing.Benchmark(func(b *testing.B) {
			runWireBench(b, clients, pipeline)
		})
		return float64(res.NsPerOp()), float64(res.AllocsPerOp())
	}
	unpipelined := map[int]float64{}
	for _, clients := range wireBenchClients {
		for _, pipeline := range []bool{false, true} {
			ns, allocs := measure(clients, pipeline)
			r := row{
				Clients: clients, Pipeline: onoff(pipeline),
				NsPerOp: ns, AllocsPerOp: allocs, OpsPerSec: 1e9 / ns,
			}
			if pipeline {
				r.PipelineSpeedup = unpipelined[clients] / ns
			} else {
				unpipelined[clients] = ns
			}
			out.Rows = append(out.Rows, r)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_reswire.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Rows {
		t.Logf("clients=%d pipeline=%s: %.0f ns/op (%.0f ops/s, speedup %.2f×)",
			r.Clients, r.Pipeline, r.NsPerOp, r.OpsPerSec, r.PipelineSpeedup)
		if r.Clients == 16 && r.Pipeline == "on" && r.PipelineSpeedup < 2 {
			t.Errorf("pipelining at 16 clients is only %.2f× the unpipelined throughput, want >= 2×",
				r.PipelineSpeedup)
		}
	}
}
