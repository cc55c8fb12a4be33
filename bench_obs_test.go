package repro

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
	"repro/internal/slo"
)

// --- observability overhead (BENCH_obs.json) ---
//
// The obs layer promises to be invisible from the admission hot path:
// metrics are lock-free atomics bumped outside the event loops' critical
// decisions, scrapes read published snapshots, and tracing samples one in
// N requests into a fixed ring. BenchmarkObsOverhead prices that promise:
// the same preloaded Reserve+Cancel workload as BenchmarkResdThroughput,
// once against a bare service and once against one carrying a full metric
// registry plus 1-in-64 admission tracing. The recorded ratio is the
// figure the CI gate holds the instrumentation to.

// obsBenchTraceSample is the tracing rate of the instrumented variant:
// the production-shaped setting (sampled, not exhaustive).
const obsBenchTraceSample = 64

// obsServices memoizes the preloaded per-mode services, exactly
// as resdServices does: preloading is seconds of work and the measured
// loop restores its own state.
var (
	obsSvcMu    sync.Mutex
	obsServices = map[string]*resd.Service{}
)

// obsLoadedService returns the preloaded 4-shard tree service, bare or
// carrying the full obs surface (registry + sampled tracing). The preload
// mirrors resdLoadedService so the measured op sees the same blocking
// segments in both variants. The "watch" mode service is instrumented
// exactly like "on" — the live Watch subscriber is attached per run by
// attachObsWatcher, not here. The "flight" mode additionally arms the
// flight recorder (journal hooks, per-turn heartbeat stamps, and the
// watchdog polling shard probes at the default cadence), pricing the
// black-box layer's hot-path footprint. Bundles stay disabled (no
// directory): a healthy benchmark never captures one, and the figure
// priced here is the always-on cost, not anomaly handling.
func obsLoadedService(tb testing.TB, mode string) *resd.Service {
	tb.Helper()
	obsSvcMu.Lock()
	defer obsSvcMu.Unlock()
	if svc, ok := obsServices[mode]; ok {
		return svc
	}
	cfg := resd.Config{
		Shards: 4, M: resdBenchM,
		Placement: "least-loaded", Batch: 64,
	}
	if mode != "off" {
		cfg.Obs = &resd.ObsConfig{
			Registry:    obs.NewRegistry(),
			TraceSample: obsBenchTraceSample,
		}
	}
	if mode == "flight" {
		rec, err := flight.New(flight.Config{Registry: cfg.Obs.Registry})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Obs.Flight = rec
	}
	if mode == "slo" {
		// A representative armed engine: one objective per signal kind, so
		// the hot path pays every per-decision cost the engine can impose
		// (the sloBook atomics and the service-wide slack histogram — the
		// evaluation ticker itself runs off-path at its own period).
		eng, err := slo.New(slo.Config{
			Registry: cfg.Obs.Registry,
			Spec: slo.Spec{Objectives: []slo.ObjectiveSpec{
				{Name: "deadline", Signal: "deadline_attainment", Target: 0.99},
				{Name: "slack", Signal: "slack", Target: 0.95, Bound: 1 << 12},
				{Name: "success", Signal: "error_rate", Target: 0.999},
			}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Obs.SLO = eng
	}
	svc, err := resd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(0xD1CE)
	for i := 0; i < resdBenchTotalRes; i++ {
		ready := core.Time(r.Int63n(resdBenchHorizon))
		q := r.Intn(resdBenchM/4) + 1
		if i%10 == 0 {
			q = resdBenchM - r.Intn(8) - 1
		}
		dur := core.Time(r.Intn(80) + 20)
		if _, err := svc.Admit(resd.Request{Ready: ready, Q: q, Dur: dur, Deadline: resd.NoDeadline}); err != nil {
			tb.Fatal(err)
		}
	}
	obsServices[mode] = svc // retained for the process lifetime, by design
	return svc
}

// attachObsWatcher puts a live Watch subscriber on the service for the
// duration of a benchmark run: a loopback reswire server, one client
// subscribed to every telemetry family at the fastest interval the
// protocol grants, and a goroutine draining the frames. The returned
// stop function tears the whole chain down and waits for the drain to
// exit. This is the "someone is tailing the live dashboard" state the
// obs=watch mode prices.
func attachObsWatcher(tb testing.TB, svc *resd.Service) (stop func()) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := reswire.NewServer(svc)
	go srv.Serve(ln)
	client, err := reswire.Dial(ln.Addr().String(), reswire.Options{})
	if err != nil {
		ln.Close()
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := client.Watch(ctx, reswire.WatchOptions{Interval: reswire.MinWatchInterval})
	if err != nil {
		cancel()
		client.Close()
		ln.Close()
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	return func() {
		cancel()
		<-done
		client.Close()
		ln.Close()
	}
}

// BenchmarkObsOverhead measures the admission path with the obs layer
// off, on, on with a live Watch subscriber streaming telemetry at the
// protocol's minimum interval, on with the flight recorder armed
// (journal, heartbeats, watchdog), and on with the SLO engine counting
// every admission decision. The sub-benchmarks run the identical
// workload; the per-mode/off ratios are the whole cost of metrics,
// sampled tracing, a tailing dashboard, the black-box layer, and
// burn-rate alerting.
func BenchmarkObsOverhead(b *testing.B) {
	// Build every mode's service before measuring any of them: the
	// recorded figures are ratios, and lazily preloading inside each
	// sub-benchmark would measure "off" with one retained service on the
	// heap and "watch" with three — a systematic GC handicap on the later
	// modes that repetition cannot average away.
	for _, mode := range []string{"off", "on", "watch", "flight", "slo"} {
		obsLoadedService(b, mode)
	}
	// Three interleaved rounds of the mode triple: the figures this
	// benchmark exists for are ratios, and a machine that drifts during
	// the sweep (thermals, cgroup throttling, a co-tenant waking up)
	// would otherwise mint fake overhead on whichever mode always ran
	// last — -count can't fix that, it repeats each leaf consecutively.
	// Go suffixes the repeated names (#01, #02); benchgate strips the
	// suffix and averages the rounds.
	for round := 0; round < 3; round++ {
		for _, mode := range []string{"off", "on", "watch", "flight", "slo"} {
			b.Run("obs="+mode, func(b *testing.B) {
				svc := obsLoadedService(b, mode)
				if mode == "watch" {
					stop := attachObsWatcher(b, svc)
					defer stop()
				}
				var seq uint64
				b.SetParallelism(32)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					obsSvcMu.Lock()
					seq++
					r := rng.NewStream(42, seq)
					obsSvcMu.Unlock()
					for pb.Next() {
						if err := resdBenchOp(svc, r); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// TestEmitObsBenchJSON records the off/on/watch/flight figures and their
// ratios as BENCH_obs.json at the repository root. Opt-in
// (REPRO_EMIT_BENCH=1). It also enforces the design claim directly: full
// instrumentation must cost less than 5% of admission throughput — even
// with a live Watch subscriber streaming telemetry while the measurement
// runs, and even with the flight recorder's heartbeats and watchdog
// armed.
func TestEmitObsBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the obs overhead and write BENCH_obs.json")
	}
	type row struct {
		Obs     string  `json:"obs"`
		NsPerOp float64 `json:"ns_per_op"`
	}
	out := struct {
		Benchmark      string  `json:"benchmark"`
		M              int     `json:"m"`
		Shards         int     `json:"shards"`
		TotalRes       int     `json:"preloaded_reservations_total"`
		TraceSample    int     `json:"trace_sample"`
		Workload       string  `json:"workload"`
		GoVersion      string  `json:"go_version"`
		MaxProcs       int     `json:"gomaxprocs"`
		Rows           []row   `json:"rows"`
		Overhead       float64 `json:"overhead"`
		WatchOverhead  float64 `json:"watch_overhead"`
		FlightOverhead float64 `json:"flight_overhead"`
		SLOOverhead    float64 `json:"slo_overhead"`
		MaxOverhead    float64 `json:"max_overhead"`
	}{
		Benchmark:   "obs instrumentation overhead: Reserve+Cancel with the metrics registry and sampled tracing off vs on vs on-with-live-Watch-subscriber vs on-with-flight-recorder vs on-with-slo-engine",
		M:           resdBenchM,
		Shards:      4,
		TotalRes:    resdBenchTotalRes,
		TraceSample: obsBenchTraceSample,
		Workload: "same preloaded stream and op mix as BenchmarkResdThroughput (32 clients, " +
			"15% near-machine-wide requests), tree backend",
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		MaxOverhead: 1.05,
	}
	measure := func(mode string) float64 {
		svc := obsLoadedService(t, mode)
		if mode == "watch" {
			stop := attachObsWatcher(t, svc)
			defer stop()
		}
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				obsSvcMu.Lock()
				seq++
				r := rng.NewStream(42, seq)
				obsSvcMu.Unlock()
				for pb.Next() {
					if err := resdBenchOp(svc, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return float64(res.NsPerOp())
	}
	// Interleaved rounds, averaged per mode: the recorded figures are
	// ratios of numbers measured minutes apart, and a machine that drifts
	// (thermals, a co-tenant waking up) during a mode-by-mode sweep shows
	// up as fake overhead on whichever mode ran last. Rotating through
	// the modes each round spreads the drift evenly instead. Services are
	// prebuilt for the same reason BenchmarkObsOverhead prebuilds them:
	// every mode must see the identical retained heap.
	const rounds = 3
	modes := []string{"off", "on", "watch", "flight", "slo"}
	for _, mode := range modes {
		obsLoadedService(t, mode)
	}
	ns := map[string]float64{}
	for round := 0; round < rounds; round++ {
		for _, mode := range modes {
			ns[mode] += measure(mode) / rounds
		}
	}
	for _, mode := range modes {
		out.Rows = append(out.Rows, row{Obs: mode, NsPerOp: ns[mode]})
	}
	out.Overhead = ns["on"] / ns["off"]
	out.WatchOverhead = ns["watch"] / ns["off"]
	out.FlightOverhead = ns["flight"] / ns["off"]
	out.SLOOverhead = ns["slo"] / ns["off"]
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("obs off %.0f ns/op, on %.0f ns/op, watch %.0f ns/op, flight %.0f ns/op, slo %.0f ns/op: %.3f× / %.3f× / %.3f× / %.3f× overhead",
		ns["off"], ns["on"], ns["watch"], ns["flight"], ns["slo"],
		out.Overhead, out.WatchOverhead, out.FlightOverhead, out.SLOOverhead)
	if out.Overhead > out.MaxOverhead {
		t.Errorf("obs overhead %.3f× exceeds the %.2f× budget", out.Overhead, out.MaxOverhead)
	}
	if out.WatchOverhead > out.MaxOverhead {
		t.Errorf("obs overhead with a live watcher %.3f× exceeds the %.2f× budget",
			out.WatchOverhead, out.MaxOverhead)
	}
	if out.FlightOverhead > out.MaxOverhead {
		t.Errorf("obs overhead with the flight recorder armed %.3f× exceeds the %.2f× budget",
			out.FlightOverhead, out.MaxOverhead)
	}
	if out.SLOOverhead > out.MaxOverhead {
		t.Errorf("obs overhead with the SLO engine armed %.3f× exceeds the %.2f× budget",
			out.SLOOverhead, out.MaxOverhead)
	}
}
