package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/rng"
	"repro/internal/wal"
)

// --- WAL durability overhead (BENCH_wal.json) ---
//
// The WAL promises that durability rides the batch turn the shard loop
// already takes: records are appended to an in-memory buffer as decisions
// commit, and the whole batch is flushed (and, under SyncBatch, fsynced)
// once per drain — never one syscall per admission. BenchmarkWALOverhead
// prices that promise with the same preloaded Reserve+Cancel workload as
// BenchmarkResdThroughput, across three variants: no WAL, a buffered WAL
// (SyncNone: write() per batch, no fsync — the group-commit machinery
// alone), and a fully synced WAL (SyncBatch: one fsync per batch — the
// physical-disk floor, recorded but not ratio-gated because fsync latency
// is a property of the CI machine's storage, not of this code).

// walBenchSnapEvery keeps snapshot truncation in play without letting it
// dominate: one snapshot per shard every 64Ki records.
const walBenchSnapEvery = 1 << 16

// walServices memoizes the preloaded services per variant, exactly as
// obsServices does: preloading is seconds of work and the measured loop
// restores its own state. The WAL directories live in the OS temp dir and
// are retained for the process lifetime, by design — a benchmark-scoped
// TempDir would be removed between b.N calibration runs while the log is
// still appending.
var (
	walSvcMu    sync.Mutex
	walServices = map[string]*resd.Service{}
)

// walLoadedService returns the preloaded 4-shard tree service with the
// given durability variant: "off" (no WAL), "buffered" (SyncNone), or
// "fsync" (SyncBatch).
func walLoadedService(tb testing.TB, mode string) *resd.Service {
	tb.Helper()
	walSvcMu.Lock()
	defer walSvcMu.Unlock()
	if svc, ok := walServices[mode]; ok {
		return svc
	}
	cfg := resd.Config{
		Shards: 4, M: resdBenchM,
		Placement: "least-loaded", Batch: 64,
	}
	switch mode {
	case "buffered", "fsync":
		dir, err := os.MkdirTemp("", "resd-walbench-"+mode+"-*")
		if err != nil {
			tb.Fatal(err)
		}
		sync := wal.SyncNone
		if mode == "fsync" {
			sync = wal.SyncBatch
		}
		cfg.WAL = &wal.Options{Dir: dir, Sync: sync, SnapEvery: walBenchSnapEvery}
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
	walServices[mode] = svc // retained for the process lifetime, by design
	return svc
}

// BenchmarkWALOverhead measures the admission path with durability off,
// buffered, and fully synced. The three sub-benchmarks run the identical
// workload; the buffered/off ratio is the whole cost of the group-commit
// machinery, and the fsync row is the end-to-end durable figure.
func BenchmarkWALOverhead(b *testing.B) {
	for _, mode := range []string{"off", "buffered", "fsync"} {
		b.Run("wal="+mode, func(b *testing.B) {
			svc := walLoadedService(b, mode)
			var seq uint64
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				walSvcMu.Lock()
				seq++
				r := rng.NewStream(43, seq)
				walSvcMu.Unlock()
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

// TestEmitWALBenchJSON records the off/buffered/fsync figures and the
// buffered/off ratio as BENCH_wal.json at the repository root. Opt-in
// (REPRO_EMIT_BENCH=1). It also enforces the design claim directly: the
// group-commit machinery (everything but the physical fsync) must cost
// less than 50% of admission throughput.
func TestEmitWALBenchJSON(t *testing.T) {
	if os.Getenv("REPRO_EMIT_BENCH") == "" {
		t.Skip("set REPRO_EMIT_BENCH=1 to measure the WAL overhead and write BENCH_wal.json")
	}
	type row struct {
		WAL     string  `json:"wal"`
		NsPerOp float64 `json:"ns_per_op"`
	}
	out := struct {
		Benchmark     string  `json:"benchmark"`
		M             int     `json:"m"`
		Shards        int     `json:"shards"`
		TotalRes      int     `json:"preloaded_reservations_total"`
		SnapEvery     int     `json:"snap_every"`
		Workload      string  `json:"workload"`
		GoVersion     string  `json:"go_version"`
		MaxProcs      int     `json:"gomaxprocs"`
		Rows          []row   `json:"rows"`
		Overhead      float64 `json:"overhead"`
		MaxOverhead   float64 `json:"max_overhead"`
		FsyncOverhead float64 `json:"fsync_overhead"`
	}{
		Benchmark: "WAL durability overhead: Reserve+Cancel with the shard write-ahead log off, buffered (SyncNone), and batch-fsynced (SyncBatch)",
		M:         resdBenchM,
		Shards:    4,
		TotalRes:  resdBenchTotalRes,
		SnapEvery: walBenchSnapEvery,
		Workload: "same preloaded stream and op mix as BenchmarkResdThroughput (32 clients, " +
			"15% near-machine-wide requests), tree backend",
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		MaxOverhead: 1.5,
	}
	measure := func(mode string) float64 {
		svc := walLoadedService(t, mode)
		var seq uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				walSvcMu.Lock()
				seq++
				r := rng.NewStream(43, seq)
				walSvcMu.Unlock()
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
	figures := map[string]float64{}
	for _, mode := range []string{"off", "buffered", "fsync"} {
		ns := measure(mode)
		figures[mode] = ns
		out.Rows = append(out.Rows, row{WAL: mode, NsPerOp: ns})
	}
	out.Overhead = figures["buffered"] / figures["off"]
	out.FsyncOverhead = figures["fsync"] / figures["off"]
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_wal.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wal off %.0f ns/op, buffered %.0f ns/op (%.3f×), fsync %.0f ns/op (%.3f×)",
		figures["off"], figures["buffered"], out.Overhead, figures["fsync"], out.FsyncOverhead)
	if out.Overhead > out.MaxOverhead {
		t.Errorf("buffered WAL overhead %.3f× exceeds the %.2f× budget", out.Overhead, out.MaxOverhead)
	}
}
