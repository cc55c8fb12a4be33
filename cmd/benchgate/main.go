// Command benchgate is the CI bench-regression gate: it parses `go test
// -bench` output and compares the recorded hot paths against their
// baselines — the tree-backend figures in BENCH_restree.json and
// BENCH_resd.json, the wire-throughput matrix in BENCH_reswire.json, the
// multi-tenant quota matrix in BENCH_tenant.json, the instrumentation
// off/on pair in BENCH_obs.json, and the durability off/buffered/fsync
// triple in BENCH_wal.json — failing (exit 1) when any measured figure
// exceeds its recorded baseline by more than the threshold factor.
//
// Usage:
//
//	go test -run '^$' -bench 'CapacityIndex|ResdThroughput|WireThroughput|TenantThroughput|ObsOverhead|WALOverhead' \
//	    -benchtime=0.2s . | tee bench.out
//	benchgate -bench bench.out -restree BENCH_restree.json -resd BENCH_resd.json \
//	    -reswire BENCH_reswire.json -tenant BENCH_tenant.json \
//	    -obs BENCH_obs.json -wal BENCH_wal.json -threshold 2
//
// Baselines that record allocs_per_op (the wire and resd throughput
// matrices) are additionally held to that allocation count at the same
// threshold: allocation regressions are machine-independent and often
// invisible to the ns gate on a fast runner.
//
// The -obs baseline carries a second, much tighter gate on top of the
// absolute figures: the measured on/off and watch/off ratios — numbers
// from the same run, immune to machine speed — must stay within the
// max_overhead budget recorded in BENCH_obs.json (the "observability
// costs <5%, even while a live Watch subscriber streams telemetry"
// claim).
//
// The -wal baseline works the same way: the wal=off and wal=buffered rows
// are gated absolutely, and the measured buffered/off ratio is held to the
// max_overhead budget in BENCH_wal.json (the "group commit, not one
// syscall per admission" claim). The wal=fsync row must be present in the
// bench output but is never gated on speed — fsync latency is a property
// of the CI machine's storage, not of this code.
//
// The threshold is deliberately generous (default 2×): the gate exists to
// catch algorithmic regressions — an accidental O(n) scan reintroduced on
// the tree path shows up as 10×+ — not to police machine-to-machine
// noise. A missing benchmark is also a failure, so the gate cannot pass
// vacuously when a rename silently empties the -bench filter.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkCapacityIndex/backend=tree/n=10000-8   175087   6587 ns/op
//	BenchmarkWireThroughput/clients=1/pipeline=off  45872   26884 ns/op   512 B/op   12 allocs/op
//
// The trailing -N (GOMAXPROCS) is optional: Go omits it when procs is 1.
// A #NN tag before it is the suffix Go appends when a benchmark runs the
// same sub-benchmark name several times (BenchmarkObsOverhead's
// interleaved rounds do); it is stripped, so the rounds average under
// the base name. The B/op + allocs/op tail appears when the benchmark
// calls b.ReportAllocs (or the run passes -benchmem).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:#\d+)?(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// measurement is one parsed benchmark result. allocs is only meaningful
// when hasAllocs is set — a benchmark without ReportAllocs prints no
// allocs/op column at all, which is different from measuring zero.
type measurement struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// parseBench extracts name → measurement from `go test -bench` output.
// Names keep their sub-benchmark path but drop the -GOMAXPROCS and #NN
// repeat suffixes. Repeated lines for the same name (-count N, in-bench
// interleaved rounds, or the same filter run several times) are averaged: the ratio gates divide figures measured
// minutes apart, and averaging over repeated interleaved runs is what
// keeps a drifting CI machine from minting fake overhead on whichever
// sub-benchmark ran last. hasAllocs holds only if every repeat reported
// the allocs column.
func parseBench(r io.Reader) (map[string]measurement, error) {
	type acc struct {
		ns, allocs float64
		n, nAllocs int
	}
	sums := map[string]*acc{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		a := sums[m[1]]
		if a == nil {
			a = &acc{}
			sums[m[1]] = a
			order = append(order, m[1])
		}
		a.ns += ns
		a.n++
		if m[4] != "" {
			allocs, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
			}
			a.allocs += allocs
			a.nAllocs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]measurement, len(sums))
	for _, name := range order {
		a := sums[name]
		meas := measurement{ns: a.ns / float64(a.n)}
		if a.nAllocs == a.n {
			meas.allocs, meas.hasAllocs = a.allocs/float64(a.nAllocs), true
		}
		out[name] = meas
	}
	return out, nil
}

// baseline is one expected benchmark with its recorded figures. allocs
// is gated only when positive: an alloc regression (a buffer suddenly
// escaping per request, a pool dropped from a hot path) is as real as a
// speed one but invisible to the ns gate on a fast machine, so rows that
// record allocs_per_op get both checks.
type baseline struct {
	name   string
	ns     float64
	allocs float64
}

// restreeBaselines loads the tree-backend rows of BENCH_restree.json as
// expectations on BenchmarkCapacityIndex sub-benchmarks.
func restreeBaselines(path string) ([]baseline, error) {
	var doc struct {
		Rows []struct {
			Reservations int     `json:"reservations"`
			TreeNsPerOp  float64 `json:"tree_ns_per_op"`
		} `json:"rows"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	var out []baseline
	for _, r := range doc.Rows {
		out = append(out, baseline{
			name: fmt.Sprintf("BenchmarkCapacityIndex/backend=tree/n=%d", r.Reservations),
			ns:   r.TreeNsPerOp,
		})
	}
	return out, nil
}

// resdBaselines loads the tree-backend rows of BENCH_resd.json as
// expectations on BenchmarkResdThroughput sub-benchmarks.
func resdBaselines(path string) ([]baseline, error) {
	var doc struct {
		Rows []struct {
			Backend     string  `json:"backend"`
			Shards      int     `json:"shards"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"rows"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	var out []baseline
	for _, r := range doc.Rows {
		if r.Backend != "tree" {
			continue
		}
		out = append(out, baseline{
			name:   fmt.Sprintf("BenchmarkResdThroughput/backend=tree/shards=%d", r.Shards),
			ns:     r.NsPerOp,
			allocs: r.AllocsPerOp,
		})
	}
	return out, nil
}

// reswireBaselines loads BENCH_reswire.json rows as expectations on
// BenchmarkWireThroughput sub-benchmarks (both pipelining settings: a
// regression in the unpipelined RPC path is as real as one in the
// pipelined path).
func reswireBaselines(path string) ([]baseline, error) {
	var doc struct {
		Rows []struct {
			Clients     int     `json:"clients"`
			Pipeline    string  `json:"pipeline"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"rows"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	var out []baseline
	for _, r := range doc.Rows {
		out = append(out, baseline{
			name:   fmt.Sprintf("BenchmarkWireThroughput/clients=%d/pipeline=%s", r.Clients, r.Pipeline),
			ns:     r.NsPerOp,
			allocs: r.AllocsPerOp,
		})
	}
	return out, nil
}

// tenantBaselines loads BENCH_tenant.json rows as expectations on
// BenchmarkTenantThroughput sub-benchmarks (both enforcement modes across
// the tenant axis: a lock sneaking onto the lock-free acquire path or a
// per-tenant scan shows up at every row).
func tenantBaselines(path string) ([]baseline, error) {
	var doc struct {
		Rows []struct {
			Tenants int     `json:"tenants"`
			Mode    string  `json:"mode"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"rows"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, err
	}
	var out []baseline
	for _, r := range doc.Rows {
		out = append(out, baseline{
			name: fmt.Sprintf("BenchmarkTenantThroughput/tenants=%d/mode=%s", r.Tenants, r.Mode),
			ns:   r.NsPerOp,
		})
	}
	return out, nil
}

// obsBaselines loads BENCH_obs.json: each off/on row becomes an
// expectation on a BenchmarkObsOverhead sub-benchmark, and max_overhead
// is the instrumentation budget the ratio gate enforces on the measured
// pair (the on/off ratio of one run is immune to machine speed, so it is
// held to its own, much tighter bound than the absolute threshold).
func obsBaselines(path string) ([]baseline, float64, error) {
	var doc struct {
		Rows []struct {
			Obs     string  `json:"obs"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"rows"`
		MaxOverhead float64 `json:"max_overhead"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, 0, err
	}
	if doc.MaxOverhead <= 1 {
		return nil, 0, fmt.Errorf("benchgate: %s: max_overhead must be > 1, got %v", path, doc.MaxOverhead)
	}
	var out []baseline
	for _, r := range doc.Rows {
		out = append(out, baseline{
			name: fmt.Sprintf("BenchmarkObsOverhead/obs=%s", r.Obs),
			ns:   r.NsPerOp,
		})
	}
	return out, doc.MaxOverhead, nil
}

// gateObsRatio checks the instrumentation-cost budget: the measured
// obs=on figure may exceed the measured obs=off figure by at most
// maxOverhead, and so may obs=watch — the same workload with a live
// Watch subscriber streaming telemetry, which must ride the published
// atomics rather than tax the admission path — obs=flight, the
// same workload with the flight recorder's journal, per-turn
// heartbeats, and watchdog armed — and obs=slo, the same workload with
// the SLO engine counting admission decisions and sampling cumulative
// counters on its own ticker. Missing sub-benchmarks are already
// reported by the baseline gate, so this adds nothing for them.
func gateObsRatio(measured map[string]measurement, maxOverhead float64) (report []string, ok bool) {
	off, okOff := measured["BenchmarkObsOverhead/obs=off"]
	if !okOff {
		return nil, true
	}
	ok = true
	for _, variant := range []string{"on", "watch", "flight", "slo"} {
		got, found := measured["BenchmarkObsOverhead/obs="+variant]
		if !found {
			continue
		}
		ratio := got.ns / off.ns
		if ratio > maxOverhead {
			report = append(report, fmt.Sprintf("FAIL    obs overhead: %s/off = %.0f/%.0f ns/op = %.3f× > %.2f× budget",
				variant, got.ns, off.ns, ratio, maxOverhead))
			ok = false
			continue
		}
		report = append(report, fmt.Sprintf("ok      obs overhead: %s/off = %.0f/%.0f ns/op = %.3f× (budget %.2f×)",
			variant, got.ns, off.ns, ratio, maxOverhead))
	}
	return report, ok
}

// walBaselines loads BENCH_wal.json: the wal=off and wal=buffered rows
// become absolute expectations on BenchmarkWALOverhead sub-benchmarks,
// and max_overhead is the group-commit budget the ratio gate enforces on
// the measured buffered/off pair. The wal=fsync row is deliberately NOT a
// baseline — its figure tracks the machine's storage, not the code — but
// gateWalRatio still insists it was measured, so the durable path cannot
// silently fall out of the bench filter.
func walBaselines(path string) ([]baseline, float64, error) {
	var doc struct {
		Rows []struct {
			WAL     string  `json:"wal"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"rows"`
		MaxOverhead float64 `json:"max_overhead"`
	}
	if err := readJSON(path, &doc); err != nil {
		return nil, 0, err
	}
	if doc.MaxOverhead <= 1 {
		return nil, 0, fmt.Errorf("benchgate: %s: max_overhead must be > 1, got %v", path, doc.MaxOverhead)
	}
	var out []baseline
	for _, r := range doc.Rows {
		if r.WAL == "fsync" {
			continue
		}
		out = append(out, baseline{
			name: fmt.Sprintf("BenchmarkWALOverhead/wal=%s", r.WAL),
			ns:   r.NsPerOp,
		})
	}
	return out, doc.MaxOverhead, nil
}

// gateWalRatio checks the group-commit budget: the measured wal=buffered
// figure may exceed the measured wal=off figure by at most maxOverhead.
// It also requires the wal=fsync row to have run at all — the only check
// that row gets.
func gateWalRatio(measured map[string]measurement, maxOverhead float64) (report []string, ok bool) {
	off, okOff := measured["BenchmarkWALOverhead/wal=off"]
	buffered, okBuf := measured["BenchmarkWALOverhead/wal=buffered"]
	fsync, okFsync := measured["BenchmarkWALOverhead/wal=fsync"]
	ok = true
	if !okFsync {
		report = append(report, "MISSING BenchmarkWALOverhead/wal=fsync (durable path not measured)")
		ok = false
	} else {
		report = append(report, fmt.Sprintf("ok      wal fsync: %.0f ns/op (recorded, not gated)", fsync.ns))
	}
	if !okOff || !okBuf {
		return report, ok
	}
	ratio := buffered.ns / off.ns
	if ratio > maxOverhead {
		report = append(report, fmt.Sprintf("FAIL    wal overhead: buffered/off = %.0f/%.0f ns/op = %.3f× > %.2f× budget",
			buffered.ns, off.ns, ratio, maxOverhead))
		return report, false
	}
	report = append(report, fmt.Sprintf("ok      wal overhead: buffered/off = %.0f/%.0f ns/op = %.3f× (budget %.2f×)",
		buffered.ns, off.ns, ratio, maxOverhead))
	return report, ok
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return nil
}

// gate compares measured figures against baselines and returns one line
// per baseline plus the verdict. A baseline that records allocs_per_op
// additionally holds the measured allocation count to the same threshold
// factor (plus a +2 absolute floor so near-zero baselines cannot flap on
// a single stray allocation) — and requires the benchmark to have
// reported allocations at all, so dropping b.ReportAllocs cannot
// silently retire the check.
func gate(measured map[string]measurement, baselines []baseline, threshold float64) (report []string, ok bool) {
	ok = true
	for _, b := range baselines {
		got, found := measured[b.name]
		switch {
		case !found:
			report = append(report, fmt.Sprintf("MISSING %s (baseline %.0f ns/op, not in bench output)", b.name, b.ns))
			ok = false
			continue
		case got.ns > b.ns*threshold:
			report = append(report, fmt.Sprintf("FAIL    %s: %.0f ns/op vs baseline %.0f (%.2f× > %.2f×)",
				b.name, got.ns, b.ns, got.ns/b.ns, threshold))
			ok = false
		default:
			report = append(report, fmt.Sprintf("ok      %s: %.0f ns/op vs baseline %.0f (%.2f×)",
				b.name, got.ns, b.ns, got.ns/b.ns))
		}
		if b.allocs <= 0 {
			continue
		}
		limit := b.allocs * threshold
		if floor := b.allocs + 2; limit < floor {
			limit = floor
		}
		switch {
		case !got.hasAllocs:
			report = append(report, fmt.Sprintf("MISSING %s allocs/op (baseline %.1f, bench output has no allocs column)",
				b.name, b.allocs))
			ok = false
		case got.allocs > limit:
			report = append(report, fmt.Sprintf("FAIL    %s: %.1f allocs/op vs baseline %.1f (limit %.1f)",
				b.name, got.allocs, b.allocs, limit))
			ok = false
		default:
			report = append(report, fmt.Sprintf("ok      %s: %.1f allocs/op vs baseline %.1f",
				b.name, got.allocs, b.allocs))
		}
	}
	return report, ok
}

func run() error {
	benchPath := flag.String("bench", "", "go test -bench output file (required; - for stdin)")
	restree := flag.String("restree", "BENCH_restree.json", "capacity-index baseline ('' to skip)")
	resd := flag.String("resd", "BENCH_resd.json", "admission-service baseline ('' to skip)")
	reswire := flag.String("reswire", "BENCH_reswire.json", "wire-throughput baseline ('' to skip)")
	tenantPath := flag.String("tenant", "BENCH_tenant.json", "quota-throughput baseline ('' to skip)")
	obsPath := flag.String("obs", "BENCH_obs.json", "obs-overhead baseline and ratio budget ('' to skip)")
	walPath := flag.String("wal", "BENCH_wal.json", "wal-overhead baseline and ratio budget ('' to skip)")
	threshold := flag.Float64("threshold", 2.0, "allowed slowdown factor vs baseline")
	flag.Parse()

	if *benchPath == "" {
		return fmt.Errorf("benchgate: -bench is required")
	}
	if *threshold <= 0 {
		return fmt.Errorf("benchgate: -threshold must be positive, got %v", *threshold)
	}
	var in io.Reader = os.Stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}

	var baselines []baseline
	if *restree != "" {
		bs, err := restreeBaselines(*restree)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
	}
	if *resd != "" {
		bs, err := resdBaselines(*resd)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
	}
	if *reswire != "" {
		bs, err := reswireBaselines(*reswire)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
	}
	if *tenantPath != "" {
		bs, err := tenantBaselines(*tenantPath)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
	}
	var maxOverhead float64
	if *obsPath != "" {
		bs, budget, err := obsBaselines(*obsPath)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
		maxOverhead = budget
	}
	var walOverhead float64
	if *walPath != "" {
		bs, budget, err := walBaselines(*walPath)
		if err != nil {
			return err
		}
		baselines = append(baselines, bs...)
		walOverhead = budget
	}
	if len(baselines) == 0 {
		return fmt.Errorf("benchgate: no baselines loaded")
	}

	report, ok := gate(measured, baselines, *threshold)
	if maxOverhead > 0 {
		ratioReport, ratioOK := gateObsRatio(measured, maxOverhead)
		report = append(report, ratioReport...)
		ok = ok && ratioOK
	}
	if walOverhead > 0 {
		ratioReport, ratioOK := gateWalRatio(measured, walOverhead)
		report = append(report, ratioReport...)
		ok = ok && ratioOK
	}
	fmt.Println(strings.Join(report, "\n"))
	if !ok {
		return fmt.Errorf("benchgate: bench regression gate failed (threshold %.2f×)", *threshold)
	}
	fmt.Printf("benchgate: %d baselines within %.2f×\n", len(baselines), *threshold)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
