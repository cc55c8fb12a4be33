package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCapacityIndex/backend=array/n=1000-8         	  265486	      4508 ns/op
BenchmarkCapacityIndex/backend=tree/n=1000            	  388441	      3080 ns/op
BenchmarkCapacityIndex/backend=tree/n=10000-8         	  175087	      6587 ns/op
BenchmarkResdThroughput/backend=tree/shards=8-4       	   39044	      6569 ns/op	     320 B/op	       9 allocs/op
BenchmarkResdThroughput/backend=tree/shards=1         	   10000	     24906.5 ns/op	     512 B/op	      12.5 allocs/op
PASS
ok  	repro	5.701s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want measurement
	}{
		// -GOMAXPROCS suffix stripped, no allocs column:
		{"BenchmarkCapacityIndex/backend=array/n=1000", measurement{ns: 4508}},
		// no suffix (GOMAXPROCS=1):
		{"BenchmarkCapacityIndex/backend=tree/n=1000", measurement{ns: 3080}},
		{"BenchmarkCapacityIndex/backend=tree/n=10000", measurement{ns: 6587}},
		// B/op + allocs/op tail parsed:
		{"BenchmarkResdThroughput/backend=tree/shards=8", measurement{ns: 6569, allocs: 9, hasAllocs: true}},
		// fractional ns/op and allocs/op:
		{"BenchmarkResdThroughput/backend=tree/shards=1", measurement{ns: 24906.5, allocs: 12.5, hasAllocs: true}},
	}
	if len(got) != len(cases) {
		t.Fatalf("parsed %d entries, want %d: %v", len(got), len(cases), got)
	}
	for _, c := range cases {
		if got[c.name] != c.want {
			t.Errorf("%s = %+v, want %+v", c.name, got[c.name], c.want)
		}
	}
}

func TestParseBenchAverages(t *testing.T) {
	// -count N, in-bench interleaved rounds (Go tags the repeats #01,
	// #02, ...), or the same filter run several times repeat lines; the
	// gates want the mean under the base name, not whichever run came
	// last.
	const repeated = `
BenchmarkObsOverhead/obs=off 	  100	 7000 ns/op
BenchmarkObsOverhead/obs=off#01-4 	  100	 9000 ns/op
BenchmarkWireThroughput/clients=1/pipeline=on 	 100	 26000 ns/op	 512 B/op	 30 allocs/op
BenchmarkWireThroughput/clients=1/pipeline=on 	 100	 28000 ns/op	 512 B/op	 34 allocs/op
BenchmarkResdThroughput/backend=tree/shards=8 	 100	 6000 ns/op	 320 B/op	 9 allocs/op
BenchmarkResdThroughput/backend=tree/shards=8 	 100	 6200 ns/op
`
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkObsOverhead/obs=off"]; m.ns != 8000 || m.hasAllocs {
		t.Errorf("obs=off = %+v, want mean 8000 ns/op without allocs", m)
	}
	if m := got["BenchmarkWireThroughput/clients=1/pipeline=on"]; m.ns != 27000 || !m.hasAllocs || m.allocs != 32 {
		t.Errorf("wire = %+v, want mean 27000 ns/op and 32 allocs/op", m)
	}
	// One repeat missing the allocs column poisons the alloc average: the
	// name keeps its ns mean but loses hasAllocs, and the alloc gate
	// reports it as missing rather than averaging apples with oranges.
	if m := got["BenchmarkResdThroughput/backend=tree/shards=8"]; m.ns != 6100 || m.hasAllocs {
		t.Errorf("resd = %+v, want mean 6100 ns/op without allocs", m)
	}
}

func TestGate(t *testing.T) {
	baselines := []baseline{
		{name: "BenchmarkCapacityIndex/backend=tree/n=1000", ns: 3000},
		{name: "BenchmarkCapacityIndex/backend=tree/n=10000", ns: 6500},
	}
	cases := []struct {
		name      string
		measured  map[string]measurement
		threshold float64
		wantOK    bool
		wantMark  string
	}{
		{
			name: "within threshold",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 5900},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6400},
			},
			threshold: 2, wantOK: true, wantMark: "ok",
		},
		{
			name: "regression fails",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 6100},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6400},
			},
			threshold: 2, wantOK: false, wantMark: "FAIL",
		},
		{
			name: "missing benchmark fails",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000": {ns: 3000},
			},
			threshold: 2, wantOK: false, wantMark: "MISSING",
		},
		{
			name: "tight threshold",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 3200},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6500},
			},
			threshold: 1.05, wantOK: false, wantMark: "FAIL",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			report, ok := gate(c.measured, baselines, c.threshold)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, c.wantOK, strings.Join(report, "\n"))
			}
			if len(report) != len(baselines) {
				t.Fatalf("report has %d lines, want %d", len(report), len(baselines))
			}
			joined := strings.Join(report, "\n")
			if !strings.Contains(joined, c.wantMark) {
				t.Fatalf("report lacks %q:\n%s", c.wantMark, joined)
			}
		})
	}
}

func TestGateAllocs(t *testing.T) {
	baselines := []baseline{{name: "BenchmarkWireThroughput/clients=1/pipeline=on", ns: 26000, allocs: 20}}
	run := func(m measurement) ([]string, bool) {
		return gate(map[string]measurement{"BenchmarkWireThroughput/clients=1/pipeline=on": m},
			baselines, 2)
	}
	if report, ok := run(measurement{ns: 26000, allocs: 21, hasAllocs: true}); !ok {
		t.Fatalf("within alloc threshold must pass:\n%s", strings.Join(report, "\n"))
	}
	if report, ok := run(measurement{ns: 26000, allocs: 41, hasAllocs: true}); ok || !strings.Contains(strings.Join(report, "\n"), "FAIL") {
		t.Fatalf("alloc regression past threshold must fail:\n%s", strings.Join(report, "\n"))
	}
	// A benchmark that stopped reporting allocations cannot pass the gate
	// vacuously.
	if report, ok := run(measurement{ns: 26000}); ok || !strings.Contains(strings.Join(report, "\n"), "MISSING") {
		t.Fatalf("missing allocs column must fail:\n%s", strings.Join(report, "\n"))
	}
	// Near-zero baselines get a +2 absolute floor so one stray allocation
	// cannot flap the gate.
	tiny := []baseline{{name: "BenchmarkWireThroughput/clients=1/pipeline=on", ns: 26000, allocs: 1}}
	report, ok := gate(map[string]measurement{
		"BenchmarkWireThroughput/clients=1/pipeline=on": {ns: 26000, allocs: 3, hasAllocs: true},
	}, tiny, 2)
	if !ok {
		t.Fatalf("tiny baseline within the +2 floor must pass:\n%s", strings.Join(report, "\n"))
	}
}

func TestBaselineLoaders(t *testing.T) {
	// Loaded from the real recorded files at the repository root, so a
	// schema drift in either JSON breaks this test before it breaks CI.
	rs, err := restreeBaselines("../../BENCH_restree.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || !strings.Contains(rs[0].name, "backend=tree/n=1000") || rs[0].ns <= 0 {
		t.Fatalf("restree baselines: %+v", rs)
	}
	rd, err := resdBaselines("../../BENCH_resd.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rd) != 4 || !strings.Contains(rd[3].name, "backend=tree/shards=8") || rd[3].ns <= 0 {
		t.Fatalf("resd baselines: %+v", rd)
	}
	for _, b := range rd {
		if strings.Contains(b.name, "backend=array") {
			t.Fatalf("array rows must be skipped: %+v", b)
		}
		if b.allocs <= 0 {
			t.Fatalf("resd baseline without recorded allocs_per_op: %+v", b)
		}
	}
	rw, err := reswireBaselines("../../BENCH_reswire.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rw) != 6 {
		t.Fatalf("reswire baselines: want 6 rows (3 client counts × on/off), got %+v", rw)
	}
	wantNames := map[string]bool{}
	for _, clients := range []int{1, 4, 16} {
		for _, p := range []string{"off", "on"} {
			wantNames[fmt.Sprintf("BenchmarkWireThroughput/clients=%d/pipeline=%s", clients, p)] = true
		}
	}
	for _, b := range rw {
		if !wantNames[b.name] || b.ns <= 0 {
			t.Fatalf("unexpected reswire baseline: %+v", b)
		}
		if b.allocs <= 0 {
			t.Fatalf("reswire baseline without recorded allocs_per_op: %+v", b)
		}
	}
	tn, err := tenantBaselines("../../BENCH_tenant.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(tn) != 6 {
		t.Fatalf("tenant baselines: want 6 rows (3 tenant counts × hard/soft), got %+v", tn)
	}
	wantTenant := map[string]bool{}
	for _, tenants := range []int{1, 4, 16} {
		for _, mode := range []string{"hard", "soft"} {
			wantTenant[fmt.Sprintf("BenchmarkTenantThroughput/tenants=%d/mode=%s", tenants, mode)] = true
		}
	}
	for _, b := range tn {
		if !wantTenant[b.name] || b.ns <= 0 {
			t.Fatalf("unexpected tenant baseline: %+v", b)
		}
	}
	ob, budget, err := obsBaselines("../../BENCH_obs.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ob) != 5 || ob[0].name != "BenchmarkObsOverhead/obs=off" ||
		ob[1].name != "BenchmarkObsOverhead/obs=on" ||
		ob[2].name != "BenchmarkObsOverhead/obs=watch" ||
		ob[3].name != "BenchmarkObsOverhead/obs=flight" ||
		ob[4].name != "BenchmarkObsOverhead/obs=slo" || ob[0].ns <= 0 {
		t.Fatalf("obs baselines: %+v", ob)
	}
	if budget <= 1 || budget > 1.1 {
		t.Fatalf("obs max_overhead = %v, want a tight budget in (1, 1.1]", budget)
	}
	wl, walBudget, err := walBaselines("../../BENCH_wal.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(wl) != 2 || wl[0].name != "BenchmarkWALOverhead/wal=off" || wl[1].name != "BenchmarkWALOverhead/wal=buffered" || wl[0].ns <= 0 {
		t.Fatalf("wal baselines: %+v (the fsync row must be skipped)", wl)
	}
	if walBudget <= 1 || walBudget > 2 {
		t.Fatalf("wal max_overhead = %v, want a budget in (1, 2]", walBudget)
	}
}

func TestGateObsRatio(t *testing.T) {
	within := map[string]measurement{
		"BenchmarkObsOverhead/obs=off":    {ns: 7000},
		"BenchmarkObsOverhead/obs=on":     {ns: 7200},
		"BenchmarkObsOverhead/obs=watch":  {ns: 7300},
		"BenchmarkObsOverhead/obs=flight": {ns: 7250},
		"BenchmarkObsOverhead/obs=slo":    {ns: 7280},
	}
	report, ok := gateObsRatio(within, 1.05)
	if !ok || len(report) != 4 {
		t.Fatalf("within budget: ok=%v report=%v", ok, report)
	}
	for i, line := range report {
		if !strings.Contains(line, "ok") {
			t.Fatalf("within budget: report[%d] = %q, want ok", i, line)
		}
	}
	over := map[string]measurement{
		"BenchmarkObsOverhead/obs=off": {ns: 7000},
		"BenchmarkObsOverhead/obs=on":  {ns: 7800},
	}
	if report, ok := gateObsRatio(over, 1.05); ok || !strings.Contains(report[0], "FAIL") {
		t.Fatalf("over budget: ok=%v report=%v", ok, report)
	}
	// A watcher that taxes the admission path past the budget fails even
	// when the plain instrumented run is fine.
	watchOver := map[string]measurement{
		"BenchmarkObsOverhead/obs=off":   {ns: 7000},
		"BenchmarkObsOverhead/obs=on":    {ns: 7200},
		"BenchmarkObsOverhead/obs=watch": {ns: 8000},
	}
	if report, ok := gateObsRatio(watchOver, 1.05); ok || !strings.Contains(strings.Join(report, "\n"), "FAIL") {
		t.Fatalf("watch over budget: ok=%v report=%v", ok, report)
	}
	// The armed flight recorder is held to the same budget.
	flightOver := map[string]measurement{
		"BenchmarkObsOverhead/obs=off":    {ns: 7000},
		"BenchmarkObsOverhead/obs=on":     {ns: 7200},
		"BenchmarkObsOverhead/obs=flight": {ns: 8000},
	}
	if report, ok := gateObsRatio(flightOver, 1.05); ok || !strings.Contains(strings.Join(report, "\n"), "FAIL") {
		t.Fatalf("flight over budget: ok=%v report=%v", ok, report)
	}
	// So is a live SLO engine.
	sloOver := map[string]measurement{
		"BenchmarkObsOverhead/obs=off": {ns: 7000},
		"BenchmarkObsOverhead/obs=on":  {ns: 7200},
		"BenchmarkObsOverhead/obs=slo": {ns: 8000},
	}
	if report, ok := gateObsRatio(sloOver, 1.05); ok || !strings.Contains(strings.Join(report, "\n"), "FAIL") {
		t.Fatalf("slo over budget: ok=%v report=%v", ok, report)
	}
	// Missing sub-benchmarks are the baseline gate's finding, not a second
	// failure here.
	if report, ok := gateObsRatio(map[string]measurement{}, 1.05); !ok || report != nil {
		t.Fatalf("missing pair: ok=%v report=%v", ok, report)
	}
}

func TestGateWalRatio(t *testing.T) {
	within := map[string]measurement{
		"BenchmarkWALOverhead/wal=off":      {ns: 7000},
		"BenchmarkWALOverhead/wal=buffered": {ns: 8000},
		"BenchmarkWALOverhead/wal=fsync":    {ns: 30000},
	}
	report, ok := gateWalRatio(within, 1.5)
	if !ok || len(report) != 2 || !strings.Contains(report[1], "ok") {
		t.Fatalf("within budget: ok=%v report=%v", ok, report)
	}
	// The fsync figure is reported but never gated, no matter how slow.
	within["BenchmarkWALOverhead/wal=fsync"] = measurement{ns: 9e9}
	if _, ok := gateWalRatio(within, 1.5); !ok {
		t.Fatal("a slow fsync row must not fail the gate")
	}
	over := map[string]measurement{
		"BenchmarkWALOverhead/wal=off":      {ns: 7000},
		"BenchmarkWALOverhead/wal=buffered": {ns: 12000},
		"BenchmarkWALOverhead/wal=fsync":    {ns: 30000},
	}
	if report, ok := gateWalRatio(over, 1.5); ok || !strings.Contains(report[1], "FAIL") {
		t.Fatalf("over budget: ok=%v report=%v", ok, report)
	}
	// Unlike the obs pair, a missing fsync row IS this gate's finding:
	// nothing else checks that the durable path ran.
	noFsync := map[string]measurement{
		"BenchmarkWALOverhead/wal=off":      {ns: 7000},
		"BenchmarkWALOverhead/wal=buffered": {ns: 8000},
	}
	if report, ok := gateWalRatio(noFsync, 1.5); ok || !strings.Contains(report[0], "MISSING") {
		t.Fatalf("missing fsync row: ok=%v report=%v", ok, report)
	}
	// Missing off/buffered rows are the baseline gate's finding.
	fsyncOnly := map[string]measurement{"BenchmarkWALOverhead/wal=fsync": {ns: 30000}}
	if _, ok := gateWalRatio(fsyncOnly, 1.5); !ok {
		t.Fatal("missing off/buffered pair is the baseline gate's finding, not this one's")
	}
}
