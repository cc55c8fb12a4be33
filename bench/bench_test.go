package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
)

// testScale shrinks every workload so the whole file runs in seconds.
const testScale = 0.01

func scaledSpec(t *testing.T, name string) *spec {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scaled(testScale)
	return w
}

// Every workload, traced and untraced, emits exactly the metrics its run
// kind defines, each with its unit, as one JSON object on the last line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			if err := runOne(&out, w.Name, 1, runSeconds, testScale, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.Name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// BENCHMARK.json and the program name the same workloads and metrics.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", man.RunSeconds, runSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, man.Workloads[i].Name, w.Name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d+%d metrics, program %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := man.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program says %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := man.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program says %+v", i, m, d)
		}
	}
}

func TestStreamHashFollowsSeed(t *testing.T) {
	for _, named := range workloads {
		w := scaledSpec(t, named.Name)
		hash := func(seed uint64) uint64 {
			st, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return st.hash
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 hashes to %x and %x", w.Name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 both hash to %x", w.Name, a)
		}
	}
}

func TestP99RefusesFewSamples(t *testing.T) {
	if _, err := p99(make([]float64, minSamples-1)); err == nil {
		t.Errorf("p99 of %d samples accepted", minSamples-1)
	}
	xs := make([]float64, minSamples)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, err := p99(xs); err != nil || v < 988 || v > 990 {
		t.Errorf("p99 of 0..%d = %v, %v", minSamples-1, v, err)
	}
}

// The best decile of a phase's windows is the undisturbed figure as long
// as the host left a tenth of them alone, in either direction.
func TestBestDecileIgnoresSlowedWindows(t *testing.T) {
	rates, lats := make([]float64, phaseWindows), make([]float64, phaseWindows)
	for i := range rates {
		rates[i], lats[i] = 1000, 50
		if i%5 != 0 { // four windows in five lose a third of their time
			rates[i], lats[i] = 667, 75
		}
	}
	if got := bestDecile(rates, true); got != 1000 {
		t.Errorf("best decile of the rates = %v, want 1000", got)
	}
	if got := bestDecile(lats, false); got != 50 {
		t.Errorf("best decile of the latencies = %v, want 50", got)
	}
	xs := []float64{9, 1, 7, 3, 5, 11}
	if a, b := median(xs), medianInPlace(xs); a != b || a != 6 {
		t.Errorf("median %v, medianInPlace %v, want 6", a, b)
	}
}

// The saturation phase times every caller's admissions window by window.
func TestSaturationPhaseTimesAdmissions(t *testing.T) {
	w := scaledSpec(t, "admit-small")
	st, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := resd.New(resd.Config{Shards: shards, M: machineM, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	e := &env{w: w, svc: svc, names: tenantNames(0), t: &stallingTarget{}}
	sat := e.saturate(st, 200*time.Millisecond, 0)
	if len(sat.rates) != phaseWindows || len(sat.p50s) == 0 || len(sat.p50s) > phaseWindows {
		t.Fatalf("%d rate windows, %d latency windows", len(sat.rates), len(sat.p50s))
	}
	if p50 := bestDecile(sat.p50s, false); p50 <= 0 || p50 > 1000 {
		t.Errorf("median Admit latency of a target that answers at once = %v us", p50)
	}
	if sat.rate() <= 0 || sat.failed != 0 || sat.bad != nil {
		t.Errorf("rate %v failed %d bad %v", sat.rate(), sat.failed, sat.bad)
	}
}

// Each correctness check trips on a deliberately corrupted answer.
func TestChecksTrip(t *testing.T) {
	req := resd.Request{Ready: 100, Q: 8, Dur: 10, Deadline: 200}
	good := resd.Reservation{ID: 1, Start: 120, Dur: 10, Procs: 8}
	if err := checkReservation(req, good, 64, 16); err != nil {
		t.Errorf("good answer refused: %v", err)
	}
	for name, bad := range map[string]resd.Reservation{
		"start before ready":   {ID: 1, Start: 99, Dur: 10, Procs: 8},
		"start after deadline": {ID: 1, Start: 201, Dur: 10, Procs: 8},
		"wrong width":          {ID: 1, Start: 120, Dur: 10, Procs: 9},
		"breaches the α floor": {ID: 1, Start: 120, Dur: 10, Procs: 8},
	} {
		floor := 16
		if name == "breaches the α floor" {
			floor = 60
		}
		if err := checkReservation(req, bad, 64, floor); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	idx := profile.New(64)
	if err := idx.Commit(10, 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := checkFloor(idx, 0, 14); err != nil {
		t.Errorf("14 free at every breakpoint refused: %v", err)
	}
	if err := checkFloor(idx, 0, 16); err == nil {
		t.Error("α-floor breach accepted")
	}

	if err := checkRestored(load{Active: 10, Area: 500}, load{Active: 11, Area: 540}); err == nil {
		t.Error("missing cancel accepted")
	}
	a := [][]resd.Reservation{{good}}
	if err := checkRecovered(a, [][]resd.Reservation{{}}); err == nil {
		t.Error("lost reservation accepted after recovery")
	}
	if err := checkWireStats([]resd.ShardStats{{Active: 1}}, []resd.ShardStats{{Active: 2}}); err == nil {
		t.Error("disagreeing wire stats accepted")
	}
}

// A cancel that goes missing on a live service is caught at quiescence.
func TestMissingCancelCaughtOnService(t *testing.T) {
	outDir = t.TempDir()
	w := scaledSpec(t, "durable-mixed")
	st, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setupService(w, st, variantOf(w, backend))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := checkQuiesced(e.svc, e.base); err != nil {
		t.Fatalf("after warm-up: %v", err)
	}
	if _, err := e.svc.Admit(resd.Request{Tenant: "t3", Ready: 5, Q: 3, Dur: 7, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if err := checkQuiesced(e.svc, e.base); err == nil {
		t.Error("missing cancel accepted")
	}
}

// stallingTarget answers at once, except that every call blocks while one
// stall is in progress: a server that freezes once.
type stallingTarget struct {
	mu      sync.Mutex
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallingTarget) Admit(req resd.Request) (resd.Reservation, error) {
	n := s.calls.Add(1)
	s.mu.Lock()
	if n == s.stallAt {
		time.Sleep(s.stall)
	}
	s.mu.Unlock()
	return resd.Reservation{ID: resd.ID(n), Start: req.Ready, Dur: req.Dur, Procs: req.Q}, nil
}
func (s *stallingTarget) Cancel(resd.ID) error           { return nil }
func (s *stallingTarget) Query(core.Time) ([]int, error) { return make([]int, shards), nil }
func (s *stallingTarget) Stats() ([]resd.ShardStats, error) {
	return make([]resd.ShardStats, shards), nil
}

// Open-loop latency runs from the due time: a server that freezes once
// for 60 ms delays every request that came due meanwhile, not only the
// sixteen that were in flight.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	w := scaledSpec(t, "admit-small")
	st, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := resd.New(resd.Config{Shards: shards, M: machineM, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const stall = 60 * time.Millisecond
	e := &env{w: w, svc: svc, names: tenantNames(0), t: &stallingTarget{stallAt: 500, stall: stall}}
	p, err := e.pace(st, 400*time.Millisecond, 5000)
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, us := range p.latUs {
		if us > 10_000 {
			late++
		}
	}
	// 5 000/s for 60 ms is 300 requests; all but the last 10 ms' worth
	// waited more than 10 ms from their due time.
	if late < 200 {
		t.Errorf("%d requests measured later than 10 ms, want the ~250 that came due during the stall", late)
	}
	if p.failed != 0 || p.bad != nil {
		t.Errorf("failed=%d bad=%v", p.failed, p.bad)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
