package slo

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// defaultSpec is a three-objective spec on every default: 10s period,
// 1h budget window, DefaultRules (whose longest window is the 6h warn).
func defaultSpec() Spec {
	return Spec{Objectives: []ObjectiveSpec{
		{Name: "deadline", Signal: "deadline_attainment", Target: 0.9},
		{Name: "slack", Signal: "slack", Target: 0.95, Bound: 1 << 12},
		{Name: "success", Signal: "error_rate", Target: 0.5},
	}}
}

// ringBytes sums what every ring of e holds.
func ringBytes(e *Engine) int {
	var n int
	for _, st := range e.objs {
		n += st.ring.Bytes()
	}
	for _, h := range e.hists {
		n += h.ring.Bytes()
	}
	return n
}

// timedTurns is the first reading of a service that times its turns and
// has counted nothing yet.
func timedTurns() *Sample { return &Sample{TurnsTimed: true} }

func TestEngineRingBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{Spec: defaultSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(time.Now(), timedTurns()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	// window/period + 2 slots, each an 8-byte timestamp and 8 bytes per
	// value: the objectives cover the 6h warn window, the histograms
	// only the 1h budget window.
	objSlots := int(6*time.Hour/(10*time.Second)) + 2
	histSlots := int(time.Hour/(10*time.Second)) + 2
	want := 3*objSlots*8*(1+2) + 2*histSlots*8*(1+stats.ExpBuckets)
	if got := ringBytes(e); got != want {
		t.Fatalf("rings hold %d B, want %d (3 × %d × 24 B + 2 × %d × 528 B)", got, want, objSlots, histSlots)
	}
	// Everything New and Attach allocated — the rings, the
	// allocator's rounding of them and the engine's own few hundred
	// bytes — stays within a quarter of the formula: the rings are the
	// engine's cost, and no per-slot allocation hides beside them.
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > uint64(want)*5/4 {
		t.Fatalf("building the engine allocated %d B, want ≤ %d (rings %d B)", alloc, want*5/4, want)
	}
	t.Logf("rings %d B (%.2f MiB), allocated %d B", want, float64(want)/(1<<20), alloc)
}

func TestRingByteBound(t *testing.T) {
	// An objective past the bound fails when the spec is validated,
	// naming the bytes.
	spec := defaultSpec()
	spec.Period = "100ms"
	_, err := New(Config{Spec: spec})
	if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "5184048 bytes") {
		t.Fatalf("6h at 100ms: got %v, want ErrConfig naming 5184048 bytes", err)
	}
	// A histogram past the bound fails at Attach even when every
	// objective's ring fits: its ring is 65 values wide.
	spec = Spec{Period: "400ms", BudgetWindow: "1h", Objectives: []ObjectiveSpec{{
		Name: "success", Signal: "error_rate", Target: 0.5,
		Rules: []RuleSpec{{Severity: "page", Burn: 2, Short: "5s", Long: "1m"}},
	}}}
	e, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Attach(time.Now(), timedTurns())
	if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "4753056 bytes") {
		t.Fatalf("histogram over 1h at 400ms: got %v, want ErrConfig naming 4753056 bytes", err)
	}
	spec.Period = "1s"
	if e, err = New(Config{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(time.Now(), timedTurns()); err != nil {
		t.Fatalf("histogram over 1h at 1s (%d B): %v", 3602*528, err)
	}
}

// TestEngineAnswersMatchLongestWindowRings drives the engine past its
// longest window, with one backwards clock step, beside a twin whose
// every ring is sized by that longest window, as all of them once were.
// Right-sized rings must not change one answer at any tick but those
// right after the step: a clock that steps back by s drops the
// snapshots it stepped over, so until it is past the step again a
// window as long as a right-sized ring may reach a snapshot only the
// twin kept (see stats.SnapRing).
func TestEngineAnswersMatchLongestWindowRings(t *testing.T) {
	spec := defaultSpec()
	// An objective whose own rules end inside the budget window: its
	// ring covers the hour and no more.
	spec.Objectives = append(spec.Objectives, ObjectiveSpec{
		Name: "short", Signal: "error_rate", Target: 0.8,
		Rules: []RuleSpec{{Severity: "page", Burn: 2, Short: "1m", Long: "20m"}},
	})
	// The deadline and error-rate pairs, then the slack and turn-latency
	// histograms: everything a Sample carries.
	var counters [2]fakeCounters
	hists := []string{"resd_slack_ticks", "resd_loop_turn_ns"}
	histSrc := make([]obs.Histogram, len(hists))
	read := func() *Sample {
		s := counters[0].sample()
		s.Admitted = counters[1].good.Load()
		s.Rejected = counters[1].total.Load() - s.Admitted
		histSrc[0].Snapshot(&s.Slack)
		histSrc[1].Snapshot(&s.LoopTurn)
		s.TurnsTimed = true
		return s
	}
	now := time.Unix(1_000_000, 0)
	build := func() *Engine {
		e, err := New(Config{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Attach(now, read()); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, oracle := build(), build()
	longest := int(6*time.Hour/e.Period()) + 2
	for _, st := range oracle.objs {
		st.ring = stats.NewSnapRing(longest, 2)
	}
	for _, h := range oracle.hists {
		h.ring = stats.NewSnapRing(longest, stats.ExpBuckets)
	}
	oracle.Tick(now, read()) // the baseline Attach gave the replaced rings
	if got, want := e.objs[3].ring.Bytes(), (int(time.Hour/e.Period())+2)*24; got != want {
		t.Fatalf("short objective's ring holds %d B, want the budget window's %d", got, want)
	}

	r := rng.New(36)
	const ticks, stepBack, step = 2700, 1500, 25 * time.Second
	var steppedFrom time.Time
	var behind, differ int
	for i := 0; i < ticks; i++ {
		// Bursts of bad traffic every ~40 minutes so the burn rates and
		// alert states move, and a spread of histogram samples.
		badShare := 5
		if i%240 < 30 {
			badShare = 60
		}
		for c := range counters {
			n := uint64(r.Intn(200))
			bad := n * uint64(r.Intn(badShare+1)) / 100
			counters[c].add(n-bad, bad)
		}
		for h := range histSrc {
			for k := r.Intn(20); k > 0; k-- {
				histSrc[h].Observe(int64(r.Uint64() >> (1 + r.Intn(62))))
			}
		}
		if i == stepBack {
			steppedFrom = now
			now = now.Add(-step) // drops two retained snapshots
		} else {
			now = now.Add(e.Period())
		}
		smp := read()
		e.Tick(now, smp)
		oracle.Tick(now, smp)

		got, want := e.States(), oracle.States()
		if now.Before(steppedFrom) {
			behind++
			for k := range want {
				if got[k] != want[k] {
					differ++
					break
				}
			}
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("tick %d: objective %s: got %+v, want %+v", i, want[k].Name, got[k], want[k])
			}
			for w, wb := range oracle.objs[k].burns {
				if g := e.objs[k].burns[w].burn; g != wb.burn {
					t.Fatalf("tick %d: %s burn over %v: got %v, want %v", i, want[k].Name, wb.window, g, wb.burn)
				}
			}
		}
		for _, name := range hists {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				gv, gn, gok := windowQuantileOf(e, name, q)
				wv, wn, wok := windowQuantileOf(oracle, name, q)
				if gv != wv || gn != wn || gok != wok {
					t.Fatalf("tick %d: %s q%v: got (%d, %d, %v), want (%d, %d, %v)", i, name, q, gv, gn, gok, wv, wn, wok)
				}
			}
		}
	}
	// The clock is behind for ⌈25s/10s⌉ ticks; at the last of them the
	// oldest retained snapshot anchors the hour again.
	if behind != 3 || differ == 0 || differ >= behind {
		t.Fatalf("%d ticks behind the step, %d of them differing: want 3, of which 1 or 2", behind, differ)
	}
	t.Logf("%d ticks behind the %v step, %d answering differently", behind, step, differ)
	var pages int
	for _, st := range e.objs {
		pages += int(st.transitions)
	}
	if pages == 0 {
		t.Fatal("no alert transition in the whole run: the traffic never moved the burn rates")
	}
}
