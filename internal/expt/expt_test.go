package expt

import (
	"strings"
	"sync/atomic"
	"testing"
)

func quickCfg() Config { return Config{Seed: 42, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "alpha", "fcfs", "fig1", "fig2", "fig3", "fig4", "graham", "online", "scale", "search"}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("fig3"); !ok {
		t.Fatal("fig3 missing")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("bogus id found")
	}
}

// TestEveryExperimentPassesChecks runs the whole registry in quick mode:
// this is the repository's central "paper claims hold" integration test.
func TestEveryExperimentPassesChecks(t *testing.T) {
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report id %q", rep.ID)
			}
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("check failed: %s — %s", c.Name, c.Detail)
				}
			}
			if len(rep.Tables) == 0 {
				t.Error("no tables produced")
			}
			out := rep.Render()
			if !strings.Contains(out, "PASS") || !strings.Contains(out, e.ID) {
				t.Errorf("render missing content:\n%s", out)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Same seed -> identical rendered report (tables carry all numbers).
	for _, id := range []string{"fig3", "graham"} {
		e, _ := Get(id)
		a, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func TestParMapOrdersAndCovers(t *testing.T) {
	cfg := Config{Workers: 4}
	out := parMap(cfg, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParMapSingleWorker(t *testing.T) {
	cfg := Config{Workers: 1}
	var calls int64
	out := parMap(cfg, 10, func(i int) int {
		atomic.AddInt64(&calls, 1)
		return i
	})
	if len(out) != 10 || calls != 10 {
		t.Fatalf("out=%v calls=%d", out, calls)
	}
}

func TestParMapZeroItems(t *testing.T) {
	out := parMap(Config{}, 0, func(i int) int { return i })
	if len(out) != 0 {
		t.Fatal("expected empty")
	}
}

func TestReportAllPassed(t *testing.T) {
	r := &Report{}
	r.check("a", true, "ok")
	if !r.AllPassed() {
		t.Fatal("AllPassed false with all passing")
	}
	r.check("b", false, "bad")
	if r.AllPassed() {
		t.Fatal("AllPassed true with a failure")
	}
	if !strings.Contains(r.Render(), "FAIL") {
		t.Fatal("render should show FAIL")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reps, err := RunAll(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(List()) {
		t.Fatalf("got %d reports", len(reps))
	}
}

// TestAtJobCounts pins the scale note's index-bound clause: an empty set
// reads as none, not as "[]". The shares that fill the set are wall-clock,
// so the helper is checked, not a run.
func TestAtJobCounts(t *testing.T) {
	for _, c := range []struct {
		ns   []int
		want string
	}{
		{nil, "at no job count"},
		{[]int{}, "at no job count"},
		{[]int{2000}, "at job counts [2000]"},
		{[]int{2000, 20000}, "at job counts [2000 20000]"},
	} {
		if got := atJobCounts(c.ns); got != c.want {
			t.Errorf("atJobCounts(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}
