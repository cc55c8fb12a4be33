// Package expt is the experiment harness that regenerates every evaluation
// artifact of the paper — Figures 1-4, the appendix's Theorem 2, the §2.2
// FCFS remark — plus the ablations suggested in its conclusion. Each
// experiment is registered under a short ID (fig1, fig2, fig3, fig4,
// graham, fcfs, alpha, ablation, online, scale, search; List returns them,
// and resexp -list prints them) and produces a Report: tables, optional
// charts, and pass/fail Checks that compare measured behaviour against the
// paper's claims. MarkdownAll renders a set of reports as one document,
// which is what resexp -run all -md writes.
package expt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/plot"
	"repro/internal/stats"
)

// Config controls experiment execution.
type Config struct {
	// Seed makes every experiment deterministic; reports quote it.
	Seed uint64
	// Quick shrinks grids/trial counts for fast test runs.
	Quick bool
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int
}

// effectiveWorkers resolves the worker count.
func (c Config) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Check is one paper-vs-measured assertion.
type Check struct {
	// Name states the claim being checked.
	Name string
	// Pass reports whether the measurement agrees with the paper.
	Pass bool
	// Detail quantifies the comparison.
	Detail string
}

// NamedTable pairs a table with a caption.
type NamedTable struct {
	Caption string
	Table   *stats.Table
}

// Report is an experiment's output.
type Report struct {
	// ID is the registry key (e.g. "fig3").
	ID string
	// Title is a human-readable name.
	Title string
	// Paper describes the artifact being reproduced.
	Paper string
	// Tables hold the regenerated rows/series.
	Tables []NamedTable
	// Charts hold regenerated figures.
	Charts []*plot.Chart
	// Checks are the paper-vs-measured assertions.
	Checks []Check
	// Notes carry free-form commentary (reference used, substitutions).
	Notes []string
}

// AllPassed reports whether every check passed.
func (r *Report) AllPassed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// check appends an assertion.
func (r *Report) check(name string, pass bool, detailFmt string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(detailFmt, args...)})
}

// Render prints the report as text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "Paper artifact: %s\n", r.Paper)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "\n-- %s --\n%s", t.Caption, t.Table.String())
	}
	for _, c := range r.Charts {
		fmt.Fprintf(&b, "\n%s", c.ASCII(72, 24))
	}
	b.WriteString("\nChecks:\n")
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s — %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// Experiment is a runnable, registered experiment.
type Experiment struct {
	// ID is the registry key.
	ID string
	// Title is a short human-readable name.
	Title string
	// Paper names the artifact reproduced.
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) (*Report, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("expt: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// List returns all experiments sorted by ID.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// RunAll executes every experiment and returns reports sorted by ID.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, e := range List() {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("expt: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// parMap runs fn over 0..n-1 on the configured number of workers and
// collects results in index order. fn must be safe for concurrent calls;
// per-item determinism is the caller's job (derive RNG streams from the
// item index, not from shared state).
func parMap[R any](cfg Config, n int, fn func(i int) R) []R {
	out := make([]R, n)
	workers := cfg.effectiveWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
