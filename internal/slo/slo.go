package slo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterises New.
type Config struct {
	// Spec declares the objectives; it is validated by New.
	Spec Spec
	// Registry, when non-nil, receives the resd_slo_* metric families.
	Registry *obs.Registry
	// Journal, when non-nil, receives alert-state transitions as
	// structured events (subsys "slo").
	Journal *flight.Journal
	// OnAlert, when non-nil, is invoked (outside the engine lock, on
	// the goroutine that calls Tick) after every alert-state transition.
	// resdsrv uses it to capture a rate-limited diagnostic bundle on page.
	OnAlert func(objective string, from, to Severity, burn float64)
}

// windowBurn is one evaluated window's burn rate, kept for the
// resd_slo_burn_rate{objective,window} gauge.
type windowBurn struct {
	label  string
	window time.Duration
	burn   float64
}

// objState is one objective's runtime state, guarded by Engine.mu.
type objState struct {
	o    Objective
	ring *stats.SnapRing // width 2: cumulative [good, total]; sized by longestWindow

	sev         Severity
	attainment  float64 // good fraction over the budget window
	budget      float64 // error budget remaining over the budget window
	burnMax     float64
	burns       []windowBurn
	transitions uint64
}

// histState is one tracked histogram: a ring of cumulative bucket
// snapshots answering windowed percentiles (the fix for the
// process-lifetime-only caveat on resd's slack and loop-turn series).
type histState struct {
	name string
	vec  func(*Sample) *[stats.ExpBuckets]uint64
	ring *stats.SnapRing // width stats.ExpBuckets; sized by the budget window
}

// Engine evaluates SLO objectives: every Tick hands it one Sample, and
// it snapshots each objective's (good, total) pair and each tracked
// histogram into a stats.SnapRing, derives per-window deltas, and runs
// the multi-window multi-burn-rate rules. It owns no measurement and no
// goroutine of its own — everything it knows comes from the cumulative
// counters the service already publishes, so arming an engine adds no
// work to any shard.
//
// Lifecycle: New validates the spec and registers the metric families;
// the embedding service arms it with its first reading through Attach
// and then hands it a fresh reading every Period. resd.New attaches when
// ObsConfig.SLO is set, and the service's sampler ticks the engine until
// Service.Close.
type Engine struct {
	res     resolved
	reg     *obs.Registry
	journal *flight.Journal
	onAlert func(objective string, from, to Severity, burn float64)

	mu       sync.Mutex
	attached bool
	objs     []*objState
	hists    []*histState
	vec2     []uint64
}

// New builds an engine from cfg, validating the spec and registering
// the resd_slo_* families on cfg.Registry. The engine is inert until
// Attach.
func New(cfg Config) (*Engine, error) {
	res, err := cfg.Spec.normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		res:     res,
		reg:     cfg.Registry,
		journal: cfg.Journal,
		onAlert: cfg.OnAlert,
		vec2:    make([]uint64, 2),
	}
	for _, o := range res.objectives {
		slots, _ := res.ringSlots("", res.longestWindow(o), 2) // checked by normalize
		st := &objState{
			o:          o,
			ring:       stats.NewSnapRing(slots, 2),
			attainment: 1,
			budget:     1,
		}
		for _, w := range o.distinctWindows() {
			st.burns = append(st.burns, windowBurn{label: w.String(), window: w})
		}
		e.objs = append(e.objs, st)
	}
	e.register()
	return e, nil
}

// distinctWindows lists the objective's rule windows, deduplicated and
// sorted — the windows resd_slo_burn_rate reports.
func (o Objective) distinctWindows() []time.Duration {
	seen := map[time.Duration]bool{}
	var out []time.Duration
	for _, r := range o.Rules {
		for _, w := range []time.Duration{r.Short, r.Long} {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Period returns the snapshot-and-evaluate cadence.
func (e *Engine) Period() time.Duration { return e.res.period }

// BudgetWindow returns the span attainment and budget are reported over.
func (e *Engine) BudgetWindow() time.Duration { return e.res.budgetWindow }

// Objectives returns the validated objectives: the embedding service
// reads which tenants its Sample must count.
func (e *Engine) Objectives() []Objective {
	out := make([]Objective, len(e.objs))
	for i, st := range e.objs {
		out[i] = st.o
	}
	return out
}

// Attach arms the engine for one service at now and takes the baseline
// tick from its first reading. It tracks the slack histogram — and the
// turn-latency one when first says the service times its turns —
// through budget-window rings and, with a registry, exposes their windowed
// percentiles as the summary families resd_slack_ticks_window and
// resd_loop_turn_ns_window. A ring
// past maxRingBytes is refused with ErrConfig. An engine serves one
// service for life: a second Attach is ErrConfig.
func (e *Engine) Attach(now time.Time, first *Sample) error {
	e.mu.Lock()
	if e.attached {
		e.mu.Unlock()
		return fmt.Errorf("%w: engine attached twice", ErrConfig)
	}
	hists := []*histState{{name: "resd_slack_ticks", vec: func(s *Sample) *[stats.ExpBuckets]uint64 { return &s.Slack }}}
	if first.TurnsTimed {
		hists = append(hists, &histState{name: "resd_loop_turn_ns", vec: func(s *Sample) *[stats.ExpBuckets]uint64 { return &s.LoopTurn }})
	}
	for _, h := range hists {
		slots, err := e.res.ringSlots(fmt.Sprintf("histogram %q", h.name), e.res.budgetWindow, stats.ExpBuckets)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		h.ring = stats.NewSnapRing(slots, stats.ExpBuckets)
	}
	e.hists = hists
	e.attached = true
	e.mu.Unlock()
	for _, h := range hists {
		e.reg.Collect(obs.KindSummary, h.name+"_window",
			"Windowed percentiles of "+h.name+" over the SLO budget window (restart-free, from the snapshot ring).",
			func(em obs.Emitter) {
				e.mu.Lock()
				defer e.mu.Unlock()
				var n uint64
				for _, q := range []struct {
					v     float64
					label string
				}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}} {
					v, total, ok := e.windowQuantile(h, q.v)
					if !ok {
						return // no window yet: absent beats zeros pretending to be data
					}
					em.Emit(float64(v), obs.L("quantile", q.label))
					n = total
				}
				em.EmitSuffix("_count", float64(n))
			})
	}
	e.journal.Record(flight.Info, "slo", -1, "slo engine armed",
		flight.KV{K: "objectives", V: fmt.Sprint(len(e.objs))},
		flight.KV{K: "period", V: e.res.period.String()})
	e.Tick(now, first) // anchor the baseline snapshot immediately
	return nil
}

// transition is one alert-state change gathered under the lock and
// delivered (journal + OnAlert) outside it.
type transition struct {
	objective string
	from, to  Severity
	burn      float64
}

// Tick runs one snapshot-and-evaluate pass over the reading s at the
// instant now: resd's sampler calls it every Period, tests at explicit
// instants. The engine reads s only during the call. Before Attach it
// does nothing. Safe to call concurrently with scrapes and States
// readers.
func (e *Engine) Tick(now time.Time, s *Sample) {
	at := now.UnixNano()
	var fired []transition
	e.mu.Lock()
	if !e.attached {
		e.mu.Unlock()
		return
	}
	for _, st := range e.objs {
		e.vec2[0], e.vec2[1] = st.o.pair(s)
		st.ring.Push(at, e.vec2)
	}
	for _, h := range e.hists {
		h.ring.Push(at, h.vec(s)[:])
	}
	for _, st := range e.objs {
		if tr, changed := e.evaluate(st); changed {
			fired = append(fired, tr)
		}
	}
	e.mu.Unlock()
	for _, tr := range fired {
		sev := flight.Info
		switch tr.to {
		case SevWarn:
			sev = flight.Warn
		case SevPage:
			sev = flight.Error
		}
		e.journal.Record(sev, "slo", -1, "slo alert state changed",
			flight.KV{K: "objective", V: tr.objective},
			flight.KV{K: "from", V: tr.from.String()},
			flight.KV{K: "to", V: tr.to.String()},
			flight.KV{K: "burn", V: fmt.Sprintf("%.2f", tr.burn)})
		if e.onAlert != nil {
			e.onAlert(tr.objective, tr.from, tr.to, tr.burn)
		}
	}
}

// errFrac answers the bad-event fraction over one trailing window, or
// 0 when the ring cannot answer it or the window saw no traffic — an
// empty window burns no budget and can never page.
func (st *objState) errFrac(window time.Duration) float64 {
	var d [2]uint64
	if _, ok := st.ring.Delta(int64(window), d[:]); !ok {
		return 0
	}
	good, total := d[0], d[1]
	if total == 0 {
		return 0
	}
	if good > total {
		good = total
	}
	return 1 - float64(good)/float64(total)
}

// evaluate recomputes one objective's windows and alert state. Caller
// holds e.mu.
func (e *Engine) evaluate(st *objState) (transition, bool) {
	budgetDenom := 1 - st.o.Target
	frac := st.errFrac(e.res.budgetWindow)
	st.attainment = 1 - frac
	st.budget = 1 - frac/budgetDenom
	st.burnMax = 0
	for i := range st.burns {
		st.burns[i].burn = st.errFrac(st.burns[i].window) / budgetDenom
		if st.burns[i].burn > st.burnMax {
			st.burnMax = st.burns[i].burn
		}
	}
	burnAt := func(w time.Duration) float64 {
		for _, wb := range st.burns {
			if wb.window == w {
				return wb.burn
			}
		}
		return 0
	}
	newSev := OK
	for _, rule := range st.o.Rules {
		if burnAt(rule.Short) >= rule.Burn && burnAt(rule.Long) >= rule.Burn && rule.Severity > newSev {
			newSev = rule.Severity
		}
	}
	if newSev == st.sev {
		return transition{}, false
	}
	tr := transition{objective: st.o.Name, from: st.sev, to: newSev, burn: st.burnMax}
	st.sev = newSev
	st.transitions++
	return tr, true
}

// State is one objective's evaluated condition — what the Watch
// telemetry's SLO family and obscheck -slo consume.
type State struct {
	Name   string
	Tenant string
	Signal Signal
	Target float64
	// Attainment is the good-event fraction over the budget window
	// (1 when the window saw no traffic).
	Attainment float64
	// BudgetRemaining is the unburned fraction of the error budget over
	// the budget window; negative means the budget is overspent.
	BudgetRemaining float64
	// BurnMax is the highest burn rate across the objective's rule
	// windows.
	BurnMax float64
	// Severity is the current alert state.
	Severity Severity
}

// States snapshots every objective's evaluated condition.
func (e *Engine) States() []State {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]State, len(e.objs))
	for i, st := range e.objs {
		out[i] = State{
			Name:            st.o.Name,
			Tenant:          st.o.Tenant,
			Signal:          st.o.Signal,
			Target:          st.o.Target,
			Attainment:      st.attainment,
			BudgetRemaining: st.budget,
			BurnMax:         st.burnMax,
			Severity:        st.sev,
		}
	}
	return out
}

// Warning summarises the non-OK objectives for /healthz, or "" when
// every objective is healthy.
func (e *Engine) Warning() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var parts []string
	for _, st := range e.objs {
		if st.sev != OK {
			parts = append(parts, fmt.Sprintf("slo %s %s (burn %.1fx)", st.o.Name, st.sev, st.burnMax))
		}
	}
	return strings.Join(parts, "; ")
}

// windowQuantile answers quantile q of h over the budget window, with
// the number of observations inside it. Caller holds e.mu.
func (e *Engine) windowQuantile(h *histState, q float64) (v int64, n uint64, ok bool) {
	var snap [stats.ExpBuckets]uint64
	if _, ok := h.ring.Delta(int64(e.res.budgetWindow), snap[:]); !ok {
		return 0, 0, false
	}
	for _, c := range snap {
		n += c
	}
	return stats.ExpQuantileFromBuckets(&snap, n, q), n, true
}

// register publishes the resd_slo_* families. Every collector reads
// engine state under e.mu — scrape-safe by the same argument as every
// other obs collector: the lock is shared with Tick, and neither side
// ever waits on a shard.
func (e *Engine) register() {
	if e.reg == nil {
		return
	}
	labels := func(st *objState) []obs.Label {
		ls := []obs.Label{obs.L("objective", st.o.Name)}
		if st.o.Tenant != "" {
			ls = append(ls, obs.L("tenant", st.o.Tenant))
		}
		return ls
	}
	e.reg.Collect(obs.KindGauge, "resd_slo_attainment",
		"Good-event fraction per objective over the SLO budget window (1 = every event met the objective).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(st.attainment, labels(st)...)
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_error_budget_remaining",
		"Unburned fraction of each objective's error budget over the budget window (negative = overspent).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(st.budget, labels(st)...)
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_burn_rate",
		"Error-budget burn rate per objective and trailing window (1 = burning exactly the budgeted rate).",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				for _, wb := range st.burns {
					em.Emit(wb.burn, append(labels(st), obs.L("window", wb.label))...)
				}
			}
		})
	e.reg.Collect(obs.KindGauge, "resd_slo_alert_state",
		"Per-objective alert state: 0 ok, 1 warn, 2 page.",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(float64(st.sev), labels(st)...)
			}
		})
	e.reg.Collect(obs.KindCounter, "resd_slo_alert_transitions_total",
		"Alert-state transitions per objective since start.",
		func(em obs.Emitter) {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, st := range e.objs {
				em.Emit(float64(st.transitions), labels(st)...)
			}
		})
}
