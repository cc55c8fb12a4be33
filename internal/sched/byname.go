package sched

import (
	"fmt"
	"sort"

	"repro/internal/profile"
)

// constructors maps CLI algorithm names to backend-parameterised scheduler
// factories. Each call returns a fresh value so callers can't share
// mutable state; the backend string selects the capacity index ("" =
// array, "tree" = restree) every placement query runs on.
var constructors = map[string]func(backend string) Scheduler{
	"lsrc":           func(b string) Scheduler { return &LSRC{Order: FIFO, Backend: b} },
	"lsrc-fifo":      func(b string) Scheduler { return &LSRC{Order: FIFO, Backend: b} },
	"lsrc-lpt":       func(b string) Scheduler { return &LSRC{Order: LPT, Backend: b} },
	"lsrc-spt":       func(b string) Scheduler { return &LSRC{Order: SPT, Backend: b} },
	"lsrc-widest":    func(b string) Scheduler { return &LSRC{Order: WidestFirst, Backend: b} },
	"lsrc-narrowest": func(b string) Scheduler { return &LSRC{Order: NarrowestFirst, Backend: b} },
	"lsrc-maxwork":   func(b string) Scheduler { return &LSRC{Order: MaxWorkFirst, Backend: b} },
	"fcfs":           func(b string) Scheduler { return FCFS{Backend: b} },
	"cons-bf":        func(b string) Scheduler { return Conservative{Backend: b} },
	"easy-bf":        func(b string) Scheduler { return EASY{Backend: b} },
	"shelf-nfdh":     func(b string) Scheduler { return &Shelf{Fit: NextFit, Backend: b} },
	"shelf-ffdh":     func(b string) Scheduler { return &Shelf{Fit: FirstFit, Backend: b} },
}

// ByNameOn returns the named scheduler running on the named capacity
// backend ("" selects profile.DefaultBackend). The backend name is
// validated eagerly so CLIs fail fast on typos rather than at Schedule
// time.
func ByNameOn(name, backend string) (Scheduler, error) {
	mk, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown algorithm %q (available: %v)", name, Names())
	}
	if backend != "" {
		if _, err := profile.NewIndex(backend, 0); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
	}
	return mk(backend), nil
}

// Names lists the registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(constructors))
	for n := range constructors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
