package profile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// CapacityIndex is the seam between the scheduling layers and the data
// structure maintaining the available-capacity step function. Two backends
// implement it:
//
//   - "array" — the flat sorted-array Timeline in this package. Simple,
//     O(n) per mutation; the reference the other is checked against, and
//     fine for the paper's hand-built instances.
//   - "tree" — the leaf index in internal/restree: segments in flat
//     64-slot leaves under a sorted directory that knows each leaf's min
//     and max. A mutation edits one leaf, admission and earliest-fit step
//     over whole leaves, nothing is allocated in steady state; it is the
//     array's equal on the smallest instances and ahead from there on
//     (profile.go has the measured ratios).
//
// Every scheduler in internal/sched, the simulator in internal/sim, and the
// batch-doubling wrapper in internal/online are written against this
// interface, so backends can be swapped per run (the paper CLIs expose
// -backend={tree,array}). Both implementations maintain the identical
// canonical form — strictly increasing breakpoints, no equal-valued
// neighbouring segments — so all observations, including NextBreakpoint and
// NumSegments, agree exactly; internal/restree's differential fuzz harness
// enforces this.
//
// An index has one owner, and there is no lock anywhere: a scheduler owns
// the index it schedules on, a resd shard's combiner owns the shard's, and
// the caller of a snapshot owns the clone it was handed. Reads never write,
// so any number of goroutines may read one index that nobody is mutating;
// Commit and Release are for the owner alone.
type CapacityIndex interface {
	// M returns the machine size the index was created with.
	M() int
	// AvailableAt returns the capacity available at time t.
	AvailableAt(t core.Time) int
	// MinAvailable returns the minimum capacity over [t0, t1).
	MinAvailable(t0, t1 core.Time) int
	// CanPlace reports whether q processors are free on all of
	// [start, start+dur).
	CanPlace(start, dur core.Time, q int) bool
	// FindSlot returns the earliest t >= ready with q processors free on
	// all of [t, t+dur), or false if no such t exists.
	FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool)
	// Commit consumes q processors over [start, start+dur).
	Commit(start, dur core.Time, q int) error
	// Release restores q processors over [start, start+dur).
	Release(start, dur core.Time, q int) error
	// NextBreakpoint returns the smallest breakpoint strictly greater
	// than t, or false if none exists.
	NextBreakpoint(t core.Time) (core.Time, bool)
	// Breakpoints returns a copy of all breakpoint times.
	Breakpoints() []core.Time
	// NumSegments returns the number of constant segments.
	NumSegments() int
	// FreeArea returns the integral of available capacity over [t0, t1).
	FreeArea(t0, t1 core.Time) int64
	// FirstTimeWithFreeArea returns the smallest t with FreeArea(0,t) >= w.
	FirstTimeWithFreeArea(w int64) (core.Time, bool)
	// CloneIndex returns an independent deep copy.
	CloneIndex() CapacityIndex
	// String renders the segments for debugging.
	String() string
}

// DefaultBackend is what an empty name means to NewIndex: the Timeline in
// this package, the only backend profile can build without importing its
// own importers. It is the library's default, not the programs': the
// service (resd.Config.Backend "") and the CLIs' -backend flags default to
// "tree", and name "array" when they want this one.
const DefaultBackend = "array"

var (
	backendMu sync.RWMutex
	backends  = map[string]func(m int) CapacityIndex{
		"array": func(m int) CapacityIndex { return New(m) },
	}
)

// RegisterBackend makes a capacity-index constructor available under the
// given name (e.g. internal/restree registers "tree" from its init). It
// panics on duplicate registration, which always indicates a programming
// error.
func RegisterBackend(name string, mk func(m int) CapacityIndex) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("profile: backend %q registered twice", name))
	}
	backends[name] = mk
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]string, 0, len(backends))
	for n := range backends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewIndex returns a fresh capacity index with constant capacity m from the
// named backend ("" selects DefaultBackend).
func NewIndex(backend string, m int) (CapacityIndex, error) {
	if backend == "" {
		backend = DefaultBackend
	}
	backendMu.RLock()
	mk, ok := backends[backend]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("profile: unknown backend %q (available: %v)", backend, Backends())
	}
	return mk(m), nil
}

// IndexFromReservations builds a capacity index on the named backend and
// commits the given reservations, i.e. the backend-generic equivalent of
// FromReservations. It returns ErrInsufficient (wrapped) if the
// reservations oversubscribe the machine at any time.
func IndexFromReservations(backend string, m int, res []core.Reservation) (CapacityIndex, error) {
	idx, err := NewIndex(backend, m)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if err := idx.Commit(r.Start, r.Len, r.Procs); err != nil {
			return nil, fmt.Errorf("profile: reservation %d: %w", r.ID, err)
		}
	}
	return idx, nil
}

// CloneIndex implements CapacityIndex for Timeline.
func (tl *Timeline) CloneIndex() CapacityIndex { return tl.Clone() }

// Timeline is the canonical array backend.
var _ CapacityIndex = (*Timeline)(nil)
