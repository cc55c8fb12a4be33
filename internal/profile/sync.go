package profile

import (
	"sync"

	"repro/internal/core"
)

// Synchronized wraps a CapacityIndex with a readers–writer lock so one
// index can be observed from many goroutines while another mutates it.
//
// The repository's schedulers never need this: they own their index
// outright, and internal/resd gives every shard one writer at a time
// (its combiner) so the index is never touched under a lock. The
// wrapper exists for the boundary where an index crosses goroutines anyway
// — resd's Snapshot hands callers a Synchronized clone they may share
// freely, and load generators use it to watch capacity drain while clients
// keep reserving. Observations (AvailableAt, FindSlot, FreeArea, ...) take
// the read lock and may run concurrently; Commit and Release take the
// write lock.
//
// The zero Synchronized is not usable; construct with NewSynchronized.
type Synchronized struct {
	mu  sync.RWMutex
	idx CapacityIndex
}

// NewSynchronized wraps idx. The caller must not keep using idx directly
// afterwards, or the lock protects nothing.
func NewSynchronized(idx CapacityIndex) *Synchronized {
	if idx == nil {
		panic("profile: NewSynchronized(nil)")
	}
	return &Synchronized{idx: idx}
}

var _ CapacityIndex = (*Synchronized)(nil)

// M returns the machine size the wrapped index was created with.
func (s *Synchronized) M() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.M()
}

// AvailableAt returns the capacity available at time t.
func (s *Synchronized) AvailableAt(t core.Time) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.AvailableAt(t)
}

// MinAvailable returns the minimum capacity over [t0, t1).
func (s *Synchronized) MinAvailable(t0, t1 core.Time) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.MinAvailable(t0, t1)
}

// CanPlace reports whether q processors are free on all of [start, start+dur).
func (s *Synchronized) CanPlace(start, dur core.Time, q int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.CanPlace(start, dur, q)
}

// FindSlot returns the earliest t >= ready with q processors free on all of
// [t, t+dur). Note that under concurrent writers the slot may be gone by the
// time the caller acts on it; re-validation belongs to whoever commits
// (which is exactly what resd's shards do).
func (s *Synchronized) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.FindSlot(ready, q, dur)
}

// Commit consumes q processors over [start, start+dur).
func (s *Synchronized) Commit(start, dur core.Time, q int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Commit(start, dur, q)
}

// Release restores q processors over [start, start+dur).
func (s *Synchronized) Release(start, dur core.Time, q int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Release(start, dur, q)
}

// NextBreakpoint returns the smallest breakpoint strictly greater than t.
func (s *Synchronized) NextBreakpoint(t core.Time) (core.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.NextBreakpoint(t)
}

// Breakpoints returns a copy of all breakpoint times.
func (s *Synchronized) Breakpoints() []core.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Breakpoints()
}

// NumSegments returns the number of constant segments.
func (s *Synchronized) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.NumSegments()
}

// FreeArea returns the integral of available capacity over [t0, t1).
func (s *Synchronized) FreeArea(t0, t1 core.Time) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.FreeArea(t0, t1)
}

// FirstTimeWithFreeArea returns the smallest t with FreeArea(0,t) >= w.
func (s *Synchronized) FirstTimeWithFreeArea(w int64) (core.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.FirstTimeWithFreeArea(w)
}

// CloneIndex returns an independent, unsynchronized deep copy of the
// wrapped index (a snapshot; wrap it again if it will be shared).
func (s *Synchronized) CloneIndex() CapacityIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.CloneIndex()
}

// String renders the wrapped index's segments for debugging.
func (s *Synchronized) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.String()
}
