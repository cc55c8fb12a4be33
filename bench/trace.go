package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
)

// tracedBackend is the capacity-index backend the traced run builds its
// services and schedulers on: the workloads' own backend behind a wrapper
// that stamps every call. It is registered through the program's public
// backend seam, so the real shard loops and the real LSRC produce index
// spans without a line of program code changing.
const tracedBackend = "bench-traced"

func init() {
	profile.RegisterBackend(tracedBackend, func(m int) profile.CapacityIndex {
		inner, err := profile.NewIndex(backend, m)
		if err != nil {
			panic(err) // the wrapped backend is registered by the program itself
		}
		return &tracedIndex{inner: inner}
	})
}

// span is one timed call. Spans of one request share Request; Parent is
// the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace and the file written from it. The
// service workloads stay far below it; one traced LSRC call alone makes
// tens of thousands of index calls.
const maxSpans = 100_000

// recorder keeps the traced run's spans in memory. Spans are recorded
// only while a serial section is open: there one caller drives the
// program, at most one root is open, and that root is the parent of every
// index span the shard loops emit. Under concurrent load the wrapper only
// counts calls and busy time, which is also what tracing costs there.
type recorder struct {
	t0 time.Time
	// clockNs is what one reading of the clock costs. A stamped call's
	// interval contains about one reading, which for a 50 ns index call
	// is half the figure, so child takes it off again.
	clockNs int64

	serial atomic.Bool

	mu      sync.Mutex
	spans   []span
	root    int // open root span, 0 when none
	request int

	calls  atomic.Int64 // index calls, all methods
	busyNs atomic.Int64 // time inside index calls
}

// rec is the process's one recorder; the registered backend constructor
// takes no arguments, so the wrapper reaches it here.
var rec = newRecorder()

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	const reads = 1 << 16
	start := r.now()
	for i := 0; i < reads; i++ {
		r.now()
	}
	r.clockNs = (r.now() - start) / reads
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a root span for the next sampled request.
func (r *recorder) begin(name string, request int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Request: request, Name: name, Start: r.now()})
	r.root, r.request = id, request
	return id
}

// end closes a root span and returns its duration in ns.
func (r *recorder) end(id int) float64 {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
	r.root = 0
	return float64(end - r.spans[id-1].Start)
}

// child records a call that started at start and has just returned,
// under the open root; with no root open the call is the harness's own (a
// set-up, a check) and only counted.
func (r *recorder) child(name string, start int64) {
	end := r.now()
	if end-start > r.clockNs {
		end -= r.clockNs
	}
	r.calls.Add(1)
	r.busyNs.Add(end - start)
	if !r.serial.Load() {
		return
	}
	r.mu.Lock()
	if r.root != 0 && len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.root, Request: r.request, Name: name, Start: start, End: end})
	}
	r.mu.Unlock()
}

// durations returns every recorded span's duration in ns, by name, and
// every root's self time (its duration minus the part its children
// cover) under name+".self".
func (r *recorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]float64)
	covered := make(map[int]int64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		if s.Parent == 0 {
			out[s.Name+".self"] = append(out[s.Name+".self"], float64(s.End-s.Start-covered[s.ID]))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedIndex delegates to the wrapped backend and stamps every call.
type tracedIndex struct {
	inner profile.CapacityIndex
}

func (t *tracedIndex) M() int { return t.inner.M() }

func (t *tracedIndex) AvailableAt(at core.Time) int {
	s := rec.now()
	v := t.inner.AvailableAt(at)
	rec.child("index.availableat", s)
	return v
}

func (t *tracedIndex) MinAvailable(t0, t1 core.Time) int {
	s := rec.now()
	v := t.inner.MinAvailable(t0, t1)
	rec.child("index.minavailable", s)
	return v
}

func (t *tracedIndex) CanPlace(start, dur core.Time, q int) bool {
	s := rec.now()
	v := t.inner.CanPlace(start, dur, q)
	rec.child("index.canplace", s)
	return v
}

func (t *tracedIndex) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	s := rec.now()
	at, ok := t.inner.FindSlot(ready, q, dur)
	rec.child("index.findslot", s)
	return at, ok
}

func (t *tracedIndex) Commit(start, dur core.Time, q int) error {
	s := rec.now()
	err := t.inner.Commit(start, dur, q)
	rec.child("index.commit", s)
	return err
}

func (t *tracedIndex) Release(start, dur core.Time, q int) error {
	s := rec.now()
	err := t.inner.Release(start, dur, q)
	rec.child("index.release", s)
	return err
}

func (t *tracedIndex) NextBreakpoint(at core.Time) (core.Time, bool) {
	s := rec.now()
	v, ok := t.inner.NextBreakpoint(at)
	rec.child("index.nextbreakpoint", s)
	return v, ok
}

func (t *tracedIndex) CloneIndex() profile.CapacityIndex {
	s := rec.now()
	c := &tracedIndex{inner: t.inner.CloneIndex()}
	rec.child("index.clone", s)
	return c
}

// The remaining methods are not on any timed path; they pass through.
func (t *tracedIndex) Breakpoints() []core.Time        { return t.inner.Breakpoints() }
func (t *tracedIndex) NumSegments() int                { return t.inner.NumSegments() }
func (t *tracedIndex) FreeArea(t0, t1 core.Time) int64 { return t.inner.FreeArea(t0, t1) }
func (t *tracedIndex) String() string                  { return t.inner.String() }
func (t *tracedIndex) FirstTimeWithFreeArea(w int64) (core.Time, bool) {
	return t.inner.FirstTimeWithFreeArea(w)
}
