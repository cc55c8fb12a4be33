package sched

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/verify"
)

// prop2K3 is the Proposition 2 adversarial instance for k=3 (α=2/3),
// scaled by k so all times are integral:
//
//	m = k²(k-1) = 18
//	k=3 small tasks: q=(k-1)²=4, p=1 (unscaled 1/k)
//	k-1=2 big tasks:  q=k(k-1)+1=7, p=3 (unscaled 1)
//	one reservation: q=k(k-1)(k-2)=6, start=3, len=18 (unscaled 2k)
//
// Optimal (scaled) makespan is 3; LSRC with the FIFO list achieves 7.
func prop2K3() *core.Instance {
	return &core.Instance{
		Name: "prop2-k3",
		M:    18,
		Jobs: []core.Job{
			{ID: 0, Procs: 4, Len: 1},
			{ID: 1, Procs: 4, Len: 1},
			{ID: 2, Procs: 4, Len: 1},
			{ID: 3, Procs: 7, Len: 3},
			{ID: 4, Procs: 7, Len: 3},
		},
		Res: []core.Reservation{{ID: 0, Procs: 6, Start: 3, Len: 18}},
	}
}

func TestLSRCEmptyInstance(t *testing.T) {
	inst := &core.Instance{M: 4}
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 0 {
		t.Fatalf("empty makespan = %v", s.Makespan())
	}
}

func TestLSRCSimplePacking(t *testing.T) {
	inst := &core.Instance{M: 4, Jobs: []core.Job{
		{ID: 0, Procs: 2, Len: 10},
		{ID: 1, Procs: 2, Len: 10},
		{ID: 2, Procs: 4, Len: 5},
	}}
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Jobs 0,1 at 0; job 2 after them.
	if s.StartOf(0) != 0 || s.StartOf(1) != 0 || s.StartOf(2) != 10 {
		t.Fatalf("starts = %v", s.Start)
	}
	if s.Makespan() != 15 {
		t.Fatalf("makespan = %v, want 15", s.Makespan())
	}
}

func TestLSRCAvoidsFutureReservation(t *testing.T) {
	// One job that would collide with a reservation if started eagerly.
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 3, Len: 10}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}},
	}
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Cannot start in [0,5) (would overlap the reservation window with only
	// 2 procs free); earliest start is 10.
	if s.StartOf(0) != 10 {
		t.Fatalf("start = %v, want 10", s.StartOf(0))
	}
}

func TestLSRCBackfillsThinJobThroughReservation(t *testing.T) {
	inst := &core.Instance{
		M: 4,
		Jobs: []core.Job{
			{ID: 0, Procs: 3, Len: 10}, // must wait for the reservation
			{ID: 1, Procs: 1, Len: 3},  // fits alongside everything now
		},
		Res: []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}},
	}
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(1) != 0 {
		t.Fatalf("thin job should start immediately, got %v", s.StartOf(1))
	}
	if s.StartOf(0) != 10 {
		t.Fatalf("wide job start = %v, want 10", s.StartOf(0))
	}
}

func TestLSRCProposition2Trace(t *testing.T) {
	// The FIFO list must reproduce the paper's worst case exactly:
	// smalls at 0, then the two big tasks serialised through the
	// reservation window, makespan 1 + (k-1)*k = 7 (scaled).
	inst := prop2K3()
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if s.StartOf(i) != 0 {
			t.Fatalf("small task %d start = %v, want 0", i, s.StartOf(i))
		}
	}
	if s.StartOf(3) != 1 || s.StartOf(4) != 4 {
		t.Fatalf("big task starts = %v, %v; want 1, 4", s.StartOf(3), s.StartOf(4))
	}
	if s.Makespan() != 7 {
		t.Fatalf("LSRC makespan = %v, want 7 (= (2/α - 1 + α/2)·C*)", s.Makespan())
	}
}

func TestLSRCLPTFixesProposition2(t *testing.T) {
	// With LPT priority the big tasks go first and the instance schedules
	// optimally (makespan 3): the conclusion's suggested improvement.
	inst := prop2K3()
	s, err := NewLSRC(LPT).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(s); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 3 {
		t.Fatalf("LSRC-LPT makespan = %v, want optimal 3", s.Makespan())
	}
}

func TestLSRCStuckOnInfiniteReservation(t *testing.T) {
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 3, Len: 5}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 2, Len: core.Infinity}},
	}
	// Job is 3-wide and needs 5 ticks; only [0,2) has 4 procs, after that
	// 2 forever: unschedulable.
	_, err := NewLSRC(FIFO).Schedule(inst)
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("got %v, want ErrStuck", err)
	}
}

func TestLSRCFitsBeforeInfiniteReservation(t *testing.T) {
	inst := &core.Instance{
		M:    4,
		Jobs: []core.Job{{ID: 0, Procs: 3, Len: 2}},
		Res:  []core.Reservation{{ID: 0, Procs: 2, Start: 2, Len: core.Infinity}},
	}
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(0) != 0 {
		t.Fatalf("start = %v", s.StartOf(0))
	}
}

// TestLSRCParkedFirstStuck: the list's first job is parked for good (an
// infinite reservation leaves it no window) while a later one, too wide for
// any event's free capacity, never leaves the tournament. The stuck error
// must name the first job in list order, as the full re-scan does, not the
// tournament's first.
func TestLSRCParkedFirstStuck(t *testing.T) {
	inst := &core.Instance{
		M: 4,
		Jobs: []core.Job{
			{ID: 0, Procs: 3, Len: 5},  // refused at 0, no slot ever
			{ID: 1, Procs: 1, Len: 10}, // starts at 0
			{ID: 2, Procs: 4, Len: 1},  // wider than what is free at every event
		},
		Res: []core.Reservation{{ID: 0, Procs: 2, Start: 2, Len: core.Infinity}},
	}
	for _, backend := range []string{"array", "tree"} {
		got, gotErr := (&LSRC{Backend: backend}).Schedule(inst)
		want, wantErr := naiveLSRC(inst, FIFO, backend)
		sameOutcome(t, backend, got, gotErr, want, wantErr)
		if !errors.Is(gotErr, ErrStuck) || !strings.Contains(gotErr.Error(), "job 0 ") {
			t.Fatalf("%s: got %v, want ErrStuck naming job 0", backend, gotErr)
		}
	}
	// Job 0 was refused once and parked at Infinity; job 2 was never asked.
	if _, err := (&LSRC{Backend: "counting"}).Schedule(inst); !errors.Is(err, ErrStuck) {
		t.Fatalf("counting: got %v, want ErrStuck", err)
	}
	if c := lastCounting; c.canPlace != 2 || c.findSlot != 1 || c.notBefore[5] != core.Infinity {
		t.Fatalf("%d CanPlace, %d FindSlot, job 0 held until %v; want 2, 1, inf", c.canPlace, c.findSlot, c.notBefore[5])
	}
}

// nextChangeIndex answers FindSlot with a sound but looser bound than the
// earliest start: the next breakpoint after ready, when that comes first. A
// job refused at ready cannot start before availability next changes (any
// start in between meets the segment that refused it), so LSRC may park on
// it. The exact answer is always a rise in availability, which LSRC's
// commits, all starting at the clock, can only deepen until the clock gets
// there; this one can be a fall that a later commit levels, so that the
// clock steps past it. It records the events and job 0's CanPlace starts.
type nextChangeIndex struct {
	profile.CapacityIndex
	events, asked, parked []core.Time
}

var lastNextChange *nextChangeIndex

func init() {
	profile.RegisterBackend("nextchange", func(m int) profile.CapacityIndex {
		tree, err := profile.NewIndex("tree", m)
		if err != nil {
			panic(err)
		}
		lastNextChange = &nextChangeIndex{CapacityIndex: tree}
		return lastNextChange
	})
}

func (c *nextChangeIndex) AvailableAt(t core.Time) int {
	c.events = append(c.events, t)
	return c.CapacityIndex.AvailableAt(t)
}

func (c *nextChangeIndex) CanPlace(start, dur core.Time, q int) bool {
	if dur == 6 {
		c.asked = append(c.asked, start)
	}
	return c.CapacityIndex.CanPlace(start, dur, q)
}

func (c *nextChangeIndex) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	at, ok := c.CapacityIndex.FindSlot(ready, q, dur)
	if next, more := c.CapacityIndex.NextBreakpoint(ready); ok && more && next < at {
		at = next
	}
	c.parked = append(c.parked, at)
	return at, ok
}

// TestLSRCParkedInstantHealed: job 0 is parked until 5, where availability
// falls for a reservation; job 1's commit then ends at 5 and levels it. The
// clock steps from 0 straight to 10, past 5, and job 0 must be back in the
// tournament at 10, the first event after its instant.
func TestLSRCParkedInstantHealed(t *testing.T) {
	inst := &core.Instance{
		M: 4,
		Jobs: []core.Job{
			{ID: 0, Procs: 3, Len: 6}, // refused at 0: the reservation is in its window
			{ID: 1, Procs: 2, Len: 5}, // starts at 0, ends where the reservation starts
		},
		Res: []core.Reservation{{ID: 0, Procs: 2, Start: 5, Len: 5}},
	}
	got, gotErr := (&LSRC{Backend: "nextchange"}).Schedule(inst)
	want, wantErr := naiveLSRC(inst, FIFO, "tree")
	sameOutcome(t, "nextchange", got, gotErr, want, wantErr)
	c := lastNextChange
	if !slices.Equal(c.parked, []core.Time{5}) {
		t.Fatalf("job 0 parked until %v, want [5]", c.parked)
	}
	if before, at := c.CapacityIndex.AvailableAt(4), c.CapacityIndex.AvailableAt(5); before != at {
		t.Fatalf("availability %d before 5 and %d at 5: not levelled", before, at)
	}
	if !slices.Equal(c.events, []core.Time{0, 10}) || !slices.Equal(c.asked, []core.Time{0, 10}) {
		t.Fatalf("events at %v, job 0 asked at %v; want [0 10] and [0 10]", c.events, c.asked)
	}
	if got.StartOf(0) != 10 {
		t.Fatalf("job 0 starts at %v, want 10", got.StartOf(0))
	}
}

func TestLSRCRejectsInvalidInstance(t *testing.T) {
	inst := &core.Instance{M: 0}
	if _, err := NewLSRC(FIFO).Schedule(inst); !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", err)
	}
}

func TestLSRCDeterministic(t *testing.T) {
	inst := prop2K3()
	a, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("nondeterministic schedule at job %d", i)
		}
	}
}

func TestLSRCName(t *testing.T) {
	if got := NewLSRC(FIFO).Name(); got != "lsrc-fifo" {
		t.Errorf("Name = %q", got)
	}
	if got := (&LSRC{}).Name(); got != "lsrc-fifo" {
		t.Errorf("zero-order Name = %q", got)
	}
	if got := NewLSRC(LPT).Name(); got != "lsrc-lpt" {
		t.Errorf("Name = %q", got)
	}
}

func TestLSRCGrahamTwoMinusOneOverM(t *testing.T) {
	// Classic Graham anomaly family (no reservations): m-1 unit jobs plus
	// one long job; FIFO list runs the long job last. C* = p, LSRC = 1+p
	// with p = m-1... here widths are 1 so this is the sequential case:
	// m(m-1) unit jobs then one job of length m. C* = m (perfect packing),
	// LSRC-FIFO = 2m - 1, ratio exactly 2 - 1/m.
	m := 4
	inst := &core.Instance{M: m}
	id := 0
	for i := 0; i < m*(m-1); i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: 1, Len: 1})
		id++
	}
	inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: 1, Len: core.Time(m)})
	s, err := NewLSRC(FIFO).Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Makespan(), core.Time(2*m-1); got != want {
		t.Fatalf("makespan = %v, want %v (ratio 2-1/m)", got, want)
	}
}

// TestLemma1GrahamArgument checks the paper's Lemma 1 (appendix) on real
// LSRC schedules without reservations: for any two instants t, t' in
// [0, Cmax) with t' >= t + pmax, the processor usage satisfies
// r(t) + r(t') >= m + 1. (The lemma drives the continuous proof of
// Theorem 2.) Checking at usage breakpoints suffices: r is piecewise
// constant, and we evaluate every segment-pair spanning >= pmax.
func TestLemma1GrahamArgument(t *testing.T) {
	r := rng.New(515151)
	for trial := 0; trial < 120; trial++ {
		m := r.IntRange(2, 8)
		inst := &core.Instance{M: m}
		n := r.IntRange(2, 12)
		var pmax core.Time
		for i := 0; i < n; i++ {
			j := core.Job{ID: i, Procs: r.IntRange(1, m), Len: core.Time(r.IntRange(1, 9))}
			if j.Len > pmax {
				pmax = j.Len
			}
			inst.Jobs = append(inst.Jobs, j)
		}
		s, err := NewLSRC(RandomOrder(uint64(trial))).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		usage := s.Usage()
		cmax := s.Makespan()
		// Sample each segment at its start plus, defensively, one interior
		// point; segments are constant so starts suffice.
		var samples []core.Time
		for i := 0; i < usage.Len(); i++ {
			st, _, _ := usage.Segment(i)
			if st < cmax {
				samples = append(samples, st)
			}
		}
		for _, t0 := range samples {
			for _, t1 := range samples {
				if t1 < t0+pmax {
					continue
				}
				if got := usage.At(t0) + usage.At(t1); got < m+1 {
					t.Fatalf("trial %d: Lemma 1 violated: r(%v)+r(%v) = %d < m+1 = %d\nstarts: %v",
						trial, t0, t1, got, m+1, s.Start)
				}
			}
		}
	}
}
