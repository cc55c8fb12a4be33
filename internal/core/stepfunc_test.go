package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestUnavailabilityBasic(t *testing.T) {
	res := []Reservation{
		{ID: 0, Procs: 3, Start: 10, Len: 5},
		{ID: 1, Procs: 2, Start: 12, Len: 10},
	}
	u := UnavailabilityOf(res)
	cases := []struct {
		t    Time
		want int
	}{
		{0, 0}, {9, 0}, {10, 3}, {11, 3}, {12, 5}, {14, 5},
		{15, 2}, {21, 2}, {22, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := u.At(c.t); got != c.want {
			t.Errorf("U(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if u.Max() != 5 {
		t.Errorf("Max = %d, want 5", u.Max())
	}
}

func TestUnavailabilityEmpty(t *testing.T) {
	u := UnavailabilityOf(nil)
	if u.At(0) != 0 || u.Max() != 0 || u.Len() != 1 {
		t.Fatalf("empty unavailability = %v", u)
	}
}

func TestUnavailabilityAdjacentMerge(t *testing.T) {
	// Two back-to-back reservations with equal width should produce one
	// merged plateau segment, not a spurious breakpoint.
	res := []Reservation{
		{ID: 0, Procs: 4, Start: 0, Len: 10},
		{ID: 1, Procs: 4, Start: 10, Len: 10},
	}
	u := UnavailabilityOf(res)
	if u.At(5) != 4 || u.At(15) != 4 || u.At(20) != 0 {
		t.Fatalf("unexpected values: %v", u)
	}
	if u.Len() != 2 { // [0,20)=4, [20,inf)=0
		t.Fatalf("expected 2 segments after merge, got %d: %v", u.Len(), u)
	}
}

func TestStepFuncIntegral(t *testing.T) {
	res := []Reservation{{ID: 0, Procs: 2, Start: 5, Len: 10}}
	u := UnavailabilityOf(res)
	cases := []struct {
		t    Time
		want int64
	}{
		{0, 0}, {5, 0}, {6, 2}, {15, 20}, {20, 20}, {100, 20},
	}
	for _, c := range cases {
		if got := u.IntegralTo(c.t); got != c.want {
			t.Errorf("IntegralTo(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestStepFuncNonIncreasing(t *testing.T) {
	dec := UnavailabilityOf([]Reservation{
		{ID: 0, Procs: 5, Start: 0, Len: 10},
		{ID: 1, Procs: 3, Start: 0, Len: 20},
	})
	if !dec.NonIncreasing() {
		t.Errorf("staircase release should be non-increasing: %v", dec)
	}
	inc := UnavailabilityOf([]Reservation{{ID: 0, Procs: 5, Start: 10, Len: 10}})
	if inc.NonIncreasing() {
		t.Errorf("future reservation should not be non-increasing: %v", inc)
	}
}

func TestStepFuncSegments(t *testing.T) {
	u := UnavailabilityOf([]Reservation{{ID: 0, Procs: 2, Start: 3, Len: 4}})
	if u.Len() != 3 {
		t.Fatalf("want 3 segments, got %d: %v", u.Len(), u)
	}
	s0, e0, v0 := u.Segment(0)
	if s0 != 0 || e0 != 3 || v0 != 0 {
		t.Errorf("segment 0 = (%v,%v,%d)", s0, e0, v0)
	}
	s2, e2, v2 := u.Segment(2)
	if s2 != 7 || e2 != Infinity || v2 != 0 {
		t.Errorf("segment 2 = (%v,%v,%d)", s2, e2, v2)
	}
	if u.FinalValue() != 0 {
		t.Errorf("FinalValue = %d", u.FinalValue())
	}
}

func TestStepFuncInfiniteReservation(t *testing.T) {
	u := UnavailabilityOf([]Reservation{{ID: 0, Procs: 3, Start: 5, Len: Infinity}})
	if u.At(4) != 0 || u.At(5) != 3 || u.At(1<<50) != 3 {
		t.Fatalf("infinite reservation mishandled: %v", u)
	}
	if u.FinalValue() != 3 {
		t.Fatalf("FinalValue = %d, want 3", u.FinalValue())
	}
}

// randomReservations builds a reproducible random reservation set.
func randomReservations(r *rng.PCG, n, maxProcs int, horizon Time) []Reservation {
	res := make([]Reservation, n)
	for i := range res {
		res[i] = Reservation{
			ID:    i,
			Procs: r.IntRange(1, maxProcs),
			Start: Time(r.Int63n(int64(horizon))),
			Len:   Time(r.Int63Range(1, int64(horizon)/4+1)),
		}
	}
	return res
}

func TestUnavailabilityMatchesBruteForce(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		res := randomReservations(r, r.IntRange(0, 8), 5, 40)
		u := UnavailabilityOf(res)
		for tm := Time(0); tm < 60; tm++ {
			want := 0
			for _, rr := range res {
				if rr.Start <= tm && tm < rr.End() {
					want += rr.Procs
				}
			}
			if got := u.At(tm); got != want {
				t.Fatalf("trial %d: U(%v) = %d, want %d (res=%v)", trial, tm, got, want, res)
			}
		}
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	r := rng.New(78)
	for trial := 0; trial < 100; trial++ {
		res := randomReservations(r, r.IntRange(1, 6), 4, 30)
		u := UnavailabilityOf(res)
		var acc int64
		for tm := Time(0); tm <= 50; tm++ {
			if got := u.IntegralTo(tm); got != acc {
				t.Fatalf("trial %d: IntegralTo(%v) = %d, want %d", trial, tm, got, acc)
			}
			acc += int64(u.At(tm))
		}
	}
}

func TestStepFuncSegmentsAreCanonical(t *testing.T) {
	// Property: consecutive segments always carry different values and
	// strictly increasing start times.
	r := rng.New(79)
	f := func(seed uint32) bool {
		local := rng.New(uint64(seed) ^ r.Uint64())
		res := randomReservations(local, local.IntRange(0, 10), 6, 50)
		u := UnavailabilityOf(res)
		for i := 1; i < u.Len(); i++ {
			s0, _, v0 := u.Segment(i - 1)
			s1, _, v1 := u.Segment(i)
			if s1 <= s0 || v1 == v0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Error("MinTime broken")
	}
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Error("MaxTime broken")
	}
	if Infinity.String() != "inf" {
		t.Errorf("Infinity.String() = %q", Infinity.String())
	}
	if Time(42).String() != "42" {
		t.Errorf("Time(42).String() = %q", Time(42).String())
	}
}
