package core

import (
	"fmt"
	"sort"
	"strings"
)

// StepFunc is a right-continuous piecewise-constant function of time,
// represented by breakpoints and segment values: the function equals
// Values[i] on [Times[i], Times[i+1]) and Values[len-1] on
// [Times[len-1], +inf). Times[0] is always 0.
//
// It models the paper's unavailability function U(t) (number of processors
// held by reservations at time t) and, more generally, resource usage
// curves. The zero StepFunc is not valid; build one with UnavailabilityOf.
type StepFunc struct {
	times  []Time
	values []int
}

// delta is an amount of change applied at a point in time; used to build a
// StepFunc from interval contributions.
type delta struct {
	at     Time
	amount int
}

// stepFromDeltas accumulates interval deltas into a StepFunc starting from
// base at time 0. Only the sum at each instant matters, so any order of
// the deltas at one instant gives the same function.
func stepFromDeltas(base int, deltas []delta) *StepFunc {
	SortByKey(deltas, func(d delta) uint64 { return SortKey(int64(d.at)) })
	f := &StepFunc{times: make([]Time, 1, len(deltas)+1), values: make([]int, 1, len(deltas)+1)}
	f.values[0] = base
	cur := base
	for i := 0; i < len(deltas); {
		t := deltas[i].at
		sum := 0
		for i < len(deltas) && deltas[i].at == t {
			sum += deltas[i].amount
			i++
		}
		if sum == 0 {
			continue
		}
		cur += sum
		if t == f.times[len(f.times)-1] {
			f.values[len(f.values)-1] = cur
			// Collapse if the previous segment now has the same value.
			if n := len(f.times); n >= 2 && f.values[n-2] == f.values[n-1] {
				f.times = f.times[:n-1]
				f.values = f.values[:n-1]
			}
		} else {
			f.times = append(f.times, t)
			f.values = append(f.values, cur)
		}
	}
	return f
}

// UnavailabilityOf builds the unavailability function U(t) of a reservation
// set: U(t) is the total number of processors held by reservations active at
// time t.
func UnavailabilityOf(res []Reservation) *StepFunc {
	deltas := make([]delta, 0, 2*len(res))
	for _, r := range res {
		deltas = append(deltas, delta{r.Start, r.Procs})
		if r.End() != Infinity {
			deltas = append(deltas, delta{r.End(), -r.Procs})
		}
	}
	return stepFromDeltas(0, deltas)
}

// At returns the value of the function at time t. Times before 0 report the
// value at 0.
func (f *StepFunc) At(t Time) int {
	i := sort.Search(len(f.times), func(i int) bool { return f.times[i] > t })
	if i == 0 {
		return f.values[0]
	}
	return f.values[i-1]
}

// Max returns the maximum value attained by the function.
func (f *StepFunc) Max() int {
	max := f.values[0]
	for _, v := range f.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// IntegralTo returns the integral of the function over [0, t).
func (f *StepFunc) IntegralTo(t Time) int64 {
	var total int64
	for i := 0; i < len(f.times); i++ {
		segStart := f.times[i]
		if segStart >= t {
			break
		}
		segEnd := t
		if i+1 < len(f.times) && f.times[i+1] < t {
			segEnd = f.times[i+1]
		}
		total += int64(segEnd-segStart) * int64(f.values[i])
	}
	return total
}

// NonIncreasing reports whether the function never increases over time.
// The paper's Proposition 1 applies exactly to instances whose
// unavailability function is non-increasing.
func (f *StepFunc) NonIncreasing() bool {
	for i := 1; i < len(f.values); i++ {
		if f.values[i] > f.values[i-1] {
			return false
		}
	}
	return true
}

// Len returns the number of constant segments.
func (f *StepFunc) Len() int { return len(f.times) }

// Segment returns the i-th segment as (start, end, value), with end equal to
// Infinity for the last segment.
func (f *StepFunc) Segment(i int) (start, end Time, value int) {
	start = f.times[i]
	end = Infinity
	if i+1 < len(f.times) {
		end = f.times[i+1]
	}
	return start, end, f.values[i]
}

// FinalValue returns the value on the last (unbounded) segment.
func (f *StepFunc) FinalValue() int { return f.values[len(f.values)-1] }

// String renders the function as a compact segment list for debugging.
func (f *StepFunc) String() string {
	var b strings.Builder
	for i := range f.times {
		start, end, v := f.Segment(i)
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "[%v,%v)=%d", start, end, v)
	}
	return b.String()
}
