package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Instance is a complete RESASCHEDULING problem: m identical processors, a
// set of rigid jobs to place, and a set of fixed advance reservations the
// jobs must not intersect. The pure RIGIDSCHEDULING problem of §2 of the
// paper is the special case with no reservations.
type Instance struct {
	// Name is an optional label used in experiment output.
	Name string `json:"name,omitempty"`
	// M is the number of identical processors in the cluster.
	M int `json:"m"`
	// Jobs are the rigid parallel tasks to schedule.
	Jobs []Job `json:"jobs"`
	// Res are the advance reservations (may be empty).
	Res []Reservation `json:"reservations,omitempty"`
}

// Validation errors returned by Instance.Validate.
var (
	ErrNoMachines       = errors.New("core: instance has no machines (m < 1)")
	ErrBadJob           = errors.New("core: job has invalid size or duration")
	ErrBadReservation   = errors.New("core: reservation has invalid size, start or duration")
	ErrDuplicateID      = errors.New("core: duplicate job or reservation id")
	ErrResOverSubscribe = errors.New("core: reservations exceed machine capacity at some time")
)

// Validate checks that the instance is well-formed and feasible in the sense
// of §3.1: every job fits on the machine, every reservation is valid, ids
// are unique, and the reservations alone never oversubscribe the m
// processors (U(t) <= m for all t).
func (in *Instance) Validate() error {
	_, err := in.ValidUnavailability()
	return err
}

// ValidUnavailability is Validate returning the U it builds for the last
// check, so that a caller that needs U too builds it once.
func (in *Instance) ValidUnavailability() (*StepFunc, error) {
	if in.M < 1 {
		return nil, fmt.Errorf("%w: m=%d", ErrNoMachines, in.M)
	}
	dup := firstDuplicate(len(in.Jobs), func(i int) int { return in.Jobs[i].ID })
	for i, j := range in.Jobs {
		if j.Procs < 1 || j.Procs > in.M {
			return nil, fmt.Errorf("%w: job %d needs %d of %d procs", ErrBadJob, j.ID, j.Procs, in.M)
		}
		if j.Len <= 0 || j.Len == Infinity {
			return nil, fmt.Errorf("%w: job %d has duration %v", ErrBadJob, j.ID, j.Len)
		}
		if j.ID < 0 || i == dup {
			return nil, fmt.Errorf("%w: job id %d", ErrDuplicateID, j.ID)
		}
	}
	dup = firstDuplicate(len(in.Res), func(i int) int { return in.Res[i].ID })
	for i, r := range in.Res {
		if r.Procs < 1 || r.Procs > in.M {
			return nil, fmt.Errorf("%w: reservation %d holds %d of %d procs", ErrBadReservation, r.ID, r.Procs, in.M)
		}
		if r.Len <= 0 {
			return nil, fmt.Errorf("%w: reservation %d has duration %v", ErrBadReservation, r.ID, r.Len)
		}
		if r.Start < 0 {
			return nil, fmt.Errorf("%w: reservation %d starts at %v", ErrBadReservation, r.ID, r.Start)
		}
		// A finite window must end at or before the end of time; past it,
		// Start+Len wraps to a negative End.
		if r.Len != Infinity && r.Len > Infinity-r.Start {
			return nil, fmt.Errorf("%w: reservation %d ends past the end of time (start %v, duration %v)",
				ErrBadReservation, r.ID, r.Start, r.Len)
		}
		if r.ID < 0 || i == dup {
			return nil, fmt.Errorf("%w: reservation id %d", ErrDuplicateID, r.ID)
		}
	}
	u := UnavailabilityOf(in.Res)
	if u.Max() > in.M {
		return nil, fmt.Errorf("%w: peak unavailability %d > m=%d", ErrResOverSubscribe, u.Max(), in.M)
	}
	return u, nil
}

// firstDuplicate returns the position of the first id, in input order,
// that repeats an earlier one, or -1. Strictly increasing ids — what the
// generators write — cost one pass; any other order sorts one slice of
// positions by (id, position), the only allocation.
func firstDuplicate(n int, id func(int) int) int {
	increasing := true
	for i := 1; i < n && increasing; i++ {
		increasing = id(i-1) < id(i)
	}
	if increasing {
		return -1
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		if c := cmp.Compare(id(a), id(b)); c != 0 {
			return c
		}
		return a - b
	})
	first := -1
	for k := 1; k < n; k++ {
		if id(pos[k]) == id(pos[k-1]) && (first < 0 || pos[k] < first) {
			first = pos[k]
		}
	}
	return first
}

// Unavailability returns the paper's U(t): the number of processors held by
// reservations at each time.
func (in *Instance) Unavailability() *StepFunc {
	return UnavailabilityOf(in.Res)
}

// TotalWork returns W(I) = sum over jobs of p_j*q_j (reservations excluded).
func (in *Instance) TotalWork() int64 {
	var w int64
	for _, j := range in.Jobs {
		w += j.Work()
	}
	return w
}

// MaxJobLen returns p_max, the longest job duration (0 if there are no jobs).
func (in *Instance) MaxJobLen() Time {
	var max Time
	for _, j := range in.Jobs {
		if j.Len > max {
			max = j.Len
		}
	}
	return max
}

// MaxJobProcs returns the widest job's processor requirement (0 if none).
func (in *Instance) MaxJobProcs() int {
	max := 0
	for _, j := range in.Jobs {
		if j.Procs > max {
			max = j.Procs
		}
	}
	return max
}

// Alpha returns the largest α in (0,1] for which the instance is a valid
// α-RESASCHEDULING instance (Definition of §4.2): every reservation level
// leaves at least α·m processors free and no job requires more than α·m.
// It returns the pair (α, ok); ok is false when no α in (0,1] works, which
// happens exactly when reservations ever hold all m processors while jobs
// exist, or a job is wider than the guaranteed availability.
//
// Concretely α must satisfy: U(t) <= (1-α)m for all t, i.e. α <= 1 -
// Umax/m, and q_i <= αm for all i, i.e. α >= qmax/m. The returned α is the
// largest feasible value, 1 - Umax/m.
func (in *Instance) Alpha() (float64, bool) {
	if in.M == 0 {
		return 0, false
	}
	umax := in.Unavailability().Max()
	alpha := 1 - float64(umax)/float64(in.M)
	if alpha <= 0 {
		return 0, false
	}
	if len(in.Jobs) > 0 {
		qmax := in.MaxJobProcs()
		if float64(qmax) > alpha*float64(in.M)+1e-9 {
			return alpha, false
		}
	}
	return alpha, true
}

// JobByID returns the job with the given id and whether it exists.
func (in *Instance) JobByID(id int) (Job, bool) {
	for _, j := range in.Jobs {
		if j.ID == id {
			return j, true
		}
	}
	return Job{}, false
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Name: in.Name, M: in.M}
	out.Jobs = append([]Job(nil), in.Jobs...)
	out.Res = append([]Reservation(nil), in.Res...)
	return out
}

// Scale returns a copy of the instance with every duration and start time
// multiplied by factor. Makespan ratios are invariant under scaling, which
// is how the paper's rational-time constructions are made integral.
func (in *Instance) Scale(factor Time) *Instance {
	if factor <= 0 {
		panic("core: Scale with non-positive factor")
	}
	out := in.Clone()
	for i := range out.Jobs {
		out.Jobs[i].Len *= factor
	}
	for i := range out.Res {
		out.Res[i].Start *= factor
		out.Res[i].Len *= factor
	}
	return out
}

// WriteJSON serialises the instance as indented JSON.
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// ReadInstanceJSON parses an instance from JSON and validates it.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}
