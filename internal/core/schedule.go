package core

import (
	"encoding/json"
	"io"
)

// Unscheduled marks a job that has not been assigned a start time.
const Unscheduled Time = -1

// Schedule is a solution to an Instance: a start time σ_i for every job,
// indexed by position in Instance.Jobs. A schedule is feasible when, at
// every instant, the processors used by running jobs plus those held by
// active reservations do not exceed m (checked by the verify package; Usage
// below provides the raw curve).
type Schedule struct {
	Inst *Instance
	// Start holds σ_i for Inst.Jobs[i], or Unscheduled.
	Start []Time
	// Algorithm optionally records which scheduler produced the schedule.
	Algorithm string
}

// NewSchedule returns an empty (all-unscheduled) schedule for inst.
func NewSchedule(inst *Instance) *Schedule {
	s := &Schedule{Inst: inst, Start: make([]Time, len(inst.Jobs))}
	for i := range s.Start {
		s.Start[i] = Unscheduled
	}
	return s
}

// SetStart assigns a start time to the job at index idx.
func (s *Schedule) SetStart(idx int, t Time) {
	s.Start[idx] = t
}

// StartOf returns the start time of the job at index idx.
func (s *Schedule) StartOf(idx int) Time { return s.Start[idx] }

// EndOf returns the completion time of the job at index idx, or Unscheduled
// if it has no start time.
func (s *Schedule) EndOf(idx int) Time {
	if s.Start[idx] == Unscheduled {
		return Unscheduled
	}
	return s.Start[idx] + s.Inst.Jobs[idx].Len
}

// Makespan returns Cmax, the largest completion time over scheduled jobs
// (0 for an empty schedule). Unscheduled jobs are ignored; verify.Verify
// refuses a schedule that has any.
func (s *Schedule) Makespan() Time {
	var cmax Time
	for i, t := range s.Start {
		if t == Unscheduled {
			continue
		}
		if end := t + s.Inst.Jobs[i].Len; end > cmax {
			cmax = end
		}
	}
	return cmax
}

// scheduleJSON is the serialised wire form of a Schedule.
type scheduleJSON struct {
	Algorithm string `json:"algorithm,omitempty"`
	// Starts maps job ID (not index) to start time.
	Starts map[int]Time `json:"starts"`
}

// WriteJSON serialises the schedule (start times keyed by job ID).
func (s *Schedule) WriteJSON(w io.Writer) error {
	out := scheduleJSON{Algorithm: s.Algorithm, Starts: make(map[int]Time, len(s.Start))}
	for i, t := range s.Start {
		if t != Unscheduled {
			out.Starts[s.Inst.Jobs[i].ID] = t
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
