package core

import "fmt"

// Job is a rigid parallel task: it must run on exactly Procs processors
// simultaneously for Len ticks, without preemption, on any subset of the
// cluster's processors (the model is non-contiguous, matching §2.1 of the
// paper). The processors used must be identical throughout the execution.
type Job struct {
	// ID identifies the job within its instance. Instance validation
	// requires IDs to be unique and non-negative.
	ID int `json:"id"`
	// Name is an optional human-readable label used in rendered output.
	Name string `json:"name,omitempty"`
	// Procs is q_j, the number of processors the job requires, in [1, m].
	Procs int `json:"procs"`
	// Len is p_j, the processing time of the job, strictly positive.
	Len Time `json:"len"`
}

// Work returns the area p_j * q_j occupied by the job in the Gantt chart.
func (j Job) Work() int64 {
	return int64(j.Len) * int64(j.Procs)
}

// Label returns Name if set, otherwise a synthetic "J<id>" label.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("J%d", j.ID)
}

// Reservation is an advance reservation: Procs processors are unavailable
// to the scheduler during [Start, Start+Len). Reservations are fixed data of
// the problem instance — the scheduler must work around them.
type Reservation struct {
	// ID identifies the reservation within its instance.
	ID int `json:"id"`
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Procs is the number of processors the reservation holds, in [1, m].
	Procs int `json:"procs"`
	// Start is the fixed start time r_j of the reservation, >= 0.
	Start Time `json:"start"`
	// Len is the duration p_j of the reservation, strictly positive.
	Len Time `json:"len"`
}

// End returns the first instant after the reservation releases its
// processors, i.e. Start+Len.
func (r Reservation) End() Time {
	if r.Len == Infinity || r.Start == Infinity {
		return Infinity
	}
	return r.Start + r.Len
}
