// Package sim is a discrete-event cluster simulator: jobs arrive over time
// and an online policy decides, at every event (arrival, job completion,
// reservation boundary), which queued jobs to start. It turns the
// repository's offline algorithms into the operational setting the paper's
// introduction describes — a batch scheduler in front of a cluster with
// advance reservations — and collects the metrics operators care about
// (utilisation, waiting times, bounded slowdown) alongside the makespan the
// paper analyses.
//
// Policies are non-clairvoyant about arrivals (they see only queued jobs)
// but fully aware of reservations, matching production batch systems.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"

	// Ensure the "tree" capacity backend is registered for RunOn.
	_ "repro/internal/restree"
)

// Queued is a job visible to the policy: its arrival-index identity, the
// job itself, and its arrival time.
type Queued struct {
	// Idx is the arrival index (stable identity across events).
	Idx int
	// Job is the rigid job.
	Job core.Job
	// At is its arrival time.
	At core.Time
}

// Policy selects, at the current instant, which queued jobs start now.
// Dispatch must return indices into the queue slice (not arrival indices)
// of jobs that fit at now on tl; the engine validates and commits them.
// The capacity index must be returned in the state it was handed over;
// policies needing scratch state either clone it (CloneIndex) or overlay
// trial commitments and roll them back (see scratch in policies.go).
// Policies see only the CapacityIndex seam, so the engine can run them on
// either the array or the tree backend unchanged.
type Policy interface {
	// Name identifies the policy in metrics tables.
	Name() string
	// Dispatch picks queue positions to start at now.
	Dispatch(now core.Time, queue []Queued, tl profile.CapacityIndex) []int
}

// Metrics summarises a simulation run.
type Metrics struct {
	// Policy is the policy's name.
	Policy string
	// Jobs is the number of jobs completed.
	Jobs int
	// Makespan is the last completion time.
	Makespan core.Time
	// TotalWork is the processor-tick volume of the jobs.
	TotalWork int64
	// Utilization is TotalWork / (m · Makespan): raw machine usage.
	Utilization float64
	// EffectiveUtilization divides by the area actually available to jobs
	// (m·Makespan minus reserved area before Makespan).
	EffectiveUtilization float64
	// AvgWait and MaxWait summarise start - arrival.
	AvgWait float64
	MaxWait core.Time
	// AvgBoundedSlowdown is the mean of (wait+run)/max(run, tau) with
	// tau = 10, the standard BSLD metric.
	AvgBoundedSlowdown float64
}

// Result is the outcome of a run: per-arrival start times plus metrics.
type Result struct {
	// Starts[i] is the start time of arrivals[i].
	Starts []core.Time
	// Metrics are the aggregate statistics.
	Metrics Metrics
}

// Errors returned by Run.
var (
	ErrPolicy = errors.New("sim: policy returned an infeasible or duplicate start")
	ErrStuck  = errors.New("sim: queued jobs can never start")
)

// bsldTau is the bounded-slowdown runtime floor.
const bsldTau = 10.0

// Run simulates the policy on the arrival stream over an m-processor
// machine with the given reservations, on the default (array) capacity
// backend.
func Run(m int, res []core.Reservation, arrivals []workload.Arrival, policy Policy) (*Result, error) {
	return RunOn("", m, res, arrivals, policy)
}

// RunOn is Run on the named capacity backend ("" = array, "tree" = the
// restree balanced index). Results are identical across backends; only the
// asymptotics of the event loop's placement queries change.
func RunOn(backend string, m int, res []core.Reservation, arrivals []workload.Arrival, policy Policy) (*Result, error) {
	tl, err := profile.IndexFromReservations(backend, m, res)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return arrivals[order[a]].At < arrivals[order[b]].At
	})

	starts := make([]core.Time, len(arrivals))
	for i := range starts {
		starts[i] = core.Unscheduled
	}
	var queue []Queued
	next := 0 // next arrival (position in order)
	now := core.Time(0)
	done := 0

	for done < len(arrivals) {
		// Admit arrivals up to now.
		for next < len(order) && arrivals[order[next]].At <= now {
			i := order[next]
			a := arrivals[i]
			j := a.Job
			if j.Procs > m {
				return nil, fmt.Errorf("sim: job %d wider than machine", j.ID)
			}
			queue = append(queue, Queued{Idx: i, Job: j, At: a.At})
			next++
		}

		if len(queue) > 0 {
			picks := policy.Dispatch(now, queue, tl)
			seen := make(map[int]bool, len(picks))
			// Validate and commit.
			for _, p := range picks {
				if p < 0 || p >= len(queue) || seen[p] {
					return nil, fmt.Errorf("%w: pick %d", ErrPolicy, p)
				}
				seen[p] = true
				j := queue[p].Job
				if err := tl.Commit(now, j.Len, j.Procs); err != nil {
					return nil, fmt.Errorf("%w: job %d at %v: %v", ErrPolicy, j.ID, now, err)
				}
				starts[queue[p].Idx] = now
				done++
			}
			if len(picks) > 0 {
				kept := queue[:0]
				for p, q := range queue {
					if !seen[p] {
						kept = append(kept, q)
					}
				}
				queue = kept
			}
		}

		// Advance to the next event: arrival or availability change.
		var candidates []core.Time
		if next < len(order) {
			candidates = append(candidates, arrivals[order[next]].At)
		}
		if bp, ok := tl.NextBreakpoint(now); ok {
			candidates = append(candidates, bp)
		}
		if len(candidates) == 0 {
			if len(queue) > 0 {
				return nil, fmt.Errorf("%w: %d jobs at t=%v", ErrStuck, len(queue), now)
			}
			break
		}
		nt := candidates[0]
		for _, c := range candidates[1:] {
			if c < nt {
				nt = c
			}
		}
		if nt <= now {
			// An arrival exactly at now was already admitted; force
			// progress to avoid spinning.
			nt = now + 1
		}
		now = nt
	}

	return buildResult(m, res, arrivals, starts, policy.Name()), nil
}

// buildResult computes metrics from the start vector.
func buildResult(m int, res []core.Reservation, arrivals []workload.Arrival, starts []core.Time, name string) *Result {
	met := Metrics{Policy: name, Jobs: len(arrivals)}
	out := &Result{Starts: starts}
	var waitSum, bsldSum float64
	for i, a := range arrivals {
		j := a.Job
		met.TotalWork += j.Work()
		end := starts[i] + j.Len
		if end > met.Makespan {
			met.Makespan = end
		}
		wait := starts[i] - a.At
		waitSum += float64(wait)
		if wait > met.MaxWait {
			met.MaxWait = wait
		}
		den := float64(j.Len)
		if den < bsldTau {
			den = bsldTau
		}
		bsldSum += (float64(wait) + float64(j.Len)) / den
	}
	if n := len(arrivals); n > 0 {
		met.AvgWait = waitSum / float64(n)
		met.AvgBoundedSlowdown = bsldSum / float64(n)
	}
	if met.Makespan > 0 {
		total := int64(m) * int64(met.Makespan)
		met.Utilization = float64(met.TotalWork) / float64(total)
		reserved := core.UnavailabilityOf(res).IntegralTo(met.Makespan)
		if avail := total - reserved; avail > 0 {
			met.EffectiveUtilization = float64(met.TotalWork) / float64(avail)
		}
	}
	out.Metrics = met
	return out
}
