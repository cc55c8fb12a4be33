// Package instances builds the problem instances used throughout the
// paper's analysis — the Theorem 1 reduction from 3-PARTITION, the
// Proposition 2 adversarial family, the Figure 2 reservation-to-task
// transformation, FCFS's pathological family — together with random
// generators for the empirical sweeps.
//
// Every construction with rational times in the paper is returned pre-scaled
// to integer ticks; the scaling factor is documented per constructor
// (ratios are scale-invariant).
package instances

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/threepart"
)

// FromThreePartition builds the Theorem 1 reduction instance (Figure 1 of
// the paper) from a 3-PARTITION instance and a hypothetical approximation
// ratio rho:
//
//	m = 1;
//	one unit-width job of length x_i per item;
//	k reservations: reservation i (1-based) starts at i(B+1)-1; the first
//	k-1 have length 1, the last has length rho·k(B+1)+1, ending at
//	(rho+1)·k(B+1).
//
// If the 3-PARTITION instance is a YES instance, the optimum is exactly
// k(B+1)-1 (fill each window with one group); any schedule that misses a
// window must jump past the long final reservation, giving makespan at
// least (rho+1)·k(B+1) and hence ratio > rho. This is how the paper shows
// no finite performance ratio is achievable.
func FromThreePartition(tp *threepart.Instance, rho int) (*core.Instance, error) {
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	if rho < 1 {
		return nil, fmt.Errorf("instances: rho must be >= 1, got %d", rho)
	}
	k := tp.K()
	b := core.Time(tp.B)
	inst := &core.Instance{
		Name: fmt.Sprintf("theorem1-k%d-B%d-rho%d", k, tp.B, rho),
		M:    1,
	}
	for i, x := range tp.Items {
		inst.Jobs = append(inst.Jobs, core.Job{ID: i, Procs: 1, Len: core.Time(x)})
	}
	for i := 1; i <= k; i++ {
		r := core.Reservation{
			ID:    i - 1,
			Procs: 1,
			Start: core.Time(i)*(b+1) - 1,
			Len:   1,
		}
		if i == k {
			r.Len = core.Time(rho)*core.Time(k)*(b+1) + 1
		}
		inst.Res = append(inst.Res, r)
	}
	return inst, nil
}

// Theorem1Optimum returns the optimal makespan of the Theorem 1 reduction
// of a YES instance: k(B+1) - 1.
func Theorem1Optimum(tp *threepart.Instance) core.Time {
	return core.Time(tp.K())*core.Time(tp.B+1) - 1
}

// Theorem1Wall returns the completion time of the reduction's final
// reservation, (rho+1)·k(B+1): any schedule that fails to pack the windows
// finishes at or beyond this wall.
func Theorem1Wall(tp *threepart.Instance, rho int) core.Time {
	return core.Time(rho+1) * core.Time(tp.K()) * core.Time(tp.B+1)
}

// Prop2Instance builds the Proposition 2 adversarial family for α = 2/k
// (k >= 2), scaled by k so all times are integral:
//
//	m = k²(k-1)
//	k small tasks:  q = (k-1)², p = 1  (unscaled 1/k)
//	k-1 big tasks:  q = k(k-1)+1, p = k (unscaled 1)
//	one reservation (absent for k=2, where it would hold 0 processors):
//	  q = k(k-1)(k-2) = (1-α)m, start = k, length = 2k² (unscaled 2k)
//
// The optimum is k (unscaled 1): big tasks and one small task run from 0,
// the small tasks chaining on the same processors. LSRC with the FIFO list
// starts all small tasks first and then serialises the big tasks through
// the reservation window, reaching 1 + k(k-1) (unscaled 1/k + k - 1), i.e.
// ratio 2/α - 1 + α/2. Figure 3 is the k=6 member: m=180, C*=6, LSRC=31.
func Prop2Instance(k int) (*core.Instance, error) {
	if k < 2 {
		return nil, fmt.Errorf("instances: Prop2Instance needs k >= 2, got %d", k)
	}
	m := k * k * (k - 1)
	inst := &core.Instance{
		Name: fmt.Sprintf("prop2-k%d", k),
		M:    m,
	}
	id := 0
	for i := 0; i < k; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: (k - 1) * (k - 1), Len: 1})
		id++
	}
	for i := 0; i < k-1; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: k*(k-1) + 1, Len: core.Time(k)})
		id++
	}
	if q := k * (k - 1) * (k - 2); q > 0 {
		inst.Res = append(inst.Res, core.Reservation{
			ID: 0, Procs: q, Start: core.Time(k), Len: core.Time(2 * k * k),
		})
	}
	return inst, nil
}

// Prop2Alpha returns the α of the k-th family member: 2/k.
func Prop2Alpha(k int) float64 { return 2 / float64(k) }

// Prop2Optimum returns the scaled optimal makespan of Prop2Instance(k): k.
func Prop2Optimum(k int) core.Time { return core.Time(k) }

// Prop2LSRCMakespan returns the scaled makespan LSRC reaches on
// Prop2Instance(k) with the FIFO list: 1 + k(k-1) (ratio 2/α - 1 + α/2).
func Prop2LSRCMakespan(k int) core.Time { return core.Time(1 + k*(k-1)) }

// GrahamAdversarial builds the classic family driving list scheduling to
// its 2 - 1/m guarantee without reservations: m(m-1) unit jobs followed by
// a single job of length m (all unit width). FIFO LSRC fills the machine
// with the unit jobs first (makespan 2m-1); the optimum dedicates one
// processor to the long job (makespan m).
func GrahamAdversarial(m int) (*core.Instance, error) {
	if m < 1 {
		return nil, fmt.Errorf("instances: GrahamAdversarial needs m >= 1, got %d", m)
	}
	inst := &core.Instance{Name: fmt.Sprintf("graham-m%d", m), M: m}
	id := 0
	for i := 0; i < m*(m-1); i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: 1, Len: 1})
		id++
	}
	inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: 1, Len: core.Time(m)})
	return inst, nil
}

// GrahamOptimum returns the optimal makespan of GrahamAdversarial(m): m.
func GrahamOptimum(m int) core.Time { return core.Time(m) }

// GrahamLSRCMakespan returns FIFO LSRC's makespan on GrahamAdversarial(m):
// 2m - 1.
func GrahamLSRCMakespan(m int) core.Time { return core.Time(2*m - 1) }

// FCFSPathological builds the §2.2 family on which FCFS (with or without
// conservative back-filling) has ratio approaching m while LSRC stays
// optimal: m thin jobs T_i (1 processor, length D+i-1) interleaved with m
// full-width unit jobs W_i. FCFS serialises every pair; the optimum runs
// all thin jobs in parallel and then the wide jobs.
//
// The optimal makespan is D + 2m - 1 (longest thin job D+m-1, then m wide
// ticks, which can never overlap any thin job). The FCFS makespan is
// m(D+1) + m(m-1)/2, so the ratio tends to m as D grows.
func FCFSPathological(m int, d core.Time) (*core.Instance, error) {
	if m < 1 || d < 1 {
		return nil, fmt.Errorf("instances: FCFSPathological needs m >= 1, D >= 1")
	}
	inst := &core.Instance{Name: fmt.Sprintf("fcfs-path-m%d-D%d", m, d), M: m}
	id := 0
	for i := 0; i < m; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: 1, Len: d + core.Time(i)})
		id++
		inst.Jobs = append(inst.Jobs, core.Job{ID: id, Procs: m, Len: 1})
		id++
	}
	return inst, nil
}

// FCFSPathologicalOptimum returns the optimal makespan D + 2m - 1.
func FCFSPathologicalOptimum(m int, d core.Time) core.Time {
	return d + core.Time(2*m-1)
}

// FCFSPathologicalMakespan returns the FCFS makespan m(D+1) + m(m-1)/2.
func FCFSPathologicalMakespan(m int, d core.Time) core.Time {
	return core.Time(m)*(d+1) + core.Time(m*(m-1)/2)
}
