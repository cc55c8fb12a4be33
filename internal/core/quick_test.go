package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genInstance is a quick.Generator wrapper producing random valid
// instances; it drives the testing/quick property suites on the core data
// structures.
type genInstance struct {
	Inst *Instance
}

// Generate implements quick.Generator.
func (genInstance) Generate(r *rand.Rand, size int) reflect.Value {
	m := r.Intn(16) + 1
	inst := &Instance{Name: "quick", M: m}
	n := r.Intn(size%12 + 1)
	for i := 0; i < n; i++ {
		inst.Jobs = append(inst.Jobs, Job{
			ID:    i,
			Procs: r.Intn(m) + 1,
			Len:   Time(r.Intn(50) + 1),
		})
	}
	// Reservations by rejection against a tick grid.
	grid := make([]int, 256)
	for k := 0; k < r.Intn(4); k++ {
		q := r.Intn(m) + 1
		start := Time(r.Intn(64))
		l := Time(r.Intn(32) + 1)
		ok := true
		for t := start; t < start+l; t++ {
			if grid[t]+q > m {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for t := start; t < start+l; t++ {
			grid[t] += q
		}
		inst.Res = append(inst.Res, Reservation{ID: len(inst.Res), Procs: q, Start: start, Len: l})
	}
	return reflect.ValueOf(genInstance{Inst: inst})
}

func TestQuickGeneratedInstancesValidate(t *testing.T) {
	f := func(g genInstance) bool {
		return g.Inst.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(g genInstance) bool {
		var buf bytes.Buffer
		if err := g.Inst.WriteJSON(&buf); err != nil {
			return false
		}
		back, err := ReadInstanceJSON(&buf)
		if err != nil {
			return false
		}
		if back.M != g.Inst.M || len(back.Jobs) != len(g.Inst.Jobs) || len(back.Res) != len(g.Inst.Res) {
			return false
		}
		for i := range g.Inst.Jobs {
			if back.Jobs[i] != g.Inst.Jobs[i] {
				return false
			}
		}
		for i := range g.Inst.Res {
			if back.Res[i] != g.Inst.Res[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleInvariants(t *testing.T) {
	// Scaling every duration and start multiplies work by the factor and
	// preserves the unavailability shape (value at scaled times).
	f := func(g genInstance, rawFactor uint8) bool {
		factor := Time(rawFactor%7 + 1)
		sc := g.Inst.Clone()
		for i := range sc.Jobs {
			sc.Jobs[i].Len *= factor
		}
		for i := range sc.Res {
			sc.Res[i].Start *= factor
			sc.Res[i].Len *= factor
		}
		if sc.TotalWork() != g.Inst.TotalWork()*int64(factor) {
			return false
		}
		u, su := g.Inst.Unavailability(), sc.Unavailability()
		for _, tm := range []Time{0, 3, 17, 40, 100} {
			if u.At(tm) != su.At(tm*factor) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAlphaConsistency(t *testing.T) {
	// Whenever Alpha reports ok, the defining inequalities of §4.2 hold.
	f := func(g genInstance) bool {
		alpha, ok := g.Inst.Alpha()
		if !ok {
			return true
		}
		if alpha <= 0 || alpha > 1 {
			return false
		}
		am := alpha * float64(g.Inst.M)
		if float64(g.Inst.Unavailability().Max()) > float64(g.Inst.M)-am+1e-9 {
			return false
		}
		for _, j := range g.Inst.Jobs {
			if float64(j.Procs) > am+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUsagePlusUnavailEqualsTotal(t *testing.T) {
	// For any (not necessarily feasible) start assignment, TotalUsage is
	// the pointwise sum of job usage and reservation unavailability.
	f := func(g genInstance, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSchedule(g.Inst)
		for i := range g.Inst.Jobs {
			s.SetStart(i, Time(r.Intn(60)))
		}
		total := s.TotalUsage()
		usage := s.Usage()
		unavail := g.Inst.Unavailability()
		for _, tm := range []Time{0, 1, 7, 23, 59, 120} {
			if total.At(tm) != usage.At(tm)+unavail.At(tm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
