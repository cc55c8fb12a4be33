package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/verify"
	"repro/internal/workload"
)

// naiveLSRC is LSRC.Schedule's event loop as it stood before the scan was
// restricted to jobs that can start: every pending job is re-tested with
// CanPlace at every breakpoint. It is the oracle the production loop must
// match start for start, and error text for error text.
func naiveLSRC(inst *core.Instance, order Order, backend string) (*core.Schedule, error) {
	tl, err := prep(inst, backend)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	pending := order.Indices(inst)

	t := core.Time(0)
	for len(pending) > 0 {
		// One pass over the list in priority order: capacity only shrinks
		// during the pass, so no second pass can start additional jobs.
		kept := pending[:0]
		for _, idx := range pending {
			j := inst.Jobs[idx]
			if tl.CanPlace(t, j.Len, j.Procs) {
				if err := tl.Commit(t, j.Len, j.Procs); err != nil {
					return nil, fmt.Errorf("sched: internal: %v", err)
				}
				s.SetStart(idx, t)
			} else {
				kept = append(kept, idx)
			}
		}
		pending = kept
		if len(pending) == 0 {
			break
		}
		next, ok := tl.NextBreakpoint(t)
		if !ok {
			// Availability is constant on [t, inf) and the remaining jobs
			// do not fit: they never will.
			return nil, stuckErr(inst.Jobs[pending[0]])
		}
		t = next
	}
	return s, nil
}

// naiveEASY is EASY.Schedule's loop before the tournament: the back-fill
// pass re-tests every queued job.
func naiveEASY(inst *core.Instance, backend string) (*core.Schedule, error) {
	tl, err := prep(inst, backend)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	queue := make([]int, len(inst.Jobs))
	for i := range queue {
		queue[i] = i
	}

	t := core.Time(0)
	for len(queue) > 0 {
		// Start head jobs while they fit right now.
		for len(queue) > 0 {
			j := inst.Jobs[queue[0]]
			if !tl.CanPlace(t, j.Len, j.Procs) {
				break
			}
			if err := tl.Commit(t, j.Len, j.Procs); err != nil {
				return nil, fmt.Errorf("sched: internal: %v", err)
			}
			s.SetStart(queue[0], t)
			queue = queue[1:]
		}
		if len(queue) == 0 {
			break
		}

		// Head does not fit now: compute its shadow slot and hold it.
		head := inst.Jobs[queue[0]]
		shadow, ok := tl.FindSlot(t, head.Procs, head.Len)
		if !ok {
			return nil, stuckErr(head)
		}
		if err := tl.Commit(shadow, head.Len, head.Procs); err != nil {
			return nil, fmt.Errorf("sched: internal shadow: %v", err)
		}

		// Back-fill: any later job that fits now without touching the
		// shadow hold may start. Single pass: capacity only shrinks.
		kept := queue[:1]
		for _, idx := range queue[1:] {
			j := inst.Jobs[idx]
			if tl.CanPlace(t, j.Len, j.Procs) {
				if err := tl.Commit(t, j.Len, j.Procs); err != nil {
					return nil, fmt.Errorf("sched: internal: %v", err)
				}
				s.SetStart(idx, t)
			} else {
				kept = append(kept, idx)
			}
		}
		queue = kept

		if err := tl.Release(shadow, head.Len, head.Procs); err != nil {
			return nil, fmt.Errorf("sched: internal release: %v", err)
		}

		next, ok := tl.NextBreakpoint(t)
		if !ok {
			// Constant availability forever and the head does not fit.
			return nil, stuckErr(head)
		}
		t = next
	}
	return s, nil
}

// diffInstance draws the differential tests' instance for a seed: m in
// 1..64, up to 40 jobs of any width up to m with durations from a small set
// (heavy ties in every Order), and 0..12 reservations of which about one in
// six never ends — those leave some jobs unplaceable, so the error paths are
// compared too.
func diffInstance(seed uint64) *core.Instance {
	r := rng.New(seed)
	m := r.IntRange(1, 64)
	inst := &core.Instance{Name: fmt.Sprintf("diff-%d", seed), M: m}
	for i, n := 0, r.IntRange(0, 40); i < n; i++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:    i,
			Procs: r.IntRange(1, m),
			Len:   core.Time(r.IntRange(1, 6) * r.IntRange(1, 5)),
		})
	}
	for i, n := 0, r.IntRange(0, 12); i < n; i++ {
		res := core.Reservation{
			ID:    len(inst.Res),
			Procs: r.IntRange(1, m),
			Start: core.Time(r.Intn(80)),
			Len:   core.Time(r.IntRange(1, 40)),
		}
		if r.Intn(6) == 0 {
			res.Len = core.Infinity
		}
		if with := append(inst.Res, res); core.UnavailabilityOf(with).Max() <= m {
			inst.Res = with
		}
	}
	return inst
}

// sameOutcome fails the test unless the two runs agree: equal error text,
// or equal starts for every job.
func sameOutcome(t *testing.T, what string, got *core.Schedule, gotErr error, want *core.Schedule, wantErr error) (stuck bool) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle says %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return true
	}
	for i := range want.Start {
		if got.Start[i] != want.Start[i] {
			t.Fatalf("%s: job %d starts at %v, oracle says %v", what, i, got.Start[i], want.Start[i])
		}
	}
	return false
}

// TestLSRCMatchesNaive is the hard constraint of the tournament loop: on
// 2 000 seeded instances, under every Order and on both backends, LSRC
// starts every job exactly when the full re-scan does, or fails with the
// same error naming the same job.
func TestLSRCMatchesNaive(t *testing.T) {
	var runs, stuck, withRes int
	for seed := uint64(1); seed <= 2000; seed++ {
		inst := diffInstance(seed)
		if len(inst.Res) > 0 {
			withRes++
		}
		for _, order := range append(orders(), RandomOrder(seed)) {
			for _, backend := range []string{"array", "tree"} {
				what := fmt.Sprintf("seed %d order %s backend %s", seed, order.Name, backend)
				got, gotErr := (&LSRC{Order: order, Backend: backend}).Schedule(inst)
				want, wantErr := naiveLSRC(inst, order, backend)
				runs++
				if sameOutcome(t, what, got, gotErr, want, wantErr) {
					stuck++
				} else if err := verify.Verify(got); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
	t.Logf("%d runs, %d stuck, %d instances with reservations", runs, stuck, withRes)
	// The generator must actually reach both outcomes.
	if stuck == 0 || stuck == runs || withRes < 1000 {
		t.Fatalf("generator lost its coverage: %d runs, %d stuck, %d instances with reservations", runs, stuck, withRes)
	}
}

// FuzzLSRCMatchesNaive takes TestLSRCMatchesNaive's rule past its 2 000
// seeds: on any seed's diffInstance, under every Order and on both
// backends, LSRC and the full re-scan agree start for start, or fail with
// the same error.
func FuzzLSRCMatchesNaive(f *testing.F) {
	f.Add(uint64(1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		inst := diffInstance(seed)
		for _, order := range orders() {
			for _, backend := range []string{"array", "tree"} {
				what := fmt.Sprintf("seed %d order %s backend %s", seed, order.Name, backend)
				got, gotErr := (&LSRC{Order: order, Backend: backend}).Schedule(inst)
				want, wantErr := naiveLSRC(inst, order, backend)
				if !sameOutcome(t, what, got, gotErr, want, wantErr) {
					if err := verify.Verify(got); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
			}
		}
	})
}

// TestEASYMatchesNaive holds EASY's tournament back-fill to the same oracle
// rule.
func TestEASYMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 2000; seed++ {
		inst := diffInstance(seed)
		for _, backend := range []string{"array", "tree"} {
			got, gotErr := EASY{Backend: backend}.Schedule(inst)
			want, wantErr := naiveEASY(inst, backend)
			sameOutcome(t, fmt.Sprintf("seed %d backend %s", seed, backend), got, gotErr, want, wantErr)
		}
	}
}

// TestTournamentMatchesLinearScan checks Next, Leftmost and First against a
// plain scan of the width slice after every Remove and every Restore of a
// removed position, for list lengths on both sides of the powers of two
// and for 0, 1, 2 and 1025. Some widths are gone-1, the widest a leaf
// holds, and Leftmost is probed at free 0, below zero and at and around
// the clamp. Then everything is removed and every query must miss; then
// the positions come back and LSRC-shaped passes run over them.
func TestTournamentMatchesLinearScan(t *testing.T) {
	sizes := []int{0, 1, 2, 1025}
	for seed := uint64(1); seed <= 300+uint64(len(sizes)); seed++ {
		r := rng.New(seed)
		n := r.IntRange(0, 70)
		if seed > 300 {
			n = sizes[seed-301]
		}
		widths := make([]int, n)
		for i := range widths {
			widths[i] = r.IntRange(1, 16)
			if r.Intn(16) == 0 {
				widths[i] = gone - 1
			}
		}
		tr := NewTournament(n, func(p int) int { return widths[p] })
		removed := make([]bool, n)
		scan := func(p, free int) int {
			for ; p < n; p++ {
				if !removed[p] && widths[p] <= free {
					return p
				}
			}
			return -1
		}
		leftmost := func(step, free int) {
			t.Helper()
			if got, want := tr.Leftmost(free), scan(0, free); got != want {
				t.Fatalf("seed %d step %d: Leftmost(%d) = %d, scan says %d", seed, step, free, got, want)
			}
		}
		for step := 0; step < 6*n+4; step++ {
			if n > 0 {
				switch p := r.Intn(n); {
				case removed[p] && r.Intn(2) == 0:
					tr.Restore(p, widths[p])
					removed[p] = false
				case r.Intn(2) == 0:
					tr.Remove(p)
					removed[p] = true
				}
			}
			for probe := 0; probe < 3; probe++ {
				p, free := r.Intn(n+3), r.Intn(18)
				if got, want := tr.Next(p, free), scan(p, free); got != want {
					t.Fatalf("seed %d step %d: Next(%d, %d) = %d, scan says %d", seed, step, p, free, got, want)
				}
			}
			for _, free := range []int{r.Intn(18), 0, -1, -7, math.MinInt, gone - 2, gone - 1, math.MaxInt} {
				leftmost(step, free)
			}
			if got, want := tr.First(), scan(0, 1<<40); got != want {
				t.Fatalf("seed %d step %d: First() = %d, scan says %d", seed, step, got, want)
			}
		}
		for p := range removed {
			if !removed[p] {
				tr.Remove(p)
				removed[p] = true
			}
		}
		if got := tr.Leftmost(math.MaxInt); got != -1 || tr.First() != -1 || tr.Next(0, math.MaxInt) != -1 {
			t.Fatalf("seed %d: all %d removed, yet Leftmost = %d, First = %d, Next = %d", seed, n, got, tr.First(), tr.Next(0, math.MaxInt))
		}
		tournamentPasses(t, seed, r, &tr, widths, removed, scan)
	}
}

// tournamentPasses replays LSRC's use of the tournament from a state where
// every position is removed: at the top of each event some removed
// positions come back, then one pass takes the leftmost fit for free, and
// each offered job either starts (free falls by its width) or is parked;
// both take it out. Within the pass every position left of the last offer
// is removed or wider than free, so Leftmost(free) must equal Next(pos+1,
// free) — the climb it replaces — and the scan.
func tournamentPasses(t *testing.T, seed uint64, r *rng.PCG, tr *Tournament, widths []int, removed []bool, scan func(p, free int) int) {
	t.Helper()
	n := len(widths)
	for event := 0; event < 2*n+2; event++ {
		for p := range removed {
			if removed[p] && r.Intn(3) == 0 {
				tr.Restore(p, widths[p])
				removed[p] = false
			}
		}
		free := r.IntRange(0, 40)
		for pos := tr.Leftmost(free); pos >= 0; {
			if want := scan(0, free); pos != want {
				t.Fatalf("seed %d event %d: Leftmost(%d) = %d, scan says %d", seed, event, free, pos, want)
			}
			tr.Remove(pos)
			removed[pos] = true
			if r.Intn(2) == 0 {
				free -= widths[pos] // started; otherwise parked
			}
			next := tr.Leftmost(free)
			if want := tr.Next(pos+1, free); next != want {
				t.Fatalf("seed %d event %d: after offering %d, Leftmost(%d) = %d but Next(%d, %d) = %d",
					seed, event, pos, free, next, pos+1, free, want)
			}
			pos = next
		}
		if want := scan(0, free); want != -1 {
			t.Fatalf("seed %d event %d: the pass ended with %d still fitting in %d", seed, event, want, free)
		}
	}
}

// TestSortByMatchesSliceStable pins the list orders: on every shape below,
// each Order returns the exact permutation sort.SliceStable produces under
// the rule's comparison. The shapes reach every case of the radix sort:
// heavy ties within one key byte, keys spread over all of them (Len up to
// 2⁶², Procs up to 2³¹−1, so maxwork's area wraps and sets the sign bit),
// clusters of keys that share their high bytes, all-equal keys, and n of
// 0, 1 and 2.
func TestSortByMatchesSliceStable(t *testing.T) {
	less := map[string]func(a, b core.Job) bool{
		"fifo":      func(a, b core.Job) bool { return false },
		"lpt":       func(a, b core.Job) bool { return a.Len > b.Len },
		"spt":       func(a, b core.Job) bool { return a.Len < b.Len },
		"widest":    func(a, b core.Job) bool { return a.Procs > b.Procs },
		"narrowest": func(a, b core.Job) bool { return a.Procs < b.Procs },
		"maxwork":   func(a, b core.Job) bool { return a.Work() > b.Work() },
	}
	const maxLen, maxM = 1 << 62, 1<<31 - 1
	// spread draws from [1, hi] with every bit length equally likely.
	spread := func(r *rng.PCG, hi int64) int64 {
		b := r.Intn(bits.Len64(uint64(hi)))
		return min(int64(1)<<b|r.Int63n(int64(1)<<b), hi)
	}
	wide := func(r *rng.PCG) core.Job {
		return core.Job{Procs: int(spread(r, maxM)), Len: core.Time(spread(r, maxLen))}
	}
	shapes := []struct {
		name string
		maxN int
		job  func(r *rng.PCG) func() core.Job // draws the instance's parameters, returns its job source
	}{
		{"ties", 300, func(r *rng.PCG) func() core.Job {
			return func() core.Job { return core.Job{Procs: r.IntRange(1, 4), Len: core.Time(r.IntRange(1, 4))} }
		}},
		{"spread", 300, func(r *rng.PCG) func() core.Job {
			m := spread(r, maxM)
			return func() core.Job { return core.Job{Procs: int(spread(r, m)), Len: core.Time(spread(r, maxLen))} }
		}},
		{"clusters", 300, func(r *rng.PCG) func() core.Job {
			var lens, procs [3]int64
			for c := range lens {
				lens[c], procs[c] = spread(r, maxLen-1<<16), spread(r, maxM-1<<8)
			}
			return func() core.Job {
				c := r.Intn(len(lens))
				return core.Job{Procs: int(procs[c] + r.Int63n(1<<8)), Len: core.Time(lens[c] + r.Int63n(1<<16))}
			}
		}},
		{"equal", 300, func(r *rng.PCG) func() core.Job {
			j := wide(r)
			return func() core.Job { return j }
		}},
		{"tiny", 2, func(r *rng.PCG) func() core.Job {
			return func() core.Job { return wide(r) }
		}},
	}
	for seed := uint64(1); seed <= 200; seed++ {
		for _, shape := range shapes {
			r := rng.New(seed)
			inst := &core.Instance{M: maxM}
			draw := shape.job(r)
			for i, n := 0, r.IntRange(0, shape.maxN); i < n; i++ {
				j := draw()
				j.ID = i
				inst.Jobs = append(inst.Jobs, j)
			}
			for _, order := range orders() {
				want := identity(len(inst.Jobs))
				sort.SliceStable(want, func(x, y int) bool {
					return less[order.Name](inst.Jobs[want[x]], inst.Jobs[want[y]])
				})
				got := order.Indices(inst)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s %s: %d indices for %d jobs", seed, shape.name, order.Name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %s %s: position %d holds job %d, sort.SliceStable put %d there", seed, shape.name, order.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// countingIndex counts the index calls a scheduler makes. Schedulers build
// their own index from a backend name, so the wrapper is registered as the
// "counting" backend and the latest one built is left in lastCounting.
//
// It also audits the not-before memo. The index sees a job only as (q, p),
// so the audit is keyed by duration and means something only on instances
// whose durations are all distinct (countInstance): early counts CanPlace
// calls for a job made before the instant its last FindSlot returned.
type countingIndex struct {
	profile.CapacityIndex
	availableAt, canPlace, findSlot, commit, nextBreakpoint int

	refused   map[core.Time]int       // failed CanPlace calls, by job duration
	notBefore map[core.Time]core.Time // last FindSlot answer, by job duration
	early     int
}

var lastCounting *countingIndex

func init() {
	profile.RegisterBackend("counting", func(m int) profile.CapacityIndex {
		tree, err := profile.NewIndex("tree", m)
		if err != nil {
			panic(err)
		}
		lastCounting = &countingIndex{
			CapacityIndex: tree,
			refused:       map[core.Time]int{},
			notBefore:     map[core.Time]core.Time{},
		}
		return lastCounting
	})
}

func (c *countingIndex) AvailableAt(t core.Time) int {
	c.availableAt++
	return c.CapacityIndex.AvailableAt(t)
}

func (c *countingIndex) CanPlace(start, dur core.Time, q int) bool {
	c.canPlace++
	if start < c.notBefore[dur] {
		c.early++
	}
	ok := c.CapacityIndex.CanPlace(start, dur, q)
	if !ok {
		c.refused[dur]++
	}
	return ok
}

func (c *countingIndex) FindSlot(ready core.Time, q int, dur core.Time) (core.Time, bool) {
	c.findSlot++
	at, ok := c.CapacityIndex.FindSlot(ready, q, dur)
	if c.notBefore[dur] = at; !ok {
		c.notBefore[dur] = core.Infinity
	}
	return at, ok
}

func (c *countingIndex) Commit(start, dur core.Time, q int) error {
	c.commit++
	return c.CapacityIndex.Commit(start, dur, q)
}

func (c *countingIndex) NextBreakpoint(t core.Time) (core.Time, bool) {
	c.nextBreakpoint++
	return c.CapacityIndex.NextBreakpoint(t)
}

// calls is every index call the scheduler made, the reservations' commits
// included.
func (c *countingIndex) calls() int {
	return c.availableAt + c.canPlace + c.findSlot + c.commit + c.nextBreakpoint
}

// refusals is the number of CanPlace calls that failed, and the most any one
// duration collected.
func (c *countingIndex) refusals() (total, worst int) {
	for _, k := range c.refused {
		total += k
		worst = max(worst, k)
	}
	return total, worst
}

// scaleInstance is the shape expt's scale experiment schedules: synthetic
// jobs up to half the machine wide, with nRes draws from an α=1/2
// reservation stream (most draws at this density are rejected by the α
// rule).
func scaleInstance(t *testing.T, seed uint64, m, n, nRes int) *core.Instance {
	t.Helper()
	r := rng.New(seed)
	inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
		M: m, N: n, MinRun: 10, MaxRun: 5000, MaxWidthFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nRes > 0 {
		inst.Res = workload.ReservationStream(r.Split(), m, 0.5, nRes, 200000)
	}
	return inst
}

// countInstance is scaleInstance with every job given a distinct duration,
// so that countingIndex can tell the jobs apart.
func countInstance(t *testing.T, seed uint64, m, n, nRes int) *core.Instance {
	inst := scaleInstance(t, seed, m, n, nRes)
	for i, d := range rng.New(seed ^ 0xD157).Perm(4990)[:n] {
		inst.Jobs[i].Len = core.Time(10 + d)
	}
	return inst
}

// maxIndexCalls is the most index calls LSRC may make on n jobs and r
// reservations: r + n commits (the reservations are committed as the
// nonzero segments of U, up to 2r − 1 of them; the r − 1 more fit in the
// refusal term below unless all but r/2 of the rn possible refusals
// happen), n CanPlace calls that succeed, an
// AvailableAt and a NextBreakpoint at each of at most n + 2r + 1 events
// (time 0, and one breakpoint per reservation edge and job completion),
// and per job at most one refused CanPlace with its FindSlot for every
// reservation — a refusal means capacity falls inside the job's window,
// only a reservation's start makes capacity fall ahead of the clock, and
// the instant FindSlot returns lies past the one that caused it.
func maxIndexCalls(n, r int) int { return (4+2*r)*n + 5*r + 2 }

// TestLSRCIndexCallCounts pins the work the loop asks of the index, by
// count rather than by the clock. Without reservations availability never
// falls after the decision instant, so the width filter is the whole test:
// every CanPlace succeeds, there is one per job, and FindSlot is never
// needed. With reservations a job is refused only when a reservation lies
// ahead of it, and the not-before memo keeps it from being asked about
// again before the instant FindSlot named.
func TestLSRCIndexCallCounts(t *testing.T) {
	const n = 600
	for seed := uint64(1); seed <= 5; seed++ {
		inst := countInstance(t, seed, 64, n, 0)
		if _, err := (&LSRC{Order: LPT, Backend: "counting"}).Schedule(inst); err != nil {
			t.Fatal(err)
		}
		c := lastCounting
		if c.canPlace != n || len(c.refused) != 0 || c.findSlot != 0 || c.commit != n {
			t.Fatalf("seed %d, no reservations, %d jobs: %d CanPlace (%d jobs refused), %d FindSlot, %d Commit; want %d, 0, 0, %d",
				seed, n, c.canPlace, len(c.refused), c.findSlot, c.commit, n, n)
		}
		// One AvailableAt per event; every event but the last asks for the next.
		if c.availableAt != c.nextBreakpoint+1 || c.availableAt > n+1 {
			t.Fatalf("seed %d: %d AvailableAt for %d NextBreakpoint and %d jobs", seed, c.availableAt, c.nextBreakpoint, n)
		}

		inst = countInstance(t, seed, 64, n, 40)
		if _, err := (&LSRC{Order: LPT, Backend: "counting"}).Schedule(inst); err != nil {
			t.Fatal(err)
		}
		c = lastCounting
		r, blocked := len(inst.Res), len(c.refused)
		refused, worst := c.refusals()
		segs := 0 // the index is built with one Commit per nonzero segment of U
		for i, u := 0, inst.Unavailability(); i < u.Len(); i++ {
			if _, _, v := u.Segment(i); v > 0 {
				segs++
			}
		}
		if c.canPlace != n+refused || c.findSlot != refused || c.commit != n+segs {
			t.Fatalf("seed %d, %d reservations (%d nonzero segments of U): %d CanPlace (%d refused), %d FindSlot, %d Commit",
				seed, r, segs, c.canPlace, refused, c.findSlot, c.commit)
		}
		if c.early != 0 {
			t.Fatalf("seed %d: %d CanPlace calls for a job before the instant FindSlot gave for it", seed, c.early)
		}
		// At most one refusal per job per reservation, so refused CanPlace
		// plus FindSlot calls <= 2·r·(jobs blocked); the re-scan paid
		// events × pending.
		if refused == 0 || worst > r {
			t.Fatalf("seed %d, %d reservations: %d refusals over %d blocked jobs, %d for one job", seed, r, refused, blocked, worst)
		}
		if c.availableAt != c.nextBreakpoint+1 || c.availableAt > n+2*r+1 || c.calls() > maxIndexCalls(n, r) {
			t.Fatalf("seed %d: %d AvailableAt for %d NextBreakpoint, %d calls in all, %d jobs, %d reservations",
				seed, c.availableAt, c.nextBreakpoint, c.calls(), n, r)
		}
		t.Logf("seed %d: %d jobs, %d reservations, %d events: %d index calls (%.2f per job); %d refusals over %d jobs, at most %d for one",
			seed, n, r, c.availableAt, c.calls(), float64(c.calls())/n, refused, blocked, worst)
	}
}

// TestLSRCHundredThousandJobs schedules the largest cell of expt's scale
// grid, without and with its reservations, and bounds the index calls per
// job: 4 without (CanPlace and Commit per job, AvailableAt and
// NextBreakpoint per completion), and two more per reservation with. The
// re-scanning loop made events × pending calls — tens of thousands per job
// at this size — so a regression to it fails here by count, with no clock
// involved.
func TestLSRCHundredThousandJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-job schedules")
	}
	const n = 100000
	for _, nRes := range []int{0, n/50 + 1} {
		inst := scaleInstance(t, 1, 2048, n, nRes)
		s, err := (&LSRC{Order: LPT, Backend: "counting"}).Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Verify(s); err != nil {
			t.Fatal(err)
		}
		c, r := lastCounting, len(inst.Res)
		refused, _ := c.refusals()
		t.Logf("%d jobs, %d reservations, %d events: %d index calls, %.3f per job (%d refusals)",
			n, r, c.availableAt, c.calls(), float64(c.calls())/n, refused)
		if c.calls() > maxIndexCalls(n, r) {
			t.Fatalf("%d reservations: %d index calls, want at most %d (%d per job)", r, c.calls(), maxIndexCalls(n, r), 4+2*r)
		}
	}
}
