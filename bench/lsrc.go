package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
	"repro/internal/sched"
)

const lsrcAlgorithm = "lsrc-lpt"

// lsrcState is what lsrc-batch holds after set-up: the instance stream,
// each instance's reference schedule, and per instance a capacity index
// carrying the finished schedule — the booked state heap_mb prices.
type lsrcState struct {
	st     *streams
	ref    []*core.Schedule
	booked []profile.CapacityIndex
	ratios []float64 // Cmax over the lower bound, per instance
}

// bookedIndex commits an instance's reservations and its schedule's jobs
// to a fresh index on the named backend.
func bookedIndex(backend string, inst *core.Instance, s *core.Schedule) (profile.CapacityIndex, error) {
	res := append([]core.Reservation(nil), inst.Res...)
	for i, j := range inst.Jobs {
		res = append(res, core.Reservation{ID: len(inst.Res) + i, Procs: j.Procs, Start: s.Start[i], Len: j.Len})
	}
	return profile.IndexFromReservations(backend, inst.M, res)
}

// setupLSRC generates the instances and schedules each once: the
// warm-up, the reference later calls must reproduce, and the checks.
func setupLSRC(w *spec, seed uint64, from time.Time) (ls *lsrcState, setupS, heapB float64, err error) {
	st, err := generate(w, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	gen := time.Since(from)
	t := time.Now()
	alg, err := sched.ByNameOn(lsrcAlgorithm, backend)
	if err != nil {
		return nil, 0, 0, err
	}
	ls = &lsrcState{st: st}
	for _, inst := range st.instances {
		s, err := alg.Schedule(inst)
		if err != nil {
			return nil, 0, 0, err
		}
		ratio, err := checkSchedule(inst, s, w.ResAlpha)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wrong answer: %w", err)
		}
		ls.ref, ls.ratios = append(ls.ref, s), append(ls.ratios, ratio)
	}
	scheduling := time.Since(t)
	// The references are the harness's; the indexes are the state.
	before := heapNow()
	t = time.Now()
	for i, inst := range st.instances {
		idx, err := bookedIndex(backend, inst, ls.ref[i])
		if err != nil {
			return nil, 0, 0, err
		}
		ls.booked = append(ls.booked, idx)
	}
	setupS = (gen + scheduling + time.Since(t)).Seconds()
	return ls, setupS, heapNow() - before, nil
}

// schedulePhase is the single closed phase: one goroutine schedules the
// instances in turn for dur and for at least minCalls calls, under a root
// span each when root is set, and returns how long each call took. Every
// schedule must equal its instance's verified reference.
func (ls *lsrcState) schedulePhase(backend string, dur time.Duration, minCalls int, root bool) (callUs []float64, err error) {
	alg, err := sched.ByNameOn(lsrcAlgorithm, backend)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Since(start)
		if t >= dur && i >= minCalls {
			break
		}
		k := i % len(ls.st.instances)
		inst := ls.st.instances[k]
		id := 0
		if root {
			id = rec.begin("sched.schedule", i)
		}
		s, err := alg.Schedule(inst)
		if root {
			rec.end(id)
		}
		callUs = append(callUs, float64(time.Since(start)-t)/1e3)
		if err != nil {
			return nil, err
		}
		for j := range s.Start {
			if s.Start[j] != ls.ref[k].Start[j] {
				return nil, fmt.Errorf("wrong answer: instance %d job %d starts at %v, reference schedule says %v", k, j, s.Start[j], ls.ref[k].Start[j])
			}
		}
	}
	return callUs, nil
}

// lsrcRate is the phase's throughput in jobs placed per second of
// Schedule time: the calls are cut into lsrcWindows windows of equal
// count (every instance has the same number of jobs), and the figure is
// the best decile of the windows' rates.
func lsrcRate(callUs []float64, jobsPerCall int) float64 {
	rates := make([]float64, min(lsrcWindows, len(callUs)))
	for i := range rates {
		win := callUs[i*len(callUs)/len(rates) : (i+1)*len(callUs)/len(rates)]
		var us float64
		for _, c := range win {
			us += c
		}
		rates[i] = float64(jobsPerCall*len(win)) / (us / 1e6)
	}
	return bestDecile(rates, true)
}

func runLSRC(w *spec, seed uint64, seconds float64) (*outcome, error) {
	var (
		ls             *lsrcState
		setups, heapsB []float64
	)
	from := processStart
	for rep := 0; rep < setupReps; rep++ {
		var s, h float64
		var err error
		if ls, s, h, err = setupLSRC(w, seed, from); err != nil {
			return nil, err
		}
		setups, heapsB = append(setups, s), append(heapsB, h)
		from = time.Now()
	}
	callUs, err := ls.schedulePhase(backend, time.Duration(seconds*float64(time.Second)), minSamples, false)
	if err != nil {
		return nil, err
	}
	return &outcome{
		attempted: int64(len(callUs)),
		vals: values{
			"setup_s":          median(setups),
			"throughput_per_s": lsrcRate(callUs, w.Jobs),
			"latency_p50_us":   bestDecile(windowMedians(callUs, lsrcWindows, minPerWindow), false),
			"heap_mb":          median(heapsB) / (1 << 20),
		},
		notes: []string{fmt.Sprintf("%d Schedule calls sampled", len(callUs))},
	}, nil
}

// traceLSRC is the traced run of lsrc-batch: an untraced phase for the
// call time, then the same calls on the traced backend, where every
// CanPlace, Commit and NextBreakpoint of the real LSRC is stamped.
func traceLSRC(w *spec, seed uint64, seconds float64) (*outcome, error) {
	ls, _, heapB, err := setupLSRC(w, seed, processStart)
	if err != nil {
		return nil, err
	}
	out := &outcome{vals: values{}}
	v := out.vals
	phase := time.Duration(seconds * 0.3 * float64(time.Second))
	c0 := readCounters(nil)
	callUs, err := ls.schedulePhase(backend, phase, minSamples, false)
	if err != nil {
		return nil, err
	}
	c1 := readCounters(nil)
	if _, v["latency_p99_us"], err = windowedLatency(callUs, 1); err != nil {
		return nil, err
	}
	calls := float64(len(callUs))
	v["gen.stream_hash"] = float64(ls.st.hash & (1<<48 - 1))
	v["gen.paced_valid"] = 1 // no paced phase to invalidate
	v["sched.schedule_ms"] = median(callUs) / 1e3
	v["sched.makespan_ratio"] = mean(ls.ratios)
	var held int
	for i, inst := range ls.st.instances {
		v["index.segments"] += float64(ls.booked[i].NumSegments())
		held += len(inst.Jobs) + len(inst.Res)
	}
	v["index.bytes_per_resv"] = heapB / float64(held)
	v["proc.allocs_per_op"] = float64(c1.mallocs-c0.mallocs) / calls
	v["proc.gc_pause_max_us"] = maxPauseUs(c0, c1)
	v["proc.cpu_s_per_kop"] = (c1.cpu - c0.cpu).Seconds() / calls * 1000

	c0 = readCounters(nil)
	tracedUs, err := ls.schedulePhase(tracedBackend, phase, 0, false)
	if err != nil {
		return nil, err
	}
	c1 = readCounters(nil)
	v["proc.trace_overhead_share"] = 1 - lsrcRate(tracedUs, w.Jobs)/lsrcRate(callUs, w.Jobs)
	// Index time is stamped inside the wrapper, so it is set against the
	// untraced call time: the stamping itself is not the scheduler's.
	busyPerCall := float64(c1.idxBusy-c0.idxBusy) / float64(len(tracedUs))
	v["sched.index_share"] = busyPerCall / (median(callUs) * 1e3)
	v["index.busy_share"] = float64(c1.idxBusy-c0.idxBusy) / float64(c1.cpu-c0.cpu)
	out.attempted = int64(len(callUs) + len(tracedUs))

	// Serial section: the index on its own at the booked state, the
	// standalone rungs, and last — an LSRC call makes tens of thousands
	// of index calls, so it may run into the trace's cap — two whole
	// calls with spans.
	return out, serially(func() error {
		booked, err := bookedIndex(tracedBackend, ls.st.instances[0], ls.ref[0])
		if err != nil {
			return err
		}
		inst := ls.st.instances[0]
		span := int64(ls.ref[0].Makespan())
		samples := make([]item, w.Serial)
		for i := range samples {
			j := inst.Jobs[i%len(inst.Jobs)]
			samples[i] = item{ready: int64(i) * 7919 % span, q: int16(j.Procs), dur: int32(j.Len)}
		}
		indexRung(booked, samples, 0, v)
		if err := standaloneRungs(samples, func(it item) resd.Request {
			return resd.Request{Ready: core.Time(it.ready), Q: int(it.q), Dur: core.Time(it.dur), Deadline: resd.NoDeadline}
		}, v); err != nil {
			return err
		}
		_, err = ls.schedulePhase(tracedBackend, 0, 2, true)
		indexMetrics(v) // again, now with the real scheduler's sweeps among the spans
		return err
	})
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
