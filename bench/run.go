package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/resd"
)

// processStart stamps process start as early as the program can: the
// first set-up is timed from here.
var processStart = time.Now()

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int64
	vals              values
	notes             []string // validity remarks for the result file
}

// heapNow returns the live heap after a collection.
func heapNow() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// buildState generates the streams and builds the booked state once,
// returning how long that took and what it holds. The collections that
// measure the heap are the harness's own work and stay off the clock.
func buildState(w *spec, seed uint64, v variant, from time.Time) (st *streams, e *env, setupS, heapB float64, err error) {
	if st, err = generate(w, seed); err != nil {
		return nil, nil, 0, 0, err
	}
	gen := time.Since(from)
	before := heapNow()
	t := time.Now()
	if e, err = setupService(w, st, v); err != nil {
		return nil, nil, 0, 0, err
	}
	setupS = (gen + time.Since(t)).Seconds()
	return st, e, setupS, heapNow() - before, nil
}

// runService measures the end-to-end metrics of a service workload:
// set-up (several times, median), then on the last state built the
// closed-loop saturation phase, which gives throughput and latency under
// the same stated load, then the checks.
func runService(w *spec, seed uint64, seconds float64) (*outcome, error) {
	var (
		st             *streams
		e              *env
		setups, heapsB []float64
	)
	from := processStart
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.close()
		}
		var s, h float64
		var err error
		if st, e, s, h, err = buildState(w, seed, variantOf(w, backend), from); err != nil {
			return nil, err
		}
		setups, heapsB = append(setups, s), append(heapsB, h)
		from = time.Now()
	}
	defer func() { e.close() }()

	sat := e.saturate(st, time.Duration(seconds*float64(time.Second)), 0)
	if sat.bad != nil {
		return nil, fmt.Errorf("wrong answer: %w", sat.bad)
	}
	if len(sat.p50s) == 0 {
		return nil, fmt.Errorf("saturation phase: no caller timed %d admissions", minPerWindow)
	}
	if _, err := e.finalChecks(); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: sat.ops,
		failed:    sat.failed,
		vals: values{
			"setup_s":          median(setups),
			"throughput_per_s": sat.rate(),
			"latency_p50_us":   bestDecile(sat.p50s, false),
			"heap_mb":          median(heapsB) / (1 << 20),
		},
		notes: []string{fmt.Sprintf("saturation phase: %d operations, %d admissions timed; median window %.0f/s, %.2f us (of %d and %d windows)",
			sat.ops, sat.admits, median(sat.rates), median(sat.p50s), len(sat.rates), len(sat.p50s))},
	}, nil
}

// pacedRate is the open-loop rate in stream items per second: the
// workload's pinned share of what the saturation phase just served in its
// median window — the capacity the host is giving the service now, which
// is what sets the queueing regime.
func (e *env) pacedRate(sat tally) float64 {
	return e.w.PacedShare * median(sat.rates) * float64(sat.items) / float64(sat.ops)
}

// finalChecks runs on a quiet service after its timed phases: the α
// floor and the restored load everywhere, Client.Stats against
// Service.Stats over the wire, and for a durable service a restart that
// must dump byte for byte what was closed. recoverS is how long that
// restart took, Close to New (0 without a WAL).
func (e *env) finalChecks() (recoverS float64, err error) {
	if err := checkQuiesced(e.svc, e.base); err != nil {
		return 0, err
	}
	if e.client != nil {
		ws, err := e.client.Stats()
		if err != nil {
			return 0, fmt.Errorf("Client.Stats: %w", err)
		}
		if err := checkWireStats(ws, e.svc.Stats()); err != nil {
			return 0, err
		}
	}
	if !e.v.wal {
		return 0, nil
	}
	closed, err := dumpAll(e.svc)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	e.svc.Close()
	e.svc = nil
	cfg, reg, err := e.v.config(e.w, e.walDir, e.w.Sync)
	if err != nil {
		return 0, err
	}
	if e.svc, err = resd.New(cfg); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	recoverS = time.Since(t).Seconds()
	e.reg, e.t = reg, inproc{e.svc}
	reopened, err := dumpAll(e.svc)
	if err != nil {
		return 0, err
	}
	if err := checkRecovered(closed, reopened); err != nil {
		return 0, err
	}
	return recoverS, checkQuiesced(e.svc, e.base)
}

// counters is a reading of every public accessor the per-layer counts
// are deltas of.
type counters struct {
	stats    []resd.ShardStats
	wal      []resd.WALShardStats
	mallocs  uint64
	numGC    uint32
	pauses   [256]uint64
	cpu      time.Duration
	idxCalls int64
	idxBusy  int64
}

// readCounters reads them all; svc is nil for a workload without a
// service.
func readCounters(svc *resd.Service) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	c := counters{
		mallocs: ms.Mallocs, numGC: ms.NumGC, pauses: ms.PauseNs,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		idxCalls: rec.calls.Load(), idxBusy: rec.busyNs.Load(),
	}
	if svc != nil {
		c.stats, c.wal = svc.Stats(), svc.WALStats()
	}
	return c
}

// maxPauseUs is the longest collector pause between two readings.
func maxPauseUs(a, b counters) float64 {
	var max uint64
	for n := a.numGC; n != b.numGC && n-a.numGC < 256; n++ {
		if p := b.pauses[n%256]; p > max {
			max = p
		}
	}
	return float64(max) / 1e3
}
