package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/wal"
)

// traceService is the traced run of a service workload. Its first half
// runs the workload's own build with tracing off and reads the counts
// and ratios as deltas of public accessors; its second half rebuilds the
// state on the traced backend, prices the tracing itself under load, and
// then replays sampled requests one at a time through every rung, so each
// span has exactly one possible parent.
func traceService(w *spec, seed uint64, seconds float64) (*outcome, error) {
	out := &outcome{vals: values{}}
	if w.Durable {
		w.Sync = wal.SyncBatch
	}
	phase := time.Duration(seconds * 0.25 * float64(time.Second))
	st, untraced, err := untracedHalf(w, seed, phase, out)
	if err != nil {
		return nil, err
	}
	if err := tracedHalf(w, st, phase, untraced, out); err != nil {
		return nil, err
	}
	out.vals["proc.fail_share"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

// untracedHalf returns the streams it generated and the saturation
// throughput the traced half is set against.
func untracedHalf(w *spec, seed uint64, phase time.Duration, out *outcome) (*streams, float64, error) {
	v := out.vals
	st, e, _, heapB, err := buildState(w, seed, variantOf(w, backend), processStart)
	if err != nil {
		return nil, 0, err
	}
	defer e.close()
	v["gen.stream_hash"] = float64(st.hash & (1<<48 - 1)) // exact in a float64
	v["index.bytes_per_resv"] = heapB / float64(e.base.Active)
	for i := 0; i < shards; i++ {
		snap, err := e.svc.Snapshot(i)
		if err != nil {
			return nil, 0, err
		}
		v["index.segments"] += float64(snap.NumSegments())
	}

	c0 := readCounters(e.svc)
	sat := e.saturate(st, phase, 0)
	c1 := readCounters(e.svc)
	countDeltas(v, c0, c1, sat)
	untraced := sat.rate()
	if w.Durable {
		v["wal.synced_throughput_per_s"] = untraced
	}

	pac, err := e.pace(st, phase, e.pacedRate(sat))
	if err != nil {
		return nil, 0, err
	}
	v["gen.lag_p99_us"] = pac.lagP99Us
	v["gen.inflight_max"] = float64(pac.inflightMax)
	v["resd.queue_depth_max"] = float64(pac.queueMax)
	v["gen.over_limit_share"] = pac.overLimit
	if pac.invalid() == "" {
		v["gen.paced_valid"] = 1
	}
	if v["latency_paced_p50_us"], v["latency_p99_us"], err = windowedLatency(pac.latUs, maxWindows); err != nil {
		return nil, 0, fmt.Errorf("paced phase: %w", err)
	}
	out.notes = append(out.notes, pac.note())
	out.attempted += sat.ops + pac.ops + pac.unsent
	out.failed += sat.failed + pac.failed

	if w.Wire {
		rpc, err := e.unpipelined(st, phase/2)
		if err != nil {
			return nil, 0, err
		}
		out.attempted, out.failed = out.attempted+rpc.ops, out.failed+rpc.failed
		v["reswire.pipeline_gain"] = untraced / rpc.rate()
		out.notes = append(out.notes, fmt.Sprintf("reswire.pipeline_gain base: %.0f ops/s unpipelined", rpc.rate()))
	}
	for _, bad := range []error{sat.bad, pac.bad} {
		if bad != nil {
			return nil, 0, fmt.Errorf("wrong answer: %w", bad)
		}
	}
	v["wal.recover_s"], err = e.finalChecks()
	return st, untraced, err
}

// tracedHalf rebuilds the state on the traced backend.
func tracedHalf(w *spec, st *streams, phase time.Duration, untraced float64, out *outcome) error {
	v := out.vals
	e, err := setupService(w, st, variantOf(w, tracedBackend))
	if err != nil {
		return err
	}
	defer e.close()
	c0 := readCounters(e.svc)
	traced := e.saturate(st, phase, 0)
	c1 := readCounters(e.svc)
	if traced.bad != nil {
		return fmt.Errorf("wrong answer: %w", traced.bad)
	}
	out.attempted, out.failed = out.attempted+traced.ops, out.failed+traced.failed
	v["proc.trace_overhead_share"] = 1 - traced.rate()/untraced
	v["index.calls_per_admit"] = float64(c1.idxCalls-c0.idxCalls) / float64(traced.admits)
	v["index.busy_share"] = float64(c1.idxBusy-c0.idxBusy) / float64(c1.cpu-c0.cpu)

	err = serially(func() error {
		if err := e.serialSection(st, v); err != nil {
			return err
		}
		return standaloneRungs(st.serial, e.request, v)
	})
	if err != nil {
		return err
	}
	return checkQuiesced(e.svc, e.base)
}

// serially runs the serial section: span recording on and one processor,
// so a caller and the loop it wakes take turns on the same thread. With
// two, an unloaded handoff lands at random on either side of a
// cross-thread wake-up (3 us or 12 us here), and every median above it
// flips with it from run to run.
func serially(section func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec.serial.Store(true)
	defer rec.serial.Store(false)
	return section()
}

// countDeltas turns two readings around the untraced saturation phase
// into the per-layer counts and ratios.
func countDeltas(v values, a, b counters, sat tally) {
	var batches, ops, tries float64
	for i := range b.stats {
		x, y := a.stats[i], b.stats[i]
		batches += float64(y.Batches - x.Batches)
		ops += float64(y.Ops - x.Ops)
		tries += float64(y.Admitted - x.Admitted + y.Rejected - x.Rejected +
			y.RejectedDeadline - x.RejectedDeadline + y.RejectedQuota - x.RejectedQuota)
	}
	v["resd.ops_per_batch"] = ops / batches
	v["resd.shard_tries_per_admit"] = tries / float64(sat.admits)
	v["resd.reject_share"] = float64(sat.refused) / float64(sat.admits)
	v["tenant.denied_share"] = float64(sat.denied) / float64(sat.admits)
	var fsyncs, bytes float64
	for i := range b.wal {
		fsyncs += float64(b.wal[i].Fsyncs - a.wal[i].Fsyncs)
		bytes += float64(b.wal[i].Bytes - a.wal[i].Bytes)
	}
	v["wal.fsyncs_per_op"] = fsyncs / float64(sat.ops)
	v["wal.bytes_per_op"] = bytes / float64(sat.ops)
	v["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(sat.ops)
	v["proc.gc_pause_max_us"] = maxPauseUs(a, b)
	v["proc.cpu_s_per_kop"] = (b.cpu - a.cpu).Seconds() / float64(sat.ops) * 1000
}

// unpipelined saturates the wire service through a client that carries
// one request per connection at a time: the base of pipeline_gain.
func (e *env) unpipelined(st *streams, dur time.Duration) (tally, error) {
	c, err := reswire.Dial(e.addr, reswire.Options{Conns: runtime.NumCPU(), CallTimeout: opTimeout})
	if err != nil {
		return tally{}, err
	}
	defer c.Close()
	rpc := *e
	rpc.t = c
	return rpc.saturate(st, dur, 0), nil
}

// mallocsDuring counts the heap allocations f causes, process-wide; the
// serial section runs nothing else.
func mallocsDuring(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// serialSection replays the sampled requests one at a time. Roots wrap
// the benchmark's own calls; the traced backend hangs the index calls the
// shard loops make under whichever root is open. For durable-mixed the
// same request also goes to the rungs below the workload's own build —
// no WAL, then no obs, then no quotas — so paired differences price one
// layer each and the bare rung's self time is the handoff.
func (e *env) serialSection(st *streams, v values) error {
	rungs := []*env{e}
	names := []string{"resd"}
	if e.w.Durable {
		for _, r := range []struct {
			name string
			v    variant
		}{
			{"ladder.nowal", variant{backend: tracedBackend, quotas: true, obs: true}},
			{"ladder.noobs", variant{backend: tracedBackend, quotas: true}},
			{"ladder.bare", variant{backend: tracedBackend}},
		} {
			re, err := setupService(e.w, st, r.v)
			if err != nil {
				return err
			}
			defer re.close()
			rungs, names = append(rungs, re), append(names, r.name)
		}
	}

	// Allocation counts first, with span recording off.
	rec.serial.Store(false)
	n := float64(len(st.serial))
	var failed error
	pair := func(t target) func() {
		return func() {
			for _, it := range st.serial {
				rv, err := t.Admit(e.request(it))
				if err == nil {
					err = t.Cancel(rv.ID)
				}
				if err != nil && !refusal(err) {
					failed = err
				}
			}
		}
	}
	v["resd.allocs_per_op"] = mallocsDuring(pair(inproc{e.svc})) / (2 * n)
	if e.client != nil {
		v["reswire.allocs_per_rtt"] = mallocsDuring(pair(e.client)) / (2 * n)
	}
	if failed != nil {
		return fmt.Errorf("serial section: %w", failed)
	}

	rec.serial.Store(true)
	// One rung after the other, each in a loop of its own: a rung that
	// waits on the disk would otherwise leave the processors idle before
	// the next rung's turn, and a call made on an idle machine measures
	// the wake-up. admitNs[r][i] is rung r's admission of sample i, or -1
	// where it refused.
	admitNs := make([][]float64, len(rungs))
	for r, re := range rungs {
		admitNs[r] = make([]float64, len(st.serial))
		for i, it := range st.serial {
			req := e.request(it)
			id := rec.begin(names[r]+".admit", i)
			rv, err := re.svc.Admit(req)
			admitNs[r][i] = rec.end(id)
			if err != nil {
				if !refusal(err) {
					return fmt.Errorf("serial section: %w", err)
				}
				admitNs[r][i] = -1
				continue
			}
			if bad := checkReservation(req, rv, machineM, re.svc.Floor()); bad != nil {
				return fmt.Errorf("wrong answer: %w", bad)
			}
			id = rec.begin(names[r]+".cancel", i)
			err = re.svc.Cancel(rv.ID)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("serial section: %w", err)
			}
		}
	}
	for i, it := range st.serial {
		req := e.request(it)
		if i%4 == 0 {
			id := rec.begin("resd.query", i)
			_, err := e.svc.Query(req.Ready)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("serial section: %w", err)
			}
		}
		if e.client == nil {
			continue
		}
		id := rec.begin("client.admit", i)
		rv, err := e.client.Admit(req)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("serial section: %w", err)
		}
		id = rec.begin("client.cancel", i)
		err = e.client.Cancel(rv.ID)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("serial section: %w", err)
		}
		id = rec.begin("client.ping", i)
		err = e.client.Ping()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("serial section: %w", err)
		}
	}

	// The index on its own, at this workload's state: a clone of shard 0.
	id := rec.begin("resd.snapshot", 0)
	snap, err := e.svc.Snapshot(0)
	rec.end(id)
	if err != nil {
		return err
	}
	indexRung(snap, st.serial, e.svc.Floor(), v)

	if e.reg != nil {
		var ms []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			if err := e.reg.WritePrometheus(io.Discard); err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(t))/1e6)
		}
		v["obs.scrape_ms"] = median(ms)
	}

	d := rec.durations()
	v["resd.admit_ns"] = median(d["resd.admit"])
	v["resd.cancel_ns"] = median(d["resd.cancel"])
	v["resd.query_ns"] = median(d["resd.query"])
	v["resd.handoff_ns"] = median(d[names[len(names)-1]+".admit.self"])
	if e.w.Durable {
		v["wal.overhead_ns"] = median(diff(admitNs[0], admitNs[1]))
		v["obs.admit_overhead_ns"] = median(diff(admitNs[1], admitNs[2]))
		v["obs.admit_overhead_iqr_ns"] = iqr(diff(admitNs[1], admitNs[2]))
	}
	if e.client != nil {
		v["reswire.admit_rtt_us"] = median(d["client.admit"]) / 1e3
		v["reswire.ping_rtt_us"] = median(d["client.ping"]) / 1e3
		v["reswire.transport_us"] = v["reswire.admit_rtt_us"] - v["resd.admit_ns"]/1e3
	}
	return nil
}

// diff pairs two rungs sample by sample. A difference is a layer's cost
// only where both rungs did the same thing, so samples either refused
// are left out.
func diff(a, b []float64) []float64 {
	var out []float64
	for i := range a {
		if a[i] >= 0 && b[i] >= 0 {
			out = append(out, a[i]-b[i])
		}
	}
	return out
}

// indexRung drives a capacity index directly with the sampled requests,
// as the shard loop would — find, commit, release — plus the read-only
// probes and one clone, and reports every index span recorded so far,
// these and the ones the program's own calls produced. Span recording is
// on when it is called and when it returns.
func indexRung(idx profile.CapacityIndex, samples []item, floor int, v values) {
	triple := func(it item) {
		at, ok := idx.FindSlot(core.Time(it.ready), int(it.q)+floor, core.Time(it.dur))
		if !ok {
			return
		}
		if idx.Commit(at, core.Time(it.dur), int(it.q)) == nil {
			idx.Release(at, core.Time(it.dur), int(it.q)) // undoes the commit above, which validated the arguments
		}
	}
	rec.serial.Store(false)
	v["index.allocs_per_op"] = mallocsDuring(func() {
		for _, it := range samples {
			triple(it)
		}
	}) / (3 * float64(len(samples)))
	rec.serial.Store(true)
	for i, it := range samples {
		id := rec.begin("index.rung", i)
		triple(it)
		idx.CanPlace(core.Time(it.ready), core.Time(it.dur), int(it.q)+floor)
		idx.AvailableAt(core.Time(it.ready))
		rec.end(id)
	}
	id := rec.begin("index.rung", len(samples))
	idx.CloneIndex()
	rec.end(id)
	indexMetrics(v)
}

// indexMetrics reports every index span recorded so far.
func indexMetrics(v values) {
	d := rec.durations()
	v["index.findslot_ns"] = median(d["index.findslot"])
	v["index.commit_ns"] = median(d["index.commit"])
	v["index.release_ns"] = median(d["index.release"])
	v["index.canplace_ns"] = median(d["index.canplace"])
	v["index.availableat_ns"] = median(d["index.availableat"])
	v["index.clone_ms"] = median(d["index.clone"]) / 1e6
}

// perCall is how many calls the cheap standalone rungs put in one span,
// so the two clock reads around it stay a small share.
const perCall = 16

// standaloneRungs prices the layers the benchmark cannot see inside the
// service — quota ledger, log, codec — by calling their public functions
// directly with the same sampled requests.
func standaloneRungs(samples []item, request func(item) resd.Request, v values) error {
	const tenants = 8
	names := tenantNames(tenants)
	ledger, err := newLedger(tenants, 1<<20)
	if err != nil {
		return err
	}
	var frames int
	var reqBuf, respBuf []byte
	for i := 0; i+perCall <= len(samples); i += perCall {
		id := rec.begin("tenant.acquire", i)
		for _, it := range samples[i : i+perCall] {
			name, area := names[it.tenant%tenants], int64(it.q)*int64(it.dur)
			if err := ledger.Acquire(name, area); err != nil {
				return err
			}
			ledger.Admit(name)
			ledger.Release(name, area)
		}
		rec.end(id)

		id = rec.begin("reswire.encode", i)
		frames = 0
		for k, it := range samples[i : i+perCall] {
			req := request(it)
			if reqBuf, err = reswire.AppendRequest(reqBuf[:0], reswire.Request{ID: uint64(i + k), Op: reswire.OpReserve,
				Tenant: req.Tenant, Ready: req.Ready, Procs: req.Q, Dur: req.Dur, Deadline: req.Deadline}); err != nil {
				return err
			}
			if respBuf, err = reswire.AppendResponse(respBuf[:0], reswire.Response{ID: uint64(i + k), Op: reswire.OpReserve,
				Resv: resd.Reservation{ID: resd.ID(i + k), Start: req.Ready, Dur: req.Dur, Procs: req.Q}}); err != nil {
				return err
			}
			frames = len(reqBuf) + len(respBuf)
		}
		rec.end(id)

		// Frames carry a 4-byte length before the payload the decoders take.
		id = rec.begin("reswire.decode", i)
		for range samples[i : i+perCall] {
			if _, err := reswire.DecodeRequest(reqBuf[4:]); err != nil {
				return err
			}
			if _, err := reswire.DecodeResponse(respBuf[4:]); err != nil {
				return err
			}
		}
		rec.end(id)
	}
	v["reswire.frame_bytes"] = float64(frames)

	for _, mode := range []struct {
		sync wal.SyncMode
		span string
		n    int
	}{{wal.SyncNone, "wal.append", len(samples)}, {wal.SyncBatch, "wal.append_commit", len(samples) / 4}} {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		log, err := wal.Open(0, wal.Options{Dir: dir, Sync: mode.sync})
		if err != nil {
			return err
		}
		for i, it := range samples[:mode.n] {
			req := request(it)
			id := rec.begin(mode.span, i)
			err := log.Append(wal.Record{Type: wal.TAdmit, ID: uint64(i + 1), Tenant: req.Tenant, Ready: int64(req.Ready),
				Procs: req.Q, Dur: int64(req.Dur), Deadline: int64(req.Deadline), Start: int64(req.Ready)})
			if err == nil {
				err = log.Commit()
			}
			rec.end(id)
			if err != nil {
				log.Close()
				return err
			}
		}
		if mode.sync == wal.SyncBatch {
			v["wal.fsync_p99_us"] = float64(log.FsyncQuantile(0.99)) / 1e3
		}
		if err := log.Close(); err != nil {
			return err
		}
	}

	d := rec.durations()
	v["tenant.acquire_ns"] = median(d["tenant.acquire"]) / perCall
	v["reswire.encode_ns"] = median(d["reswire.encode"]) / perCall
	v["reswire.decode_ns"] = median(d["reswire.decode"]) / perCall
	v["wal.append_ns"] = median(d["wal.append"])
	v["wal.append_commit_ns"] = median(d["wal.append_commit"])
	return nil
}

// writeTrace writes the recorded spans next to the result files.
func writeTrace(name string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(outDir, "trace-"+name+".json"))
}
