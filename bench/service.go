package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// opTimeout is how long an operation may take before it counts as failed.
const opTimeout = 5 * time.Second

// target is the admission service as a caller reaches it: in process, or
// through a reswire client.
type target interface {
	Admit(resd.Request) (resd.Reservation, error)
	Cancel(resd.ID) error
	Query(core.Time) ([]int, error)
	Stats() ([]resd.ShardStats, error)
}

type inproc struct{ *resd.Service }

func (t inproc) Stats() ([]resd.ShardStats, error) { return t.Service.Stats(), nil }

// variant says which layers a service is built with. The workloads use
// one each; the traced run of durable-mixed also builds the rungs below
// its own, so adjacent rungs subtract to one layer's cost.
type variant struct {
	backend          string
	wal, quotas, obs bool
	wire             bool
}

func variantOf(w *spec, backend string) variant {
	return variant{backend: backend, wal: w.Durable, quotas: w.Durable, obs: w.Durable, wire: w.Wire}
}

// env is one built service with everything around it.
type env struct {
	w      *spec
	v      variant
	svc    *resd.Service
	t      target
	reg    *obs.Registry
	walDir string
	srv    *reswire.Server
	addr   string
	client *reswire.Client
	names  []string // tenant names by item.tenant
	base   load     // as preload left it
}

// outDir receives result files, traces and the WAL directories; the
// benchmark writes nowhere else.
var outDir = "bench/out"

// tenantNames lists the tenants items are drawn over; without tenants
// every request goes to the default tenant.
func tenantNames(n int) []string {
	if n == 0 {
		return []string{""}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
	}
	return names
}

// newLedger builds the hard-mode quota registry: n tenants with equal
// shares of the reservable prefix over the horizon.
func newLedger(n int, horizon int64) (*tenant.Registry, error) {
	qs := tenant.Spec{Mode: "hard"}
	for _, name := range tenantNames(n) {
		qs.Tenants = append(qs.Tenants, tenant.TenantSpec{Name: name, Share: 1 / float64(n)})
	}
	return tenant.New(tenant.PrefixCapacity(shards, machineM, alpha, horizon), qs)
}

func (v variant) config(w *spec, dir string, sync wal.SyncMode) (resd.Config, *obs.Registry, error) {
	cfg := resd.Config{Shards: shards, M: machineM, Alpha: alpha, Backend: v.backend, Batch: batch, Placement: placement}
	if v.quotas {
		q, err := newLedger(w.Tenants, int64(1)<<w.HorizonBits)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Quotas = q
	}
	var reg *obs.Registry
	if v.obs {
		reg = obs.NewRegistry()
		rec, err := flight.New(flight.Config{Registry: reg})
		if err != nil {
			return cfg, nil, err
		}
		eng, err := slo.New(slo.Config{Registry: reg, Journal: rec.Journal(), Spec: slo.Spec{Objectives: []slo.ObjectiveSpec{
			{Name: "deadline", Signal: "deadline_attainment", Target: 0.9},
			{Name: "slack", Signal: "slack", Target: 0.95, Bound: 1 << 12},
			{Name: "success", Signal: "error_rate", Target: 0.5},
		}}})
		if err != nil {
			return cfg, nil, err
		}
		cfg.Obs = &resd.ObsConfig{Registry: reg, TraceSample: w.TraceSample, Flight: rec, SLO: eng}
	}
	if v.wal {
		cfg.WAL = &wal.Options{Dir: dir, Sync: sync, SnapEvery: w.SnapEvery}
	}
	return cfg, reg, nil
}

// setupService builds the workload's booked state: preload in stream
// order through one caller, so the state is a function of the seed alone,
// then whatever the variant puts around the service, then a warm-up
// through the real callers. A durable service preloads through an
// unsynced log and is then reopened with the run's flush policy: what a
// restarted node does, and it keeps 24k fsyncs out of a traced set-up.
func setupService(w *spec, st *streams, v variant) (e *env, err error) {
	e = &env{w: w, v: v, names: tenantNames(w.Tenants)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if v.wal {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return e, err
		}
		if e.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return e, err
		}
	}
	cfg, reg, err := v.config(w, e.walDir, wal.SyncNone)
	if err != nil {
		return e, err
	}
	if e.svc, err = resd.New(cfg); err != nil {
		return e, err
	}
	for _, it := range st.preload {
		if _, err := e.svc.Admit(e.request(it)); err != nil && !refusal(err) {
			return e, fmt.Errorf("preload: %w", err)
		}
	}
	if v.wal {
		e.svc.Close()
		e.svc = nil
		if cfg, reg, err = v.config(w, e.walDir, w.Sync); err != nil {
			return e, err
		}
		if e.svc, err = resd.New(cfg); err != nil {
			return e, fmt.Errorf("reopen over the preloaded log: %w", err)
		}
	}
	e.reg = reg
	e.base = loadOf(e.svc.Stats())
	e.t = inproc{e.svc}
	if v.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, err
		}
		e.srv = reswire.NewServer(e.svc)
		go e.srv.Serve(ln) // returns when close() closes the server
		e.addr = ln.Addr().String()
		e.client, err = reswire.Dial(e.addr, reswire.Options{
			Conns: runtime.NumCPU(), Pipeline: true, CallTimeout: opTimeout,
		})
		if err != nil {
			return e, err
		}
		e.t = e.client
	}
	warm := e.saturate(st, 0, 128)
	if warm.failed > 0 || warm.bad != nil {
		return e, fmt.Errorf("warm-up: %d operations failed, first wrong answer: %v", warm.failed, warm.bad)
	}
	return e, nil
}

func (e *env) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

func (e *env) request(it item) resd.Request {
	req := resd.Request{Tenant: e.names[it.tenant], Ready: core.Time(it.ready), Q: int(it.q), Dur: core.Time(it.dur), Deadline: resd.NoDeadline}
	if e.w.Deadline > 0 {
		req.Deadline = req.Ready + core.Time(e.w.Deadline)
	}
	return req
}

// refusal reports an α, deadline or quota refusal: an answer, not a
// failure.
func refusal(err error) bool {
	return errors.Is(err, resd.ErrDeadline) || errors.Is(err, resd.ErrQuota) || errors.Is(err, resd.ErrNeverFits)
}

// caller is one of the goroutines that drive the service in the timed
// phases. It owns its counters and the ring of admissions it still has to
// cancel, so the timed loops share nothing and allocate nothing.
type caller struct {
	e        *env
	ring     []resd.ID
	head, n  int
	answered time.Time // when the last item's own operation returned

	// Set by the saturation phase only: the Admit latencies (us) of the
	// window being served, and each closed window's median of them.
	win    []float64
	winP50 []float64

	items, ops, admits, refused, denied, failed int64
	bad                                         error // first wrong answer
}

func newCaller(e *env) *caller {
	return &caller{e: e, ring: make([]resd.ID, e.w.CancelLag+1)}
}

func (c *caller) wrong(err error) {
	if c.bad == nil {
		c.bad = err
	}
}

// do serves one stream item and, after an admission, the cancel that
// keeps the live count level.
func (c *caller) do(it item) {
	e := c.e
	c.items++
	sent := time.Now()
	var err error
	switch it.kind {
	case kindAdmit:
		req := e.request(it)
		var rv resd.Reservation
		rv, err = e.t.Admit(req)
		c.answered = time.Now()
		took := c.answered.Sub(sent)
		if c.winP50 != nil {
			c.win = append(c.win, float64(took)/1e3)
		}
		c.admits++
		switch {
		case err == nil:
			if bad := checkReservation(req, rv, machineM, e.svc.Floor()); bad != nil {
				c.wrong(bad)
			}
		case refusal(err):
			c.refused++
			if errors.Is(err, resd.ErrQuota) {
				c.denied++
			}
		}
		c.count(err, took)
		if err == nil {
			c.hold(rv.ID)
		}
		return
	case kindQuery:
		var free []int
		if free, err = e.t.Query(core.Time(it.ready)); err == nil && len(free) != shards {
			c.wrong(fmt.Errorf("Query answers for %d shards", len(free)))
		}
		for s, f := range free {
			if f < e.svc.Floor() || f > machineM {
				c.wrong(fmt.Errorf("Query(%d) answers %d free on shard %d, outside [α floor, M]", it.ready, f, s))
			}
		}
	case kindStats:
		var st []resd.ShardStats
		if st, err = e.t.Stats(); err == nil && len(st) != shards {
			c.wrong(fmt.Errorf("Stats answers for %d shards", len(st)))
		}
	case kindTotals:
		_, err = e.svc.TenantTotals()
	}
	c.answered = time.Now()
	c.count(err, c.answered.Sub(sent))
}

// count books one answered operation; an error that is not a refusal, or
// an answer slower than opTimeout, is a failure.
func (c *caller) count(err error, took time.Duration) {
	c.ops++
	if (err != nil && !refusal(err)) || took > opTimeout {
		c.failed++
	}
}

// hold queues an admission for its cancel, CancelLag admissions later.
func (c *caller) hold(id resd.ID) {
	c.ring[(c.head+c.n)%len(c.ring)] = id
	c.n++
	if c.n == len(c.ring) {
		c.cancelOldest()
	}
}

func (c *caller) cancelOldest() {
	id := c.ring[c.head]
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	sent := time.Now()
	err := c.e.t.Cancel(id)
	c.count(err, time.Since(sent))
}

// tally sums what the callers of one phase counted.
type tally struct {
	items, ops, admits, refused, denied, failed int64
	bad                                         error
	rates                                       []float64 // operations per second, by window
	p50s                                        []float64 // median Admit latency (us) across callers, by window
}

// rate is the phase's throughput: the best decile of its windows.
func (t *tally) rate() float64 { return bestDecile(t.rates, true) }

func (t *tally) add(c *caller) {
	t.items += c.items
	t.ops += c.ops
	t.admits += c.admits
	t.refused += c.refused
	t.denied += c.denied
	t.failed += c.failed
	if t.bad == nil {
		t.bad = c.bad
	}
}

// saturate is the closed-loop phase: every caller sends its next request
// when the previous one is answered, for dur (or, when perCaller > 0, for
// that many items each — the warm-up). The timed phase is cut into
// phaseWindows windows; each counts the operations answered in it, and
// each caller keeps the median of the Admit latencies it saw in it (a
// window short of minPerWindow samples runs on into the next). Outstanding
// admissions are cancelled after the clock stops.
func (e *env) saturate(st *streams, dur time.Duration, perCaller int) tally {
	windows := phaseWindows
	if perCaller > 0 {
		windows = 1
	}
	winOps := make([][]int64, callers)
	cs := make([]*caller, callers)
	for g := range cs {
		cs[g] = newCaller(e)
		winOps[g] = make([]int64, windows)
		if perCaller == 0 {
			cs[g].win = make([]float64, 0, 1<<12)
			cs[g].winP50 = make([]float64, windows)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := range cs {
		wg.Add(1)
		go func(c *caller, pool []item, win []int64) {
			defer wg.Done()
			cur := 0
			for i := 0; perCaller == 0 || i < perCaller; i++ {
				w := 0
				if perCaller == 0 {
					t := time.Since(start)
					if t < dur {
						w = int(t * time.Duration(windows) / dur)
					}
					if (t >= dur || w != cur) && len(c.win) >= minPerWindow {
						c.winP50[cur] = medianInPlace(c.win)
						c.win = c.win[:0]
					}
					if t >= dur {
						return
					}
					cur = w
				}
				before := c.ops
				c.do(pool[i%len(pool)])
				win[w] += c.ops - before
			}
		}(cs[g], st.pool[g], winOps[g])
	}
	wg.Wait()
	var t tally
	for g, c := range cs {
		for c.n > 0 {
			c.cancelOldest()
		}
		t.add(c)
		if perCaller > 0 {
			continue
		}
		if g == 0 {
			t.rates = make([]float64, windows)
		}
		for w, n := range winOps[g] {
			t.rates[w] += float64(n) / (dur.Seconds() / float64(windows))
		}
	}
	for w := 0; w < windows && perCaller == 0; w++ {
		var across []float64
		for _, c := range cs {
			if c.winP50[w] > 0 {
				across = append(across, c.winP50[w])
			}
		}
		if len(across) > 0 {
			t.p50s = append(t.p50s, median(across))
		}
	}
	return t
}

// pacing is what the open-loop phase measured.
type pacing struct {
	tally
	latUs       []float64 // Admit latency from the due time, in due order
	lagP99Us    float64   // how late the dispatcher sent
	inflightMax int64
	queueMax    int     // deepest shard queue the dispatcher saw
	backlog     float64 // median in flight over the last tenth of the sends
	overLimit   float64
	unsent      int64
	rate        float64 // stream items per second the dispatcher released
}

// note is the phase's line in the run's output: what was offered and how
// well the generator kept its schedule.
func (p *pacing) note() string {
	s := fmt.Sprintf("paced phase: %.0f items/s offered, %d admissions sampled, dispatcher lag p99 %.1f us, in-flight high-water %d",
		p.rate, len(p.latUs), p.lagP99Us, p.inflightMax)
	if why := p.invalid(); why != "" {
		s += "; INVALID: " + why
	}
	return s
}

// invalid says why the phase does not measure the service, or "" when it
// does: a late dispatcher or a growing backlog means the numbers are the
// generator's.
func (p *pacing) invalid() string {
	switch {
	case p.lagP99Us > 1000:
		return fmt.Sprintf("dispatcher ran %.0f us late at p99", p.lagP99Us)
	case p.backlog > callers:
		return fmt.Sprintf("backlog of %.0f over the last tenth of the phase", p.backlog)
	case p.unsent > 0:
		return fmt.Sprintf("%d requests never sent", p.unsent)
	}
	return ""
}

// pace is the open-loop phase: one dispatcher releases item i at
// i/rate seconds whatever the service does, the callers serve what is
// released, and an admission's latency runs from the instant it was due —
// so a stall is charged to every request it delayed, not just the one
// that hit it.
func (e *env) pace(st *streams, dur time.Duration, rate float64) (pacing, error) {
	admitShare := 1 - e.w.QueryShare - e.w.StatsShare
	n := int(rate * dur.Seconds())
	if floor := int(1.2 * minSamples / admitShare); n < floor {
		n = floor
	}
	interval := float64(time.Second) / rate
	lat := make([]int64, n) // -1: not an admission
	lag := make([]float64, n)
	queued := make([]float64, n) // in flight at each send
	work := make(chan int, n)    // sized to the sends: the dispatcher never blocks
	cs := make([]*caller, callers)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := range cs {
		cs[g] = newCaller(e)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := range work {
				it := st.pool[i%callers][(i/callers)%poolPerCaller]
				c.do(it)
				lat[i] = -1
				if it.kind == kindAdmit {
					lat[i] = int64(c.answered.Sub(start)) - int64(float64(i)*interval)
				}
				inflight.Add(-1)
			}
		}(cs[g])
	}
	p := pacing{rate: rate}
	giveUp := 2*dur + time.Second
	sent := 0
	for ; sent < n; sent++ {
		due := time.Duration(float64(sent) * interval)
		now := time.Since(start)
		for now < due {
			if due-now > time.Millisecond {
				time.Sleep(due - now - 500*time.Microsecond)
			} else {
				runtime.Gosched()
			}
			now = time.Since(start)
		}
		if now > giveUp {
			break
		}
		lag[sent] = float64(now-due) / 1e3
		if sent%64 == 0 {
			for _, d := range e.svc.QueueDepths() {
				if d > p.queueMax {
					p.queueMax = d
				}
			}
		}
		q := inflight.Add(1)
		queued[sent] = float64(q)
		if q > p.inflightMax {
			p.inflightMax = q
		}
		work <- sent
	}
	close(work)
	wg.Wait()
	p.unsent = int64(n - sent)
	for _, c := range cs {
		for c.n > 0 {
			c.cancelOldest()
		}
		p.add(c)
	}
	p.failed += p.unsent
	p.backlog = median(queued[sent*9/10 : sent])
	over := 0
	for _, d := range lat[:sent] {
		if d < 0 {
			continue
		}
		us := float64(d) / 1e3
		p.latUs = append(p.latUs, us)
		if us > e.w.LimitUs {
			over++
		}
	}
	var err error
	if p.lagP99Us, err = p99(lag[:sent]); err != nil {
		return p, err
	}
	p.overLimit = float64(over+int(p.failed)) / float64(len(p.latUs))
	return p, nil
}
