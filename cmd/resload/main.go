// Command resload is the load generator for the internal/resd
// reservation-admission service: it replays a synthetic or SWF-derived
// request stream at a target rate and reports admission throughput and
// latency percentiles — the operational view of the paper's admission
// rule under heavy concurrent traffic.
//
// It drives either an in-process service (the default) or, with -addr, a
// live resdsrv server over the reswire protocol, in which case the
// reported percentiles are wire-level round-trip latencies:
//
//	resload -shards 4 -m 64 -n 20000
//	resload -swf trace.swf -shards 8 -alpha 0.5 -rate 50000
//	resload -addr 127.0.0.1:7433 -n 100000 -clients 16 -conns 4
//	resload -addr 127.0.0.1:7433 -pipeline=false           # RPC baseline
//	resload -slack 500 -n 20000                            # SLA mode
//	resload -tenants 8 -skew zipf -quotamode hard          # multi-tenant mix
//
// Each request asks for the earliest admissible slot at or after its
// arrival time; -slack gives every request a deadline that many ticks
// after its ready time, so admissions the service cannot start in time
// come back as explicit REJECTED_DEADLINE answers. -cancelfrac controls
// how much of the admitted load is cancelled again by the clients, which
// keeps the shard indexes at a steady state instead of growing without
// bound. The summary separates admissions, rejections (α rule, deadline
// and tenant quota, expected under load) and hard errors (never
// expected). -statsevery prints a live one-line progress row (cumulative
// admissions, rejections, errors, p99 latency and achieved rate) to
// stderr at that period while the stream runs, so long runs are
// observable before the summary lands. Against a remote server the rows
// come from a Watch subscription instead: the server pushes its own
// cumulative shard counters every period, so the live view is the
// server's (queue depths included) and costs zero Stats round trips.
//
// With -tenants N the stream is attributed to N tenants, spread
// uniformly or — production-shaped — by a zipf(1.1) popularity law
// (-skew zipf: a couple of tenants dominate, the rest trickle), and the
// summary adds a per-tenant table: admissions, each rejection kind, and
// p50/p90/p99 latency per tenant. -quotamode hard additionally builds an
// in-process quota registry giving every tenant an equal share of the
// α-prefix, so the table shows REJECTED_QUOTA load shedding; against a
// remote server the budgets come from resdsrv's own -quotas file
// instead.
//
// The per-tenant table always includes p99 start-time slack (admitted
// start − ready) and, under -slack, the tenant's deadline attainment —
// admitted over admitted + deadline-rejected, the same objective the
// server's SLO engine (resdsrv -slo) tracks per tenant.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/workload"
)

func run() error {
	addr := flag.String("addr", "", "drive a remote resdsrv at this address instead of an in-process service")
	conns := flag.Int("conns", 2, "client connections to the remote server (with -addr)")
	pipeline := flag.Bool("pipeline", true, "pipeline requests per connection (with -addr)")
	shards := flag.Int("shards", 4, "cluster partitions (in-process mode)")
	m := flag.Int("m", 64, "processors per partition")
	n := flag.Int("n", 10000, "number of reservation requests")
	nres := flag.Int("nres", 0, "pre-existing reservations per shard (maintenance windows)")
	alpha := flag.Float64("alpha", 0.5, "α admission rule: ⌊α·m⌋ processors stay free per shard")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	rate := flag.Float64("rate", 0, "target request rate per second (0 = unthrottled)")
	cancelfrac := flag.Float64("cancelfrac", 0.5, "fraction of admissions the clients cancel again")
	slack := flag.Int64("slack", 0, "per-request deadline: ready+slack ticks (0 = no deadline)")
	seed := flag.Uint64("seed", 1, "workload generator seed")
	statsevery := flag.Duration("statsevery", 0, "print a one-line progress row this often while the stream runs (0 = off)")
	swf := flag.String("swf", "", "SWF trace file (overrides synthetic generation)")
	tenants := flag.Int("tenants", 0, "attribute the stream to this many tenants (0 = single default tenant)")
	skew := flag.String("skew", "uniform", "tenant popularity (uniform or zipf)")
	quotamode := flag.String("quotamode", "", "in-process quota enforcement with equal shares (hard; '' = no quotas)")
	flag.Parse()

	if err := cliflag.First(
		cliflag.Positive("shards", *shards),
		cliflag.Positive("m", *m),
		cliflag.Positive("n", *n),
		cliflag.NonNegative("nres", *nres),
		cliflag.Unit("alpha", *alpha),
		cliflag.Positive("clients", *clients),
		cliflag.NonNegativeF("rate", *rate),
		cliflag.Unit("cancelfrac", *cancelfrac),
		cliflag.Positive("conns", *conns),
		cliflag.NonNegative("tenants", *tenants),
	); err != nil {
		return err
	}
	if *slack < 0 {
		return fmt.Errorf("%w: -slack must be >= 0, got %d", cliflag.ErrFlag, *slack)
	}
	if *statsevery < 0 {
		return fmt.Errorf("%w: -statsevery must be >= 0, got %v", cliflag.ErrFlag, *statsevery)
	}
	if *tenants > maxTenants {
		// latTenant records tenant indices as uint16; more tenants than
		// that would silently alias rows in the per-tenant table.
		return fmt.Errorf("%w: -tenants must be <= %d, got %d", cliflag.ErrFlag, maxTenants, *tenants)
	}
	if *skew != "uniform" && *skew != "zipf" {
		return fmt.Errorf("%w: -skew must be uniform or zipf, got %q", cliflag.ErrFlag, *skew)
	}
	if *quotamode != "" && *quotamode != "hard" {
		return fmt.Errorf("%w: -quotamode must be hard or empty, got %q", cliflag.ErrFlag, *quotamode)
	}
	if *nres > 0 {
		if err := cliflag.PositiveUnit("alpha", *alpha); err != nil {
			return fmt.Errorf("%w (α must be positive when -nres > 0)", err)
		}
	}

	names := tenantNames(*tenants)
	reqs, err := requestStream(*swf, *m, *n, *alpha, *seed, core.Time(*slack), len(names), *skew)
	if err != nil {
		return err
	}

	var target admitter
	var svc *resd.Service
	statsPeriod := *statsevery
	if *addr != "" {
		if ignored := serverSideFlagsSet(); len(ignored) > 0 {
			fmt.Fprintf(os.Stderr,
				"resload: warning: %s configure the in-process service and are ignored with -addr "+
					"(the server was configured by resdsrv's own flags)\n",
				strings.Join(ignored, ", "))
		}
		client, err := reswire.Dial(*addr, reswire.Options{Conns: *conns, Pipeline: *pipeline})
		if err != nil {
			return err
		}
		defer client.Close()
		target = client
		mode := "pipelined"
		if !*pipeline {
			mode = "unpipelined"
		}
		fmt.Printf("resload: %d requests against %s (%d conns, %s), %d clients\n",
			len(reqs), *addr, *conns, mode, *clients)
		if statsPeriod > 0 {
			// Remote runs get their live rows pushed by the server: one
			// Watch subscription delivers the cumulative shard counters
			// every period without a single Stats poll on the request
			// path. The local ticker is disabled — the server's view is
			// the one that can also show queue depths and trace totals.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch, err := client.Watch(ctx, reswire.WatchOptions{Interval: statsPeriod})
			if err != nil {
				return err
			}
			go func() {
				start := time.Now()
				for tel := range ch {
					fmt.Fprintln(os.Stderr, watchLine(time.Since(start), tel))
				}
			}()
			statsPeriod = 0
		}
	} else {
		var pre []core.Reservation
		if *nres > 0 {
			pre = workload.ReservationStream(rng.New(*seed^0xBEEF), *m, *alpha, *nres, horizonOf(reqs))
		}
		var reg *tenant.Registry
		if *quotamode != "" {
			reg, err = equalShareRegistry(names, *shards, *m, *alpha, horizonOf(reqs))
			if err != nil {
				return err
			}
		}
		svc, err = resd.New(resd.Config{
			Shards: *shards, M: *m, Alpha: *alpha,
			Pre: pre, Quotas: reg,
		})
		if err != nil {
			return err
		}
		defer svc.Close()
		target = svc
		fmt.Printf("resload: %d requests, %d shards × m=%d (α=%.2f, floor %d), %d clients\n",
			len(reqs), *shards, *m, *alpha, svc.Floor(), *clients)
		if reg != nil {
			fmt.Printf("resload: quotas, %d tenants × share %.3f of %d processor·ticks\n",
				len(names), 1/float64(len(names)), reg.Capacity())
		}
	}

	res := replay(target, reqs, names, *clients, *rate, *cancelfrac, *seed, statsPeriod)

	totalRej := res.rejectedAlpha + res.rejectedDeadline + res.rejectedQuota
	fmt.Printf("\n%d admitted, %d rejected (%d α-rule, %d deadline, %d quota), %d errors in %v (%.0f req/s achieved",
		len(res.admitted), totalRej, res.rejectedAlpha, res.rejectedDeadline, res.rejectedQuota,
		res.errored, res.elapsed.Round(time.Millisecond), float64(len(reqs))/res.elapsed.Seconds())
	if *rate > 0 {
		fmt.Printf(", target %.0f", *rate)
	}
	fmt.Println(")")
	if res.errored > 0 {
		fmt.Printf("WARNING: %d hard errors (first: %v) — these are failures, not load shedding\n",
			res.errored, res.firstErr)
	}

	// The per-tenant table buckets samples through the parallel latTenant
	// and slacks buffers, so it must be assembled before the global sort
	// below destroys the sample order.
	var tenantTbl *stats.Table
	if len(names) > 1 {
		tenantTbl = tenantTable(names, res)
	}
	sort.Float64s(res.lats)
	if len(res.lats) > 0 {
		tbl := stats.NewTable("metric", "latency")
		for _, p := range []struct {
			label string
			p     float64
		}{{"p50", 50}, {"p90", 90}, {"p99", 99}} {
			tbl.AddRow(p.label, time.Duration(stats.Percentile(res.lats, p.p)).Round(time.Microsecond).String())
		}
		tbl.AddRow("max", time.Duration(stats.MaxFloat(res.lats)).Round(time.Microsecond).String())
		fmt.Print(tbl.String())
	}

	if tenantTbl != nil {
		fmt.Print(tenantTbl.String())
	}

	shardStats, err := shardStatsOf(target, svc)
	if err != nil {
		return err
	}
	shtbl := stats.NewTable("shard", "active", "area", "admitted", "cancelled", "rej-α", "rej-dl", "rej-q", "slack-p99", "batches", "ops/batch")
	for i, st := range shardStats {
		opb := 0.0
		if st.Batches > 0 {
			opb = float64(st.Ops) / float64(st.Batches)
		}
		shtbl.AddRow(i, st.Active, st.CommittedArea, int64(st.Admitted), int64(st.Cancelled),
			int64(st.Rejected), int64(st.RejectedDeadline), int64(st.RejectedQuota),
			int64(st.SlackP99), int64(st.Batches), fmt.Sprintf("%.2f", opb))
	}
	fmt.Print(shtbl.String())
	return nil
}

// maxTenants caps -tenants at what the uint16 latTenant recording buffer
// can index.
const maxTenants = 1<<16 - 1

// tenantNames derives the stream's accounting identities: the single
// default tenant when multi-tenancy is off, or t0..tN-1.
func tenantNames(n int) []string {
	if n == 0 {
		return []string{""}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// equalShareRegistry builds the in-process quota registry -quotamode asks
// for: every tenant an equal share of the whole α-prefix area over the
// stream's horizon.
func equalShareRegistry(names []string, shards, m int, alpha float64, horizon core.Time) (*tenant.Registry, error) {
	capacity := tenant.PrefixCapacity(shards, m, alpha, int64(horizon))
	if capacity < 1 {
		return nil, fmt.Errorf("%w: -quotamode with α=%v leaves no reservable prefix to budget", cliflag.ErrFlag, alpha)
	}
	var spec tenant.Spec
	for _, name := range names {
		if name == "" {
			name = tenant.DefaultTenant
		}
		spec.Tenants = append(spec.Tenants, tenant.TenantSpec{Name: name, Share: 1 / float64(len(names))})
	}
	reg, err := tenant.New(capacity, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: -quotamode: %w", cliflag.ErrFlag, err)
	}
	return reg, nil
}

// tenantTable renders the per-tenant breakdown: request mix, admission
// and rejection counts, latency percentiles and the p99 start-time slack
// (the per-tenant SLO: how many ticks past its ready time this tenant's
// work is pushed). The percentile buckets are assembled here, at summary
// time, from the flat recording buffers — the hot path never allocates
// per request — and must run before anything reorders res.lats.
func tenantTable(names []string, res result) *stats.Table {
	buckets := make([][]float64, len(names))
	slackBuckets := make([][]float64, len(names))
	for i, lat := range res.lats {
		ti := res.latTenant[i]
		buckets[ti] = append(buckets[ti], lat)
		slackBuckets[ti] = append(slackBuckets[ti], res.slacks[i])
	}
	tbl := stats.NewTable("tenant", "reqs", "admitted", "rej-α", "rej-dl", "rej-q", "errors", "dl-att", "p50", "p90", "p99", "slack-p99")
	for i, name := range names {
		if name == "" {
			name = tenant.DefaultTenant
		}
		tc := res.perTenant[i]
		sort.Float64s(buckets[i])
		sort.Float64s(slackBuckets[i])
		p := func(q float64) string {
			if len(buckets[i]) == 0 {
				return "-"
			}
			return time.Duration(stats.Percentile(buckets[i], q)).Round(time.Microsecond).String()
		}
		slackP99 := "-"
		if len(slackBuckets[i]) > 0 {
			slackP99 = fmt.Sprintf("%.0f", stats.Percentile(slackBuckets[i], 99))
		}
		// dl-att is the tenant's deadline attainment — the fraction of its
		// deadline-relevant decisions the service started in time, the same
		// per-tenant objective the server's SLO engine tracks. Only deadline
		// rejections count against it; α and quota rejections are different
		// failure modes with their own columns.
		dlAtt := "-"
		if denom := tc.admitted + tc.rejDeadline; denom > 0 {
			dlAtt = fmt.Sprintf("%.2f%%", 100*float64(tc.admitted)/float64(denom))
		}
		tbl.AddRow(name, tc.reqs, tc.admitted, tc.rejAlpha, tc.rejDeadline, tc.rejQuota, tc.errored,
			dlAtt, p(50), p(90), p(99), slackP99)
	}
	return tbl
}

// serverSideFlagsSet lists explicitly-set flags that only configure the
// in-process service, so remote runs can warn instead of silently
// measuring a different experiment than the command line describes.
// (-m and -alpha stay meaningful remotely: they shape the generated
// request stream.)
func serverSideFlagsSet() []string {
	serverOnly := map[string]bool{
		"shards": true, "nres": true, "quotamode": true,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if serverOnly[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// admitter is the slice of the service the load generator drives; both
// the in-process *resd.Service and the remote *reswire.Client satisfy it.
type admitter interface {
	Admit(req resd.Request) (resd.Reservation, error)
	Cancel(id resd.ID) error
}

// shardStatsOf reads the per-shard summaries from whichever side of the
// wire the run targeted.
func shardStatsOf(target admitter, svc *resd.Service) ([]resd.ShardStats, error) {
	if svc != nil {
		return svc.Stats(), nil
	}
	return target.(*reswire.Client).Stats()
}

// request is one generated admission request. tenant indexes the run's
// tenant-name table.
type request struct {
	ready    core.Time
	q        int
	dur      core.Time
	deadline core.Time
	tenant   int
}

// requestStream derives the request stream: each workload arrival becomes
// "earliest admissible slot of q processors for dur ticks at or after the
// arrival instant", deadline-bounded when slack is positive and
// attributed to one of tenants identities by the skew law. Tenant
// assignment draws from its own rng stream, so the workload shape is
// identical whatever the tenant mix.
func requestStream(swf string, m, n int, alpha float64, seed uint64, slack core.Time, tenants int, skew string) ([]request, error) {
	var arrivals []workload.Arrival
	if swf != "" {
		f, err := os.Open(swf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := workload.ParseSWF(f)
		if err != nil {
			return nil, err
		}
		if tr.MaxProcs > 0 && tr.MaxProcs < m {
			m = tr.MaxProcs
		}
		arrivals, err = tr.Arrivals(m)
		if err != nil {
			return nil, err
		}
		if len(arrivals) > n {
			arrivals = arrivals[:n]
		}
	} else {
		var err error
		arrivals, err = workload.Synthetic(rng.New(seed), workload.SynthConfig{
			M: m, N: n, MaxWidthFrac: maxWidth(alpha),
		})
		if err != nil {
			return nil, err
		}
	}
	var sampleTenant func() int
	switch {
	case tenants <= 1:
		sampleTenant = func() int { return 0 }
	case skew == "zipf":
		z := rng.NewZipf(rng.NewStream(seed, 0x7E4A), tenants, 1.1)
		sampleTenant = z.Next
	default:
		r := rng.NewStream(seed, 0x7E4A)
		sampleTenant = func() int { return r.Intn(tenants) }
	}
	reqs := make([]request, 0, len(arrivals))
	for _, a := range arrivals {
		q := a.Job.Procs
		if q > m {
			q = m
		}
		deadline := resd.NoDeadline
		if slack > 0 {
			deadline = a.At + slack
		}
		reqs = append(reqs, request{ready: a.At, q: q, dur: a.Job.Len, deadline: deadline, tenant: sampleTenant()})
	}
	return reqs, nil
}

// maxWidth caps generated widths so requests stay admissible under the α
// floor (width + ⌊α·m⌋ <= m).
func maxWidth(alpha float64) float64 {
	w := 1 - alpha
	if w <= 0 {
		w = 0.01
	}
	return w
}

func horizonOf(reqs []request) core.Time {
	h := core.Time(1)
	for _, r := range reqs {
		if end := r.ready + r.dur; end > h {
			h = end
		}
	}
	return h
}

// tenantCounts tallies one tenant's outcomes.
type tenantCounts struct {
	reqs, admitted, rejAlpha, rejDeadline, rejQuota, errored int
}

// result is one replay's outcome. Rejections (the α rule, a deadline or a
// tenant quota saying no, by design) are kept strictly apart from hard
// errors (protocol failures, closed services): conflating them hides real
// failures inside expected load shedding.
//
// lats, slacks and latTenant are parallel flat buffers — sample i's
// latency, start-time slack (admitted start − ready, in ticks) and tenant
// index — preallocated to the stream size before the clients start, so
// the recording path appends without ever allocating; the per-tenant
// percentile buckets are only assembled afterwards, in tenantTable.
type result struct {
	lats             []float64 // per-admission latency, ns
	slacks           []float64 // per-admission start-time slack, ticks
	latTenant        []uint16  // tenant index per latency sample
	admitted         []resd.Reservation
	perTenant        []tenantCounts
	rejectedAlpha    int
	rejectedDeadline int
	rejectedQuota    int
	errored          int
	firstErr         error
	elapsed          time.Duration
}

// classify buckets one Reserve outcome.
func classify(err error) (alphaRej, deadlineRej, quotaRej, hard bool) {
	switch {
	case err == nil:
		return false, false, false, false
	case errors.Is(err, resd.ErrQuota):
		return false, false, true, false
	case errors.Is(err, resd.ErrDeadline):
		return false, true, false, false
	case errors.Is(err, resd.ErrNeverFits):
		return true, false, false, false
	default:
		return false, false, false, true
	}
}

// progress is the live view of a replay the -statsevery ticker prints
// from while the clients are still running: lock-free counters bumped on
// the hot path and an exponential-bucket latency histogram, the same
// O(1) sketch the service itself exposes, so sampling it mid-run costs
// the clients nothing. A nil *progress (the default, -statsevery 0) makes
// every method a no-op.
type progress struct {
	admitted atomic.Uint64
	rejected atomic.Uint64
	errored  atomic.Uint64
	lat      obs.Histogram
}

// record folds one request outcome into the live counters.
func (p *progress) record(lat time.Duration, err error) {
	if p == nil {
		return
	}
	p.lat.Observe(int64(lat))
	switch _, _, _, hard := classify(err); {
	case err == nil:
		p.admitted.Add(1)
	case hard:
		p.errored.Add(1)
	default:
		p.rejected.Add(1)
	}
}

// line renders one progress row: cumulative outcomes, the p99 of every
// round trip so far and the achieved aggregate rate.
func (p *progress) line(elapsed time.Duration) string {
	done := p.admitted.Load() + p.rejected.Load() + p.errored.Load()
	return fmt.Sprintf("resload: %8v  %d admitted, %d rejected, %d errors, p99=%v (%.0f req/s)",
		elapsed.Round(10*time.Millisecond), p.admitted.Load(), p.rejected.Load(), p.errored.Load(),
		time.Duration(p.lat.Quantile(0.99)).Round(time.Microsecond),
		float64(done)/elapsed.Seconds())
}

// watchLine renders one server-pushed telemetry frame as a progress row:
// the remote-mode counterpart of progress.line, except every number is
// the server's own cumulative view (including work from other load
// generators) and queue depth is visible. seq/drop expose the
// subscription itself — drop>0 means this process read frames too
// slowly and the server coalesced.
func watchLine(elapsed time.Duration, t reswire.Telemetry) string {
	var admitted, cancelled, rejected uint64
	var active, queued int
	for i := range t.Shards {
		st := &t.Shards[i]
		admitted += st.Admitted
		cancelled += st.Cancelled
		rejected += st.Rejected + st.RejectedDeadline + st.RejectedQuota
		active += st.Active
		if i < len(t.Queue) {
			queued += t.Queue[i]
		}
	}
	return fmt.Sprintf("resload: %8v  server: %d admitted, %d cancelled, %d rejected, %d active, %d queued, %d traced (seq=%d drop=%d)",
		elapsed.Round(10*time.Millisecond), admitted, cancelled, rejected,
		active, queued, t.TracesSampled, t.Seq, t.Dropped)
}

// replay pushes the request stream through the admitter from the given
// number of client goroutines, pacing the aggregate at rate requests per
// second when positive. names[req.tenant] attributes each request — the
// same table run() built the quota registry from, passed in rather than
// re-derived so attribution and enforcement can never disagree. A
// positive statsevery prints a live progress row to stderr at that
// period until the stream drains.
func replay(svc admitter, reqs []request, names []string, clients int, rate, cancelfrac float64, seed uint64, statsevery time.Duration) result {
	work := make(chan request, 4*clients)
	perClient := make([]result, clients)
	for c := range perClient {
		// Preallocate the recording buffers to the whole stream: the work
		// channel does not promise an even split, and a per-request append
		// that grows mid-run would allocate exactly where latency is being
		// measured.
		perClient[c].lats = make([]float64, 0, len(reqs))
		perClient[c].slacks = make([]float64, 0, len(reqs))
		perClient[c].latTenant = make([]uint16, 0, len(reqs))
		perClient[c].perTenant = make([]tenantCounts, len(names))
	}
	var prog *progress
	if statsevery > 0 {
		prog = &progress{}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &perClient[c]
			r := rng.NewStream(seed, uint64(c))
			var held []resd.Reservation
			for req := range work {
				tc := &res.perTenant[req.tenant]
				tc.reqs++
				t0 := time.Now()
				resv, err := svc.Admit(resd.Request{
					Tenant: names[req.tenant], Ready: req.ready, Q: req.q,
					Dur: req.dur, Deadline: req.deadline,
				})
				lat := time.Since(t0)
				prog.record(lat, err)
				if alphaRej, deadlineRej, quotaRej, hard := classify(err); err != nil {
					switch {
					case alphaRej:
						res.rejectedAlpha++
						tc.rejAlpha++
					case deadlineRej:
						res.rejectedDeadline++
						tc.rejDeadline++
					case quotaRej:
						res.rejectedQuota++
						tc.rejQuota++
					case hard:
						res.errored++
						tc.errored++
						if res.firstErr == nil {
							res.firstErr = err
						}
					}
					continue
				}
				res.lats = append(res.lats, float64(lat))
				res.slacks = append(res.slacks, float64(resv.Start-req.ready))
				res.latTenant = append(res.latTenant, uint16(req.tenant))
				res.admitted = append(res.admitted, resv)
				tc.admitted++
				held = append(held, resv)
				if r.Bool(cancelfrac) {
					k := r.Intn(len(held))
					if err := svc.Cancel(held[k].ID); err == nil {
						held[k] = held[len(held)-1]
						held = held[:len(held)-1]
					}
				}
			}
		}(c)
	}

	start := time.Now()
	if prog != nil {
		stop := make(chan struct{})
		var tickWG sync.WaitGroup
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			tick := time.NewTicker(statsevery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					fmt.Fprintln(os.Stderr, prog.line(time.Since(start)))
				}
			}
		}()
		defer func() { close(stop); tickWG.Wait() }()
	}
	if rate > 0 {
		interval := time.Duration(float64(time.Second) / rate)
		next := start
		for _, req := range reqs {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			work <- req
			next = next.Add(interval)
		}
	} else {
		for _, req := range reqs {
			work <- req
		}
	}
	close(work)
	wg.Wait()

	total := result{perTenant: make([]tenantCounts, len(names))}
	total.elapsed = time.Since(start)
	for c := range perClient {
		pc := &perClient[c]
		total.lats = append(total.lats, pc.lats...)
		total.slacks = append(total.slacks, pc.slacks...)
		total.latTenant = append(total.latTenant, pc.latTenant...)
		total.admitted = append(total.admitted, pc.admitted...)
		total.rejectedAlpha += pc.rejectedAlpha
		total.rejectedDeadline += pc.rejectedDeadline
		total.rejectedQuota += pc.rejectedQuota
		total.errored += pc.errored
		for i := range pc.perTenant {
			total.perTenant[i].reqs += pc.perTenant[i].reqs
			total.perTenant[i].admitted += pc.perTenant[i].admitted
			total.perTenant[i].rejAlpha += pc.perTenant[i].rejAlpha
			total.perTenant[i].rejDeadline += pc.perTenant[i].rejDeadline
			total.perTenant[i].rejQuota += pc.perTenant[i].rejQuota
			total.perTenant[i].errored += pc.perTenant[i].errored
		}
		if total.firstErr == nil {
			total.firstErr = pc.firstErr
		}
	}
	return total
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resload:", err)
		os.Exit(1)
	}
}
