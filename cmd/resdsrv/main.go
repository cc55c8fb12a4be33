// Command resdsrv serves the internal/resd reservation-admission service
// over the reswire protocol: it builds a sharded service from flags,
// listens on a TCP address, and decodes wire frames straight into the
// shards' queues, so remote clients get the same α-rule and
// deadline-rejection semantics as in-process callers — over a socket.
//
// Usage:
//
//	resdsrv -addr :7433 -shards 8 -m 256 -alpha 0.5
//	resdsrv -addr 127.0.0.1:0    # ephemeral port, printed
//	resdsrv -quotas quotas.json -qhorizon 1000000   # multi-tenant budgets
//
// A reservation stays on the shard that admitted it, which is the
// least-loaded shard that could admit it when it arrived.
//
// With -quotas, the server partitions the reservable α-prefix between
// tenants: the JSON file declares the enforcement mode ("hard" rejects
// with REJECTED_QUOTA, "soft" reorders contended batches by fair share)
// and the group/tenant share hierarchy, and budgets resolve against
// shards × (m − ⌊α·m⌋) × -qhorizon processor·ticks. For example:
//
//	{
//	  "mode": "hard",
//	  "groups":  [{"name": "prod", "share": 0.75}],
//	  "tenants": [{"name": "etl", "group": "prod", "share": 0.5},
//	              {"name": "adhoc", "share": 0.1}]
//	}
//
// With -obs, the server opens a second, HTTP listener exposing the whole
// observability surface: /metrics (Prometheus text format — per-shard
// queue depths, ops/batch, admission outcomes by reason, per-tenant
// quota gauges, slack and wire latency summaries), /healthz (503 while
// draining), and /debug/pprof. -trace N samples 1 in N admissions into a
// bounded ring served by the wire protocol's Trace op and, with -slow,
// logs sampled admissions slower than the threshold to stderr.
//
//	resdsrv -obs :9090 -trace 64 -slow 5ms    # metrics + sampled tracing
//
// With -obs (or -flightdir) the server also arms its flight recorder
// (internal/flight): a bounded structured event journal fed by every
// subsystem, a watchdog judging shard-loop heartbeats against stall and
// queue budgets (resd_health_state, /healthz warnings), and — when
// -flightdir names a directory — on-anomaly diagnostic bundles
// (goroutines, heap, metrics, traces, journal, WAL state, config)
// served at /debug/flight and validated by `obscheck -flight`.
//
//	resdsrv -obs :9090 -flightdir /var/lib/resd/flight   # black box armed
//
// With -slo, the server arms an SLO engine (internal/slo) over the same
// observability surface: the JSON spec declares windowed objectives —
// deadline attainment (service-wide or per tenant), start-time slack at
// a percentile bound, admission success rate — and multi-window
// multi-burn-rate alert rules in the Google-SRE style (the default:
// 14.4× over 5m and 1h pages, 3× over 30m and 6h warns). The engine
// samples the service's cumulative counters on a fixed period — never
// waiting on a shard — publishes the resd_slo_* metric
// families, journals every alert transition into the flight recorder,
// escalates /healthz to 200-with-warning while any rule fires, captures
// a rate-limited diagnostic bundle on page transitions, and streams
// per-objective states on the Watch op's WatchSLO family.
//
//	resdsrv -obs :9090 -slo slo.json    # burn-rate alerting armed
//
// With -waldir, every shard keeps a write-ahead log of its admission
// decisions in that directory, group-committed with the shard's batch
// turn (one fsync per batch under -walsync batch), snapshotted every
// -snapevery records, and replayed on restart: the service comes back
// holding exactly the reservations — same IDs, same placements — it had
// durably admitted before the crash. While replay runs, /healthz serves
// 503; it flips to 200 only once the wire listener is accepting, so
// orchestrators never route to a server still rebuilding state.
//
//	resdsrv -waldir /var/lib/resd/wal -snapevery 8192   # durable shards
//
// Drive it with cmd/resload's -addr flag (add -tenants for a multi-tenant
// mix) or any reswire.Client. SIGINT/SIGTERM drain connections and shut the listener
// and service down cleanly, emitting one final stats line.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/reswire"
	"repro/internal/rng"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/workload"
)

func run() error {
	addr := flag.String("addr", "127.0.0.1:7433", "TCP listen address")
	shards := flag.Int("shards", 4, "cluster partitions")
	m := flag.Int("m", 64, "processors per partition")
	alpha := flag.Float64("alpha", 0.5, "α admission rule: ⌊α·m⌋ processors stay free per shard")
	batch := flag.Int("batch", 64, "max requests group-committed per shard turn")
	nres := flag.Int("nres", 0, "pre-existing reservations per shard (maintenance windows)")
	horizon := flag.Int64("horizon", 1<<20, "time horizon the -nres pre-reservations are drawn over")
	seed := flag.Uint64("seed", 1, "pre-reservation generator seed")
	quotas := flag.String("quotas", "", "tenant quota spec file (JSON); enables multi-tenant budgets")
	qhorizon := flag.Int64("qhorizon", 1<<20, "accounting horizon the -quotas budgets resolve against")
	obsAddr := flag.String("obs", "", "HTTP observability listen address (/metrics, /healthz, /debug/pprof; empty = disabled)")
	trace := flag.Int("trace", 0, "sample 1 in N admissions into the trace ring (0 = tracing disabled)")
	tracebuf := flag.Int("tracebuf", resd.DefaultTraceBuf, "admission trace ring capacity")
	slow := flag.Duration("slow", 0, "log sampled admissions slower than this to stderr (0 = disabled)")
	flightdir := flag.String("flightdir", "", "flight-recorder bundle directory: on-anomaly diagnostic bundles (empty = journal+watchdog only when -obs is set)")
	sloPath := flag.String("slo", "", "SLO spec file (JSON): windowed objectives + multi-window burn-rate alert rules (empty = disabled)")
	waldir := flag.String("waldir", "", "write-ahead-log directory: durable shards, replayed on restart (empty = in-memory only)")
	walsync := flag.String("walsync", "batch", "WAL commit durability: batch (one fsync per group commit) or none (page cache only, no fsync)")
	snapevery := flag.Int("snapevery", 8192, "WAL records per shard between snapshots (0 = never snapshot; the log grows unbounded)")
	flag.Parse()

	if err := cliflag.First(
		cliflag.Positive("shards", *shards),
		cliflag.Positive("m", *m),
		cliflag.Unit("alpha", *alpha),
		cliflag.Positive("batch", *batch),
		cliflag.NonNegative("nres", *nres),
	); err != nil {
		return err
	}
	if *horizon < 1 {
		return fmt.Errorf("%w: -horizon must be positive, got %d", cliflag.ErrFlag, *horizon)
	}
	if *qhorizon < 1 {
		return fmt.Errorf("%w: -qhorizon must be positive, got %d", cliflag.ErrFlag, *qhorizon)
	}
	if *nres > 0 {
		if err := cliflag.PositiveUnit("alpha", *alpha); err != nil {
			return fmt.Errorf("%w (α must be positive when -nres > 0)", err)
		}
	}
	if err := cliflag.First(
		cliflag.NonNegative("trace", *trace),
		cliflag.Positive("tracebuf", *tracebuf),
	); err != nil {
		return err
	}
	if *slow < 0 {
		return fmt.Errorf("%w: -slow must be non-negative, got %v", cliflag.ErrFlag, *slow)
	}
	var walOpts *wal.Options
	if *waldir != "" {
		if err := cliflag.First(
			cliflag.WritableDir("waldir", *waldir),
			cliflag.NonNegative("snapevery", *snapevery),
		); err != nil {
			return err
		}
		if sm := wal.SyncMode(*walsync); sm != wal.SyncBatch && sm != wal.SyncNone {
			return fmt.Errorf("%w: -walsync must be %q or %q, got %q",
				cliflag.ErrFlag, wal.SyncBatch, wal.SyncNone, *walsync)
		}
		walOpts = &wal.Options{Dir: *waldir, Sync: wal.SyncMode(*walsync), SnapEvery: *snapevery}
	}
	reg, err := loadQuotas(*quotas, *shards, *m, *alpha, *qhorizon)
	if err != nil {
		return err
	}

	var pre []core.Reservation
	if *nres > 0 {
		pre = workload.ReservationStream(rng.New(*seed^0xBEEF), *m, *alpha, *nres, core.Time(*horizon))
	}

	var metrics *obs.Registry
	if *obsAddr != "" {
		metrics = obs.NewRegistry()
		obs.RegisterRuntime(metrics, "")
	}

	// The flight recorder (journal + watchdog) runs whenever observability
	// is on; -flightdir additionally arms on-anomaly diagnostic bundles.
	var rec *flight.Recorder
	if metrics != nil || *flightdir != "" {
		if *flightdir != "" {
			if err := cliflag.WritableDir("flightdir", *flightdir); err != nil {
				return err
			}
		}
		rec, err = flight.New(flight.Config{Registry: metrics, Dir: *flightdir})
		if err != nil {
			return err
		}
	}

	// The SLO engine evaluates the spec's objectives over the service's
	// cumulative counters: built here so it shares the metrics registry
	// and the flight recorder's journal, handed to resd.New below (which
	// binds the sources and starts the ticker). Page transitions capture
	// a rate-limited diagnostic bundle — the burn-rate alert is exactly
	// the moment an operator wants the black box's evidence.
	var eng *slo.Engine
	if *sloPath != "" {
		spec, err := slo.LoadSpec(*sloPath)
		if err != nil {
			return fmt.Errorf("%w: -slo: %w", cliflag.ErrFlag, err)
		}
		sloCfg := slo.Config{Spec: spec, Registry: metrics}
		if rec != nil {
			sloCfg.Journal = rec.Journal()
			sloCfg.OnAlert = sloAlertHook(rec)
		}
		eng, err = slo.New(sloCfg)
		if err != nil {
			return fmt.Errorf("%w: -slo: %w", cliflag.ErrFlag, err)
		}
	}

	var obsCfg *resd.ObsConfig
	if metrics != nil || *trace > 0 || rec != nil || eng != nil {
		obsCfg = &resd.ObsConfig{
			Registry: metrics, TraceSample: *trace, TraceBuf: *tracebuf,
			SlowThreshold: *slow,
			Flight:        rec,
			SLO:           eng,
		}
		if *slow > 0 {
			obsCfg.SlowLog = func(tr resd.TraceRecord) {
				fmt.Fprintln(os.Stderr, slowLine(tr))
			}
		}
	}

	// The observability listener comes up before the service so /healthz
	// is reachable — and answering 503 — for however long WAL replay
	// takes. ready flips only once the wire listener is accepting, and
	// the warn hook reports WAL damage once the service exists (replay
	// losses, shards whose log died at runtime) as a 200-with-warning
	// body: the process serves, but its durability is degraded.
	var ready atomic.Bool
	var warnSvc atomic.Pointer[resd.Service]
	if metrics != nil {
		oln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return err
		}
		warn := func() string {
			var parts []string
			if svc := warnSvc.Load(); svc != nil {
				if w := walWarning(svc); w != "" {
					parts = append(parts, w)
				}
			}
			if rec != nil && rec.State() != flight.Healthy {
				parts = append(parts, fmt.Sprintf("%s: %s", rec.State(), rec.Warning()))
			}
			if eng != nil {
				if w := eng.Warning(); w != "" {
					parts = append(parts, w)
				}
			}
			return strings.Join(parts, "; ")
		}
		mux := http.NewServeMux()
		if rec != nil {
			fh := rec.Handler()
			mux.Handle("/debug/flight", fh)
			mux.Handle("/debug/flight/", fh)
		}
		mux.Handle("/", obs.HandlerWithWarn(metrics, ready.Load, warn))
		hsrv := &http.Server{Handler: mux}
		go hsrv.Serve(oln)
		defer hsrv.Close()
		fmt.Printf("resdsrv: observability on http://%s/metrics (+/healthz, /debug/pprof, /debug/flight)\n", oln.Addr())
	}

	svc, err := resd.New(resd.Config{
		Shards: *shards, M: *m, Alpha: *alpha,
		Batch: *batch, Pre: pre,
		Quotas: reg,
		Obs:    obsCfg,
		WAL:    walOpts,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	warnSvc.Store(svc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := reswire.NewServer(svc)
	srv.SetMetrics(reswire.NewMetrics(metrics, "server"))
	if rec != nil {
		srv.SetFlight(rec.Journal())
		rec.SetConfigInfo(map[string]any{
			"addr": *addr, "shards": *shards, "m": *m, "alpha": *alpha,
			"batch": *batch, "quotas": *quotas,
			"trace": *trace, "slow": (*slow).String(),
			"waldir": *waldir, "walsync": *walsync, "snapevery": *snapevery,
			"flightdir": *flightdir, "obs": *obsAddr, "slo": *sloPath,
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "resdsrv: %v, draining\n", s)
		ready.Store(false) // /healthz flips to 503 while connections drain
		srv.Close()        // stops the listener, closes conns, waits for handlers
	}()

	fmt.Printf("resdsrv: listening on %s — %d shards × m=%d (α=%.2f, floor %d)\n",
		ln.Addr(), svc.Shards(), svc.M(), *alpha, svc.Floor())
	if reg != nil {
		fmt.Printf("resdsrv: quotas %s mode, capacity %d processor·ticks, %d declared tenants\n",
			reg.Mode(), reg.Capacity(), len(reg.Tenants()))
	}
	if *trace > 0 {
		fmt.Printf("resdsrv: tracing 1 in %d admissions (ring %d, slow threshold %v)\n",
			*trace, *tracebuf, *slow)
	}
	if rec != nil {
		where := "bundles disabled"
		if *flightdir != "" {
			where = "bundles in " + *flightdir
		}
		fmt.Printf("resdsrv: flight recorder armed (journal %d events, watchdog %v checks, %s)\n",
			flight.DefaultJournalSize, flight.DefaultCheckEvery, where)
	}
	if eng != nil {
		fmt.Printf("resdsrv: slo engine: %d objectives, evaluated every %v, budget window %v\n",
			len(eng.Objectives()), eng.Period(), eng.BudgetWindow())
	}
	if wi := svc.WALInfo(); wi.Enabled {
		fmt.Printf("resdsrv: wal %s (sync=%s, snapevery=%d): replayed %d records, %d snapshots in %v (torn=%d corrupt=%d dropped=%dB)\n",
			wi.Dir, *walsync, *snapevery, wi.Records, wi.Snapshots, wi.Replay.Round(time.Microsecond),
			wi.Torn, wi.Corrupt, wi.DroppedBytes)
	}
	ready.Store(true)
	err = srv.Serve(ln)
	// Connections are drained; flush the final accounting before exiting.
	fmt.Println(finalLine(svc))
	if err != reswire.ErrServerClosed {
		return err
	}
	return nil
}

// finalLine summarises a service's lifetime totals — the shutdown flush
// emitted after the last connection drains.
func finalLine(svc *resd.Service) string {
	var admitted, cancelled, rejected, deadline, quota, batches, ops uint64
	for _, st := range svc.Stats() {
		admitted += st.Admitted
		cancelled += st.Cancelled
		rejected += st.Rejected
		deadline += st.RejectedDeadline
		quota += st.RejectedQuota
		batches += st.Batches
		ops += st.Ops
	}
	return fmt.Sprintf("resdsrv: final: admitted=%d cancelled=%d rejected=%d (deadline=%d quota=%d) batches=%d ops=%d traces=%d",
		admitted, cancelled, rejected, deadline, quota, batches, ops, len(svc.Traces(0)))
}

// walWarning summarises the service's WAL damage for the /healthz warn
// hook: replay losses found at startup plus shards whose log has died at
// runtime. Empty when the WAL is healthy (or disabled).
func walWarning(svc *resd.Service) string {
	wi := svc.WALInfo()
	if !wi.Enabled {
		return ""
	}
	var parts []string
	if wi.Torn > 0 || wi.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("replay dropped %d torn + %d corrupt records (%dB)",
			wi.Torn, wi.Corrupt, wi.DroppedBytes))
	}
	failed := 0
	for _, w := range svc.WALStats() {
		if w.Failed > 0 {
			failed++
		}
	}
	if failed > 0 {
		parts = append(parts, fmt.Sprintf("%d shard log(s) stopped after write failures", failed))
	}
	return strings.Join(parts, "; ")
}

// sloAlertHook reacts to burn-rate transitions: every transition is
// already journaled by the engine; this hook adds the operator-facing
// stderr line and, on a transition into paging, a diagnostic bundle —
// rate-limited like watchdog captures so a flapping objective cannot
// fill the disk. Capture quietly refuses when -flightdir is unset.
func sloAlertHook(rec *flight.Recorder) func(objective string, from, to slo.Severity, burn float64) {
	var mu sync.Mutex
	var last time.Time
	return func(objective string, from, to slo.Severity, burn float64) {
		fmt.Fprintf(os.Stderr, "resdsrv: slo: %q %s -> %s (burn %.2fx)\n", objective, from, to, burn)
		if to != slo.SevPage {
			return
		}
		mu.Lock()
		limited := !last.IsZero() && time.Since(last) < flight.DefaultBundleMinInterval
		if !limited {
			last = time.Now()
		}
		mu.Unlock()
		if limited {
			return
		}
		if name, err := rec.Capture("slo page: " + objective); err == nil {
			fmt.Fprintf(os.Stderr, "resdsrv: slo: bundle %s captured for %q\n", name, objective)
		}
	}
}

// slowLine renders one slow sampled admission for the stderr log.
func slowLine(tr resd.TraceRecord) string {
	return fmt.Sprintf("resdsrv: slow request: seq=%d tenant=%q shard=%d outcome=%s total=%v (route=%v queue=%v batch=%v)",
		tr.Seq, tr.Tenant, tr.Shard, tr.Outcome, tr.Decision,
		tr.Route, tr.BatchStart-tr.Enqueue, tr.Decision-tr.BatchStart)
}

// loadQuotas builds the tenant registry from the -quotas spec file, with
// budgets resolved against the α-prefix area the flags describe:
// shards × (m − ⌊α·m⌋) × qhorizon. An empty path disables quotas; a
// spec that cannot bind anything (α=1 leaves no reservable prefix) is a
// flag error, caught here rather than surfacing as a registry panic.
func loadQuotas(path string, shards, m int, alpha float64, qhorizon int64) (*tenant.Registry, error) {
	if path == "" {
		return nil, nil
	}
	spec, err := tenant.LoadSpec(path)
	if err != nil {
		return nil, fmt.Errorf("%w: -quotas: %w", cliflag.ErrFlag, err)
	}
	capacity := tenant.PrefixCapacity(shards, m, alpha, qhorizon)
	if capacity < 1 {
		return nil, fmt.Errorf("%w: -quotas with α=%v leaves no reservable prefix to budget", cliflag.ErrFlag, alpha)
	}
	reg, err := tenant.New(capacity, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: -quotas: %w", cliflag.ErrFlag, err)
	}
	return reg, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resdsrv:", err)
		os.Exit(1)
	}
}
