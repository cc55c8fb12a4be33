// Package flight is the node's black-box flight recorder: a bounded
// structured event journal, a shard health watchdog, and
// on-anomaly diagnostic bundles. It exists because the service's other
// observability (metrics, traces, Watch telemetry) describes the
// workload; flight describes the service itself — whether the
// single-writer shards the α-rule guarantees depend on are actually
// making progress, and what the evidence was when they were not.
//
// # Journal
//
// The Journal is a fixed-size ring of typed Events (a Recorder's holds
// JournalSize, 1024): severity (info / warn / error), a wall-clock stamp
// plus a monotonic offset, the originating subsystem ("resd", "wal",
// "reswire", "flight"), the shard (-1 for node-wide), an optional
// tenant, a message, and structured key/value pairs. Hook points across the service feed it:
//
//	resd     WAL replay verdicts, quota overflow-book activation, slow
//	         batch turns, WAL failures
//	wal      log rotations, snapshot writes, snapshot failures
//	reswire  frame errors, refused revisions, watch slow-consumer drops
//	flight   health transitions, bundle captures
//
// Recording is one short mutex hold plus a few atomic adds; event
// rates are operational, not per-request. Per-severity totals mirror
// into the obs registry as flight_events_total{severity}, so an alert
// can fire on error-rate without shipping the journal anywhere. All
// journal methods are nil-receiver safe: hook sites record
// unconditionally and a service without a recorder pays a nil check.
// Severities and health states marshal as strings, and readers
// (obscheck, the tests) decode them as strings.
//
// # Watchdog
//
// A resd shard has no goroutine of its own: whichever caller serves its
// turn publishes the heartbeat: BusySince when a turn begins, LastTurn
// when it completes (two atomic stores per turn, only when a recorder
// is attached). The watchdog has no goroutine either, and no source to
// pull from: Judge(now, probes) is one pass over the shard probes it is
// handed, judged at that instant against the budgets below. In resd the
// service's sampler — the one goroutine that also ticks the SLO engine —
// reads the heartbeats into probes and calls Judge every CheckEvery; a
// test hands it probes at explicit instants. The budgets are constants:
//
//	stalled   a shard stuck inside one turn (or queued requests with no
//	          turn) for longer than StallAfter (2s)
//	degraded  a request queue at >= 3/4 capacity for QueueFullFor (1s;
//	          the time measured between the Judge calls that saw it
//	          there), a WAL fsync p99 over FsyncP99 (100ms), or reswire
//	          frame errors at more than FrameErrorBurst (64) per
//	          CheckEvery (250ms), the count between two Judge calls
//	          scaled by the interval measured between them
//
// The worst firing rule is the node state — healthy(0), degraded(1),
// stalled(2) — published as the resd_health_state gauge, served on
// /healthz's warn path (a 200 "warning: ..." body), and journaled on
// every transition. Recovery (the condition clearing) transitions back
// and is journaled too.
//
// A visible worsened state implies its evidence is on disk: Judge
// journals the transition and writes the bundle first and publishes the
// state (and its warning) last, so whoever reads State, /healthz or the
// gauge and then lists the bundles finds the capture that state
// triggered, unless the rate limit suppressed it. The price is that a
// worsening becomes visible one bundle write later — 2–3 ms measured on
// a live service, against a 250 ms check period and a 2 s stall budget.
// The watchdog tests assert the bundle as soon as they see the state,
// without sleeping, and /debug/flight reads the state before it lists
// the bundles, so what `obscheck -flight` fetches obeys the same rule.
//
// # Bundles
//
// When the state worsens — or on demand via Capture or
// POST /debug/flight/capture — the recorder writes a diagnostic bundle
// into Config.Dir: a directory named flight-<unixms>-<seq> holding
//
//	manifest.json    name, reason, time, state, file list
//	journal.json     the full journal tail at capture time
//	goroutines.txt   goroutine dump (pprof debug=2)
//	heap.pprof       heap profile
//	metrics.prom     a full metrics exposition snapshot
//	traces.json      the admission trace ring
//	node.json        the node snapshot every surface renders, plus WALInfo
//	config.json      the effective service configuration
//
// Bundles are written into a hidden temp directory and renamed into
// place, so any visible bundle is complete. Automatic captures share
// one rate limit, one per BundleMinInterval (a minute): the watchdog's
// and those other triggers ask for through AutoCapture (resdsrv's SLO
// page hook). The interval is measured on the trigger's clock: the
// instant Judge was handed, or the wall clock for AutoCapture. A
// flapping rule or objective cannot fill the disk;
// suppressed captures are counted and journaled. On-demand captures
// (Capture, the HTTP POST) are never rate-limited. Retention keeps the
// newest BundleKeep (8) bundles and deletes older ones.
//
// # Surfaces
//
// Handler serves GET /debug/flight (state, warning, journal tail, the
// newest sampled admission traces, bundle inventory; ?n= bounds both
// tails), POST /debug/flight/capture, and bundle file fetches. It is the
// trace ring's remote reader: the wire protocol has no trace op. resdsrv
// mounts it next to /metrics when -flightdir or -obs is set;
// `obscheck -flight` fetches and validates the whole surface.
// The Queue type is the journal's bounded non-blocking dispatcher,
// used by resd to run ObsConfig.SlowLog callbacks off the admission
// path.
package flight
