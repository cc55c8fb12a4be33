package resd

import (
	"strconv"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// ObsConfig attaches a Service to the observability layer. Registry
// receives the service's metric families at New; TraceSample enables
// admission tracing. The full exposition-name table is in this package's
// doc.go.
type ObsConfig struct {
	// Registry is the metrics sink. Nil disables metrics (instrumented
	// code still runs against no-op instruments).
	Registry *obs.Registry
	// TraceSample records one in N Admit calls into the trace ring of
	// TraceRingLen records (1 = every request, 0 = tracing disabled).
	TraceSample int
	// SlowThreshold marks a sampled request slow when its arrival-to-
	// decision latency reaches the threshold (0 = no slow accounting).
	SlowThreshold time.Duration
	// SlowLog, when set, receives each slow sampled request — the
	// slow-request log hook.
	//
	// Contract: the callback is invoked asynchronously, on a single
	// dispatcher goroutine, through a bounded non-blocking queue — it
	// may therefore be arbitrarily slow (write to a socket, take a
	// lock) without ever stalling an admission. The cost of that
	// safety is loss under burst: when slow requests arrive faster
	// than the callback drains them, excess records are dropped and
	// counted (resd_slow_log_dropped_total). Callbacks still in the
	// queue when the service closes may run after Close returns, or
	// not at all.
	SlowLog func(TraceRecord)
	// Flight attaches the node's flight recorder, the one way a journal
	// reaches the service: it journals operational events (replay
	// verdicts, WAL damage, log rotations and snapshots, tenant-book
	// overflow, slow turns) through it, every shard publishes heartbeats
	// from its turns, and every flight.CheckEvery until Close the
	// service's sampler reads those heartbeats into shard probes and hands
	// them to the recorder's Judge. Nil disables flight recording; see
	// internal/flight.
	Flight *flight.Recorder
	// SLO, when non-nil, attaches the error-budget engine to the
	// service: every spec period until Close the same sampler reads the
	// request-level decision counts (service-wide and per tenant a
	// deadline objective names) and the merged slack and turn-latency
	// histograms into one slo.Sample and hands it to the engine's Tick.
	// The engine should be built over the same Registry and the flight
	// recorder's journal so its families and transition events land
	// beside the service's own. See internal/slo.
	SLO *slo.Engine
}

// column is one family: a column of the rows one of the NodeSnapshot
// readers returns (QueueDepths, Stats, WALStats, the quota registry's
// Tenants), emitted under the row's label and then labels.
type column[T any] struct {
	kind       obs.Kind
	name, help string
	val        func(*T) float64
	labels     []obs.Label
}

// shardColumns are the families of Stats' rows.
var shardColumns = []column[ShardStats]{
	{obs.KindGauge, "resd_shard_active", "Currently admitted reservations on the shard.",
		func(st *ShardStats) float64 { return float64(st.Active) }, nil},
	{obs.KindGauge, "resd_shard_committed_area", "Processor-tick area held by the shard's active reservations.",
		func(st *ShardStats) float64 { return float64(st.CommittedArea) }, nil},
	{obs.KindCounter, "resd_shard_batches_total", "Turns (group commits) served.",
		func(st *ShardStats) float64 { return float64(st.Batches) }, nil},
	{obs.KindCounter, "resd_shard_ops_total", "Requests served across all batches.",
		func(st *ShardStats) float64 { return float64(st.Ops) }, nil},
	{obs.KindGauge, "resd_shard_ops_per_batch", "Realised group-commit factor: ops / batches.",
		func(st *ShardStats) float64 {
			if st.Batches == 0 {
				return 0
			}
			return float64(st.Ops) / float64(st.Batches)
		}, nil},
	{obs.KindCounter, "resd_admitted_total", "Admitted reservations.",
		func(st *ShardStats) float64 { return float64(st.Admitted) }, nil},
	{obs.KindCounter, "resd_cancelled_total", "Cancelled reservations.",
		func(st *ShardStats) float64 { return float64(st.Cancelled) }, nil},
	{obs.KindCounter, "resd_rejected_total", "Rejected admission attempts by reason.",
		func(st *ShardStats) float64 { return float64(st.Rejected) }, []obs.Label{obs.L("reason", "capacity")}},
	{obs.KindCounter, "resd_rejected_total", "Rejected admission attempts by reason.",
		func(st *ShardStats) float64 { return float64(st.RejectedDeadline) }, []obs.Label{obs.L("reason", "deadline")}},
	{obs.KindCounter, "resd_rejected_total", "Rejected admission attempts by reason.",
		func(st *ShardStats) float64 { return float64(st.RejectedQuota) }, []obs.Label{obs.L("reason", "quota")}},
}

// walColumns are the families of WALStats' rows.
var walColumns = []column[WALShardStats]{
	{obs.KindCounter, "resd_wal_bytes_total", "Bytes appended to the shard's write-ahead log.",
		func(w *WALShardStats) float64 { return float64(w.Bytes) }, nil},
	{obs.KindCounter, "resd_wal_records_total", "Records appended to the shard's write-ahead log.",
		func(w *WALShardStats) float64 { return float64(w.Records) }, nil},
	{obs.KindCounter, "resd_wal_fsyncs_total", "Group-commit fsyncs on the shard's log.",
		func(w *WALShardStats) float64 { return float64(w.Fsyncs) }, nil},
	{obs.KindCounter, "resd_wal_snapshots_total", "Completed snapshot writes (log truncations).",
		func(w *WALShardStats) float64 { return float64(w.Snapshots) }, nil},
	{obs.KindCounter, "resd_wal_failures_total", "WAL write failures (a failed log degrades the shard to non-durable).",
		func(w *WALShardStats) float64 { return float64(w.Failed) }, nil},
	{obs.KindGauge, "resd_wal_generation", "Log generation currently being appended to.",
		func(w *WALShardStats) float64 { return float64(w.Gen) }, nil},
}

// tenantColumns are the families of the quota registry's Tenants rows.
var tenantColumns = []column[tenant.Usage]{
	{obs.KindGauge, "tenant_quota_budget", "Per-tenant budgeted share of the reservable prefix.",
		func(u *tenant.Usage) float64 { return float64(u.Budget) }, nil},
	{obs.KindGauge, "tenant_quota_used", "Per-tenant committed area currently charged.",
		func(u *tenant.Usage) float64 { return float64(u.Used) }, nil},
	{obs.KindGauge, "tenant_quota_inflight", "Per-tenant admissions currently held.",
		func(u *tenant.Usage) float64 { return float64(u.Inflight) }, nil},
	{obs.KindCounter, "tenant_quota_admitted_total", "Per-tenant admissions since start.",
		func(u *tenant.Usage) float64 { return float64(u.Admitted) }, nil},
	{obs.KindCounter, "tenant_quota_rejected_total", "Per-tenant quota rejections since start.",
		func(u *tenant.Usage) float64 { return float64(u.Rejected) }, nil},
}

// collectColumns registers each column's family: a scrape takes one
// rows() per family and emits every row under label(i, row).
func collectColumns[T any](reg *obs.Registry, rows func() []T, label func(i int, row *T) obs.Label, cols []column[T]) {
	for _, c := range cols {
		reg.Collect(c.kind, c.name, c.help, func(e obs.Emitter) {
			rs := rows()
			for i := range rs {
				e.Emit(c.val(&rs[i]), append([]obs.Label{label(i, &rs[i])}, c.labels...)...)
			}
		})
	}
}

// shardRow labels row i with shard i.
func shardRow[T any](i int, _ *T) obs.Label { return obs.L("shard", strconv.Itoa(i)) }

// registerObs wires every layer's metrics into the registry. Called once
// from New, after the shards exist; every closure reads published
// atomics, so a scrape never queues a request on a shard.
func (s *Service) registerObs() {
	reg := s.cfg.Obs.Registry
	if reg == nil {
		return
	}
	collectColumns(reg, s.QueueDepths, shardRow, []column[int]{{obs.KindGauge, "resd_shard_queue_depth",
		"Callers waiting for the shard: blocked on its lock or in its queue.", func(q *int) float64 { return float64(*q) }, nil}})
	collectColumns(reg, s.Stats, shardRow, shardColumns)
	if s.walInfo.Enabled {
		collectColumns(reg, s.WALStats, func(_ int, w *WALShardStats) obs.Label { return obs.L("shard", strconv.Itoa(w.Shard)) }, walColumns)
		// s.walLogs, not sh.wlog: the combiner nils sh.wlog if the log
		// fails, and scrapes must not race that write (the frozen telemetry
		// of a degraded shard is still worth exposing).
		reg.Collect(obs.KindGauge, "resd_wal_snapshot_age_seconds",
			"Seconds since the shard's newest durable snapshot (since Open when none).",
			func(e obs.Emitter) {
				for i, wl := range s.walLogs {
					if wl != nil {
						e.Emit(time.Since(time.Unix(0, wl.Stats().LastSnapshot)).Seconds(), obs.L("shard", strconv.Itoa(i)))
					}
				}
			})
		reg.Collect(obs.KindSummary, "resd_wal_fsync_ns",
			"Group-commit fsync latency on each shard's log, nanoseconds.",
			func(e obs.Emitter) {
				for i, wl := range s.walLogs {
					if wl == nil {
						continue
					}
					lbl := obs.L("shard", strconv.Itoa(i))
					e.Emit(float64(wl.FsyncQuantile(0.5)), lbl, obs.L("quantile", "0.5"))
					e.Emit(float64(wl.FsyncQuantile(0.9)), lbl, obs.L("quantile", "0.9"))
					e.Emit(float64(wl.FsyncQuantile(0.99)), lbl, obs.L("quantile", "0.99"))
					e.EmitSuffix("_count", float64(wl.FsyncCount()), lbl)
				}
			})
		reg.GaugeFunc("resd_wal_replay_seconds",
			"How long WAL recovery took when the service was built.",
			s.walInfo.Replay.Seconds)
		reg.GaugeFunc("resd_wal_replayed_records",
			"Log records replay applied when the service was built.",
			func() float64 { return float64(s.walInfo.Records) })
		// Recovery damage report: what replay found wrong with the logs
		// when the service was built. All constants after New, but exposed
		// as families so a scrape (or an alert) sees a restart that lost
		// data without anyone reading the startup banner.
		reg.GaugeFunc("resd_wal_replayed_snapshots",
			"Snapshots replay loaded when the service was built.",
			func() float64 { return float64(s.walInfo.Snapshots) })
		reg.GaugeFunc("resd_wal_torn_tails",
			"Torn (mid-write crash) record tails replay discarded across shards.",
			func() float64 { return float64(s.walInfo.Torn) })
		reg.GaugeFunc("resd_wal_corrupt_records",
			"Corrupt (checksum-failed) records replay stopped at across shards.",
			func() float64 { return float64(s.walInfo.Corrupt) })
		reg.GaugeFunc("resd_wal_dropped_bytes",
			"Log bytes replay could not apply (torn tails and corrupt suffixes).",
			func() float64 { return float64(s.walInfo.DroppedBytes) })
	}
	// Slack quantiles, computed from each shard's atomic histogram when
	// scraped; the _count is the admission count it was built from.
	reg.Collect(obs.KindSummary, "resd_slack_ticks",
		"Start-time slack (admitted start − ready, ticks) of admissions.",
		func(e obs.Emitter) {
			for i := range s.shards {
				sh := s.shards[i]
				lbl := obs.L("shard", strconv.Itoa(i))
				e.Emit(float64(sh.slack.Quantile(0.5)), lbl, obs.L("quantile", "0.5"))
				e.Emit(float64(sh.slack.Quantile(0.9)), lbl, obs.L("quantile", "0.9"))
				e.Emit(float64(sh.slack.Quantile(0.99)), lbl, obs.L("quantile", "0.99"))
				e.EmitSuffix("_count", float64(sh.admitted.Load()), lbl)
			}
		})
	if s.tracer != nil {
		reg.CounterFunc("resd_traces_sampled_total",
			"Admissions sampled into the trace ring.", s.tracer.sampled.Load)
		reg.CounterFunc("resd_slow_requests_total",
			"Sampled admissions at or over the slow threshold.", s.tracer.slowSeen.Load)
		if s.tracer.slowQ != nil {
			reg.CounterFunc("resd_slow_log_dropped_total",
				"Slow-request records dropped because the SlowLog callback queue was full.",
				s.tracer.slowQ.Dropped)
		}
	}
	if q := s.cfg.Quotas; q != nil {
		reg.GaugeFunc("tenant_quota_capacity",
			"Reservable α-prefix area the quota registry budgets against.",
			func() float64 { return float64(q.Capacity()) })
		collectColumns(reg, q.Tenants, func(_ int, u *tenant.Usage) obs.Label { return obs.L("tenant", u.Tenant) }, tenantColumns)
	}
}
