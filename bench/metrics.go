package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions; a self-test holds the two together.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a caller of the service, an operator sizing a node
// and a reproducer of the paper's experiments see. Measured with tracing
// off, reported on every workload. The 99th percentile is not among
// them: this sandbox's host takes the virtual processors away for 1-4 ms
// several times a second, which is about 5% of the time, so every
// percentile from the 90th up measures the host (README.md, "What was
// demoted"). It is reported with the per-layer metrics, unbounded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer is the traced run's ledger, layer names being the repo's
// packages. A metric of a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"latency_paced_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},

	{"index.findslot_ns", "ns", "lower"},
	{"index.commit_ns", "ns", "lower"},
	{"index.release_ns", "ns", "lower"},
	{"index.canplace_ns", "ns", "lower"},
	{"index.availableat_ns", "ns", "lower"},
	{"index.clone_ms", "ms", "lower"},
	{"index.calls_per_admit", "count", "lower"},
	{"index.segments", "count", "lower"},
	{"index.bytes_per_resv", "B", "lower"},
	{"index.allocs_per_op", "count", "lower"},
	{"index.busy_share", "ratio", "lower"},

	{"resd.admit_ns", "ns", "lower"},
	{"resd.cancel_ns", "ns", "lower"},
	{"resd.query_ns", "ns", "lower"},
	{"resd.handoff_ns", "ns", "lower"},
	{"resd.ops_per_batch", "count", "higher"},
	{"resd.queue_depth_max", "count", "lower"},
	{"resd.shard_tries_per_admit", "count", "lower"},
	{"resd.reject_share", "ratio", "lower"},
	{"resd.allocs_per_op", "count", "lower"},

	{"tenant.acquire_ns", "ns", "lower"},
	{"tenant.denied_share", "ratio", "lower"},

	{"wal.append_ns", "ns", "lower"},
	{"wal.append_commit_ns", "ns", "lower"},
	{"wal.fsyncs_per_op", "count", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.fsync_p99_us", "us", "lower"},
	{"wal.overhead_ns", "ns", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"wal.synced_throughput_per_s", "1/s", "higher"},

	{"reswire.encode_ns", "ns", "lower"},
	{"reswire.decode_ns", "ns", "lower"},
	{"reswire.frame_bytes", "B", "lower"},
	{"reswire.ping_rtt_us", "us", "lower"},
	{"reswire.admit_rtt_us", "us", "lower"},
	{"reswire.transport_us", "us", "lower"},
	{"reswire.allocs_per_rtt", "count", "lower"},
	{"reswire.pipeline_gain", "ratio", "higher"},

	{"obs.admit_overhead_ns", "ns", "lower"},
	{"obs.admit_overhead_iqr_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},

	{"sched.schedule_ms", "ms", "lower"},
	{"sched.index_share", "ratio", "lower"},
	{"sched.makespan_ratio", "ratio", "lower"},

	{"gen.lag_p99_us", "us", "lower"},
	{"gen.inflight_max", "count", "lower"},
	{"gen.over_limit_share", "ratio", "lower"},
	{"gen.stream_hash", "hash", "lower"},
	{"gen.paced_valid", "count", "higher"},
	{"proc.fail_share", "ratio", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_pause_max_us", "us", "lower"},
	{"proc.cpu_s_per_kop", "s", "lower"},
	{"proc.trace_overhead_share", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// report turns measured values into the defined metric set; a metric
// nothing measured reads 0 (its layer is not on the workload's path).
func (v values) report(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
