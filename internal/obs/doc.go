// Package obs is the service's zero-dependency observability layer: a
// metrics registry with lock-free instruments, a Prometheus-text-format
// exposition endpoint, and the HTTP surface (metrics, health, pprof)
// that `resdsrv -obs` serves.
//
// # Design
//
// The service's hot paths are single-writer shard turns that already
// publish load summaries through plain atomics once per batch. The
// registry leans on that instead of fighting it: instruments are
// individual atomic words (Counter, Gauge) or atomic bucket arrays
// (Histogram, on stats' exponential bucket geometry), and anything a
// loop already publishes is surfaced with CounterFunc/GaugeFunc closures
// read at scrape time — snapshot-on-scrape, zero coordination on the
// admission path. Dynamic label sets (one series per live tenant, per
// shard quantile) register Collect callbacks that walk the owning
// subsystem's snapshot API when a scrape arrives.
//
// A nil *Registry is the no-op sink: every constructor still returns a
// working instrument, so instrumented code is written once and the
// "observability off" configuration costs a nil check and dead atomics
// that are never read. bench/'s durable-mixed measures the
// instrumented-vs-nil gap as a pair (obs.admit_overhead_ns beside its own
// spread, obs.admit_overhead_iqr_ns): 176–301 ns with an inter-quartile
// spread of 288–454 ns, that is, not resolved above noise on the
// recording host.
//
// # Exposition
//
// WritePrometheus renders text format 0.0.4: families in name order,
// # HELP and # TYPE once each, samples with deterministic label order,
// histograms exposed as summaries with quantile labels 0.5/0.9/0.99
// plus _count/_sum. ParseExposition is the strict inverse — stricter
// than scrapers require (contiguous families, declared-before-use, no
// duplicate series, trailing newline) — so the parser doubles as the
// writer's conformance test; CI's obs-smoke job feeds it a live scrape
// from a running resdsrv.
//
// The metric names the service exposes are tabulated in the resd
// package documentation (internal/resd/doc.go).
package obs
