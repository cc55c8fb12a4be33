// Package repro is a production-quality Go reproduction of
//
//	Lionel Eyraud-Dubois, Grégory Mounié, Denis Trystram,
//	"Analysis of Scheduling Algorithms with Reservations", IPDPS 2007.
//
// The repository implements the paper's model (rigid parallel jobs on m
// identical processors around advance reservations), the algorithm family
// it analyses (LSRC list scheduling, FCFS, conservative and EASY
// back-filling, shelf packing), exact solvers and lower bounds used as
// ratio references, every adversarial construction from the proofs, a
// workload substrate (SWF + synthetic), a discrete-event simulator, and an
// experiment harness that regenerates all four figures and every claim.
//
// All placement machinery runs against the profile.CapacityIndex seam,
// with two interchangeable backends: a two-level index (internal/restree)
// that keeps the segments in flat 64-slot leaves under a sorted directory
// with each leaf's min and max capacity — a mutation edits one leaf,
// admission and earliest-fit step over whole leaves, and nothing is
// allocated in steady state — and the flat sorted-array Timeline
// (internal/profile), the readable reference the other is checked
// against. The service runs on the tree; the paper CLIs (ressched,
// ressim, examples/quickstart, examples/grid) take -backend={tree,array},
// default tree, so that one instance can be run under both and the
// schedules diffed. The backends are proven equivalent by a differential
// fuzz harness and compared by the root-level BenchmarkCapacityIndex
// (the tree is ahead at every size, 7× at 10^3 and 600× at 10^5
// reservations; the figure is read from go test -bench, bench/ measures
// the tree alone). LSRC asks the index only about
// jobs that can start — one AvailableAt per event, a min-width tournament
// over the priority list, FindSlot as a not-before memo — so a call costs
// O(n log n) plus O(log n) per job started or blocked at an event, 4
// index calls per job without reservations, instead of O(events ×
// pending).
//
// On top of that seam sits internal/resd, the concurrent
// reservation-admission service: S shards, each one cluster partition
// owning its own CapacityIndex with one writer at a time and no
// goroutine of its own (callers combine: whoever finds the shard idle
// serves its queue, own admission first), requests group-committed in
// batches per turn, and admissions routed to the least-loaded shard
// whose lock is free (committed area) with the paper's α-admission rule
// enforced per shard. There is one admission call, Admit, taking one
// Request (tenant, ready time, width, duration, deadline), and it is
// deadline-aware: it rejects with ErrDeadline when the earliest feasible
// start on the α-prefix exceeds the caller's deadline, instead of pushing
// the reservation back. Every index has one owner and no lock: a
// snapshot is a clone the caller owns, and since reads never write, any
// number of goroutines may read it. bench/ (BENCHMARK.json) prices the
// service on two cores and four shards; ROADMAP.md ("Where the time goes")
// has the latest figures. See examples/service for a walkthrough and the
// internal/resd package comment for the shard and placement model.
//
// A reservation is placed once: the shard that admits it holds it until
// it is cancelled, and skew between shards is handled where that choice
// is made, by sending each admission to the least-loaded shard first.
// Every admission records its start-time slack, surfaced as p99 per
// shard (the SLO face of the α rule); the client measures it per tenant.
//
// Admission is multi-tenant: internal/tenant partitions the reservable
// α-prefix between tenants — each tenant's area budget is its share of
// the global capacity — with lock-free accounting beside the shard load
// summaries, and rejects an over-budget admission with resd.ErrQuota.
// Budgets compose with, never replace, the paper's α rule: quotas only
// decide which tenant spends the prefix the α rule left reservable. See
// internal/tenant, and cmd/resload -tenants for the walkthrough; the
// accounting costs an admission 125–150 ns (tenant.acquire_ns on
// bench/'s durable-mixed).
//
// The outermost layer is the wire: internal/reswire serves resd over TCP
// with a length-prefixed binary protocol of one frozen revision: nine
// ops (Reserve, Cancel, Query, Snapshot, Ping, Stats, QuotaGet,
// QuotaSet, Watch), a version byte that must match, and a
// connection dropped with ErrVersion when it does not. The request path
// is
//
//	client → reswire frames → server dispatch → resd shard queue (combiner) → CapacityIndex
//
// with typed error codes end to end (a REJECTED_DEADLINE frame surfaces
// as resd.ErrDeadline on the remote side, a REJECTED_QUOTA as
// tenant.ErrQuota) and write sharing on both halves: the pipelining
// client multiplexes concurrent callers over a few connections, callers
// that send together share a socket write, and the server answers the
// requests of one socket read in one write, so under load a syscall
// carries many messages and the shards see the same group-commit
// batches as in-process traffic. cmd/resdsrv is the server binary (-quotas loads a tenant
// budget spec); cmd/resload replays synthetic or SWF-derived request
// streams against either an in-process service or a live server (-addr),
// optionally as a zipf-skewed multi-tenant mix (-tenants/-skew),
// reporting wire-level latency percentiles per tenant with rejections
// split from hard errors; deterministic equivalence tests pin both
// modes to identical placements and an SWF trace replay to the serial
// admission baseline. FuzzWireCodec hardens the decoder against hostile
// bytes, and bench/'s wire-small prices the layer against admit-small in
// process (figures in ROADMAP.md), with reswire.pipeline_gain the
// pipelined over the unpipelined throughput.
// cmd/resdsrv with cmd/resload -addr is the walkthrough.
//
// See README.md for a tour. The root-level benchmarks (bench_test.go)
// regenerate one figure each:
//
//	go test -bench=. -benchmem
package repro
