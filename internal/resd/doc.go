// Package resd is the reservation-admission service: the paper's offline
// model turned into a concurrent subsystem that admits a live stream of
// advance-reservation requests against a sharded cluster.
//
// # Shard model
//
// A Service owns S shards, each modelling one cluster partition of M
// processors. A shard's entire mutable state — its profile.CapacityIndex,
// the table of admitted reservations, load counters — has one owner at a
// time, and a shard has no goroutine of its own: the callers serve it, one
// turn at a time. A turn applies its requests (Admit, Cancel, Query,
// Snapshot) against the index, commits the log once, publishes the
// shard's load summary once, and only then releases the answers. The α
// rule is decided per partition, so a turn needs nothing but exclusive use
// of its own shard. How a caller gets that depends on one predicate: does
// the shard's write-ahead log fsync (wal.Log.Syncs)?
//
// Without a log, or with one that never fsyncs (wal.SyncNone: an append
// is a copy into the page cache and a commit costs nothing), a batch buys
// nothing, so a turn is one call: the caller takes the shard's mutex,
// serves its own request in its own goroutine, and lets go. The index is
// touched under that mutex, and a contending caller waits inside
// sync.Mutex, which spins and then parks.
//
// On a shard whose log fsyncs (wal.SyncBatch, the default), a turn costs
// one fsync however many requests share it, and sharing it is the point.
// A request joins the shard's queue under the mutex; the caller that finds
// no combiner at work becomes it and serves the queue, its own request
// first, while every other caller parks until its answer is filled in. The
// combiner first yields the processor until a round adds no request — the
// group commit — then takes up to Config.Batch requests, serves them in one
// turn outside the mutex, and hands the role to the oldest waiter, so that
// its own caller's next request can share the next fsync and no caller
// pays for more than one batch of other callers' work. A log that fails
// mid-turn stops fsyncing: the shard hands the role on until its queue is
// empty and serves under the mutex from then on. The same predicate
// decides whether placement may pass the shard over while another caller
// holds it (below) and whether a reswire server keeps a goroutine per
// request or lets each connection's reader serve.
//
// Shutdown is a request like any other: Close sends it to every shard.
// On a shard that fsyncs, what was queued ahead of it is answered for
// real; on one that does not, a caller still waiting for the mutex when
// the closing turn runs gets ErrClosed. Either way every later request
// gets ErrClosed, and the closing turn seals the log.
//
// The index is internal/restree's. Config.Backend is a seam, not a choice
// offered to operators: it names any index registered with
// profile.RegisterBackend, which is how the tests run the same streams on
// profile.Timeline ("array", the readable reference) and demand identical
// placements, and how the benchmark wraps the index in a call recorder.
//
// # The shard's book
//
// Beside the index a shard keeps what it has admitted: one 32-byte,
// pointer-free record per live reservation — id, start, length, width
// and the position of its tenant's cell — in a dense slab, found by id
// through an open-addressed index of 4-byte slab positions (live.go),
// and one cell per tenant name holding that tenant's counters and its
// area, which only the shard's owner touches. Areas
// are tenant.Area (saturating), and the shard's and each cell's running
// sums are kept exactly in 128 bits and reported saturated at MaxInt64,
// so an endless reservation neither wraps a sum nor is lost from it when
// cancelled; recovery derives each book's area from its live records. An admission
// resolves its tenant name to the cell once; a cancel reaches the cell
// through the record and hashes no string. The index is not a Go map
// because of what a shard does to it: ids are minted in sequence and
// most are cancelled soon after, at constant occupancy, which fills a
// tombstoning map with dead slots until it rehashes in place, over and
// over. Here a deletion moves the slab's last record into the hole and
// shifts the rest of the index's run back, so nothing is left behind,
// capacity moves only when the population outgrows it, and the collector
// has no pointer in either to trace. A record costs its 32 bytes and 5–11
// of index, where slots of whole records cost 43–85. Slab order is not
// state: it depends on the order of cancels, and nothing reads it —
// Dump sorts by id, the snapshot encoder sorts its live list, and
// recovery sorts the slab by id once replay is done. An id does not name its
// position either: ids stay the monotonic shard|sequence pairs the log
// and the snapshot record, so that a recovered service mints the ids an
// unstopped one would; a position in the id would make free-list order
// part of the recovered state. Names past tenant.MaxAccounts share the
// OverflowTenant cell; only their records keep the name they were
// charged under, in a side map, so that Cancel credits the right account.
//
// # Placement
//
// Admit ranks the shards least committed area first, ties to the lower
// index, reading each shard's published area from an atomic, so ranking
// takes no lock; the shard re-validates when it serves the request, which
// makes a stale rank harmless to correctness (a shard never over-admits, a
// request at worst lands on a busier shard). It is not harmless to speed:
// a shard publishes its area once per turn, so every caller ranking
// between two turns reads the same numbers and picks the same minimum,
// and if each then waited for that shard they would convoy behind one
// lock while the other shards idle. So Admit walks the rank by lock
// state: it tries each shard's lock in rank order without waiting
// (sync.Mutex.TryLock), serves on the first it gets, and waits for the
// first-ranked only when every one is held. A deadline or α refusal drops
// that shard and the walk runs again over the rest, in rank order; a
// quota refusal or ErrClosed ends it. No background goroutine takes a
// shard's lock (the sampler and the snapshot writer read atomics), so a
// serial caller never meets a held lock and lands on the exact minimum of
// committed area, deterministically, which is what the FCFS-replay and
// recovery oracles rely on. A shard whose log fsyncs is never passed
// over: there callers queueing together is the group commit, and
// spreading them buys more fsyncs of fewer records each.
//
// # Admission rule
//
// Each shard enforces the paper's α-restriction (§4.2): a reservation is
// admitted only if, over its whole window, the capacity remaining after
// the admission stays at least ⌊α·M⌋ — the same floor
// workload.ReservationStream uses when drawing α-restricted streams. The
// earliest admissible start is found with a single FindSlot for
// q + ⌊α·M⌋ processors, so the α head-room falls out of the ordinary
// earliest-fit machinery.
//
// # The Request API
//
// Admit is the single admission entry point: one Request names the
// tenant the area is charged to, the ready time, the width, the
// duration, and the latest tolerable start (NoDeadline for "however
// late"). The same struct crosses the wire unchanged through
// reswire.Client.Admit, so in-process and remote callers share one
// admission vocabulary. Request.Deadline is literal: the zero value is a
// deadline of tick 0, so a caller with no deadline says NoDeadline.
//
// # Deadline rejection
//
// A finite Request.Deadline extends the α rule with an SLA answer: the
// caller names the latest start it can tolerate, and a shard whose
// earliest feasible start on the α-prefix lands after that deadline
// rejects with ErrDeadline instead of pushing the reservation
// arbitrarily far back. The two
// rejection modes are complementary faces of the paper's parameter:
// ErrNeverFits is the static face of α (the width q plus the ⌊α·M⌋
// head-room can never fit inside M, at any time), while ErrDeadline is its
// dynamic face — α shrinks the prefix reservations may occupy, which
// pushes earliest starts later, and the deadline turns that lateness into
// an explicit reject the caller can act on. Smaller α (a wider admissible
// prefix) trades job-stream guarantees for fewer deadline rejections;
// larger α does the reverse. The service tries every shard in placement
// order before rejecting, prefers reporting ErrDeadline over ErrNeverFits
// (it tells the caller the request was feasible, just not soon enough),
// and counts deadline rejections separately in ShardStats.RejectedDeadline.
// A rejected request consumes no capacity.
//
// Every refusal is a *Refusal — the rule (Kind, which errors.Is matches),
// the shard (NoShard when Q plus the floor exceeds M and none was asked;
// for a quota refusal at the door, the shard ranked first), the
// request's figures, the earliest start found and, under ErrQuota,
// the tenant.QuotaError with the budget's figures — and formats nothing:
// Error renders the text when a log line or a wire Detail asks for it,
// outside the shard's turn.
//
// # Multi-tenant quotas
//
// Config.Quotas plugs a tenant.Registry in front of admission: every
// Admit (an empty Request.Tenant names the default tenant) is charged
// against its tenant's budgeted share of the reservable α-prefix area, a
// share of the whole capacity. The α rule is a question only a shard's
// index answers; the budget is service-wide, and the registry alone
// answers it. So Admit resolves the tenant's tenant.Account once and,
// once placement has ranked the shards, refuses at the door — no shard
// turn — a request whose area (tenant.Area, saturating) exceeds what is
// left of the budget, with ErrQuota (wire: REJECTED_QUOTA), booked on the
// shard ranked first. The request carries the account to the shard, whose
// charge, a CAS against the account's atomics, stays the authority: it
// refuses what a concurrent admission spent after the door, ending the
// walk since budgets are global, and it runs after α and the deadline, so
// a doomed request never burns budget. Cancel credits the area back
// through the account its tenant cell keeps. A turn applies its requests
// in arrival order, quotas or not. Quota refusals are counted once per
// request, in ShardStats.RejectedQuota and per tenant in
// tenant.Usage.Rejected; what a tenant holds is in the registry's
// lock-free accounts (what quota decisions read) and in the shards'
// tenant cells (TenantTotals sums them), and the stress tests
// assert the two agree. The quota layer may gate placement but never
// perturb it — a single tenant with a full budget replays to
// bit-identical sched.FCFS placements.
//
// # Placed once
//
// A reservation is bound to its shard when it is admitted and stays
// there until it is cancelled: an ID's shard bits are its home for life,
// which is all Cancel needs to route it. Skew between shards is handled
// where the binding is made, at placement, which routes every admission
// to the least committed area among the shards free to serve it at once,
// and nothing re-decides the shard afterwards. A shard's admission cost barely depends on
// how much it holds (internal/restree steps over whole leaves), so what
// skew costs is reservable α-prefix area stranded on the idle shards, and
// that is a question of where requests are sent first.
//
// # Start-time slack: the SLO metric
//
// Every admission records its start-time slack (admitted start − ready
// time): how far the α rule pushed the work back. Each shard keeps an
// O(1) atomic exponential histogram anyone may read, its quantiles
// computed when asked for, and surfaces the 99th percentile as
// ShardStats.SlackP99 (and over the wire in the Stats op), so operators
// see SLO degradation directly rather than inferring it from rejection
// counts. Per-tenant slack is measured by the client (cmd/resload
// reports it per tenant). The histograms are
// cumulative over the process lifetime; an attached SLO engine
// (ObsConfig.SLO) additionally answers windowed percentiles over its
// budget window — resd_slack_ticks_window — so a burst an hour ago
// stops dominating today's p99.
//
// # Durability and recovery
//
// Config.WAL gives every shard a write-ahead log (internal/wal): each
// turn copies its decisions into the shard's mapped log segment while it
// applies them — into the page cache, where a process crash cannot take
// them back — and under wal.SyncBatch the whole group-committed batch is
// fsynced once before any of its replies are released. Durability rides
// the turn the shard already takes; it never adds a per-admission
// syscall. The two record types mirror the shard's two
// transitions:
//
//	admit (TAdmit)    admission committed: the canonical Request plus assigned ID and start
//	cancel (TCancel)  release of an admitted reservation
//
// Every Options.SnapEvery records the shard snapshots its full state
// (reservation book, tenant accounts), rotates to a fresh log generation
// and deletes the generations the snapshot made redundant, bounding both
// disk and replay time.
//
// New builds the shards, then replays before serving. Each shard loads
// its newest decodable snapshot into its own book and applies the
// surviving log suffix through the two book transitions its turns use,
// book for an admit and unbook for a cancel; the slot search, the quota
// charge, the log append and the index edit stay in the turn. Once every
// shard is read, each commits the reservations that survived replay to
// the index and re-charges their quota, one at a time in ascending id
// order, whatever order the log holds them in: the order fixes the
// recovered tree's shape, and with it the recovered heap. The invariants
// the recovery tests pin:
//
//   - Exactness: the recovered service is bit-identical to the
//     pre-crash one — same IDs, same placements, same tenant books — on
//     the tree and on the array reference, with or without a snapshot
//     anchor, and new admissions never re-mint a recovered ID.
//   - Crash tails are silent: the zeros a killed process leaves after
//     its last whole frame (the unwritten rest of the mapped chunk) are
//     truncated and reported nowhere, and a frame cut mid-copy is
//     truncated off the disk, not just out of the replay (WALInfo.Torn
//     counts it) — so the verdict is stable across restarts and the
//     tail can never be reread as mid-log corruption after newer
//     generations hold acknowledged records. Any damage earlier than
//     the tail — a CRC mismatch, a torn frame or zeros in a
//     pre-rotation generation — keeps the
//     longest intact prefix, repairs the directory to match (suffix
//     truncated, later generations quarantined), and surfaces in
//     WALInfo.Corrupt/DroppedBytes instead of failing the boot; a log
//     that contradicts itself (a cancel for an ID never admitted) does
//     fail New, because it means the writer, not the disk, was wrong.
//   - A damaged snapshot fails New unless the logs before it rebuild
//     it. A snapshot is the only copy of what it held once the
//     generations before it are deleted, so New refuses with
//     wal.ErrCorrupt, naming the file and leaving the directory as
//     found; booting would serve only the later records and the boot
//     snapshot would delete the evidence. Where an older anchor's logs
//     are all there (a crash before the pruning) replay is whole and
//     the journal carries a warning for the shard.
//   - Migration state is refused, not repaired. Record types 3–7 and
//     the snapshot slots beside them are retired (internal/wal): an
//     intact move record, a pending copy, an open out, or a live
//     reservation on a shard other than the one its ID names fails New
//     with wal.ErrRetired, naming shard, file and record type. The
//     shard's files are not repaired and no boot generation is opened
//     (every shard is read before any log is), so the directory stays
//     readable by the build that wrote it. Migration counters in a
//     snapshot whose moves all finished are dropped.
//   - Quota is recharged, not re-checked: recovery re-charges each
//     tenant's registry account for the reservations that survived
//     replay (they were admitted once; rejecting them now would lose
//     committed state).
//
// Replay rebuilds durable state only. Process-lifetime series —
// rejection counters, slack and turn-latency histograms, sampled traces —
// restart at zero, exactly as obs counters do across any restart.
// Service.WALInfo reports what replay found (records, snapshots, torn/
// corrupt damage, duration); resdsrv prints it as the
// boot banner and holds /healthz at 503 until replay finishes.
// bench/'s durable-mixed prices the machinery: wal.append_ns (copied
// into the mapped segment, not synced, ≈ 0.13 µs a record) and
// wal.overhead_ns against the same admission without a log, which under
// batch fsync is one whole fsync (≈ 45 µs on a two-vCPU ext4 host) —
// the physical durable floor.
//
// # Observability
//
// Config.Obs attaches the service to the internal/obs registry. Every
// closure the service registers reads published atomics and sends no
// request to a shard, so scrapes cost the hot path nothing;
// per-request admission tracing is sampled (ObsConfig.TraceSample) into
// a bounded ring served by Service.Traces, the flight recorder's
// /debug/flight and its bundles, with a threshold-configurable
// slow-request hook. The families the
// service exposes:
//
//	resd_shard_queue_depth{shard}          gauge    callers waiting for the shard (its lock or queue)
//	resd_shard_active{shard}               gauge    admitted reservations
//	resd_shard_committed_area{shard}       gauge    processor-tick area held
//	resd_shard_batches_total{shard}        counter  turns (group commits)
//	resd_shard_ops_total{shard}            counter  requests served
//	resd_shard_ops_per_batch{shard}        gauge    realised group-commit factor
//	resd_admitted_total{shard}             counter  admissions
//	resd_cancelled_total{shard}            counter  cancellations
//	resd_rejected_total{shard,reason}      counter  reason ∈ capacity|deadline|quota (quota: door refusals on the shard ranked first)
//	resd_slack_ticks{shard,quantile}       summary  start-time slack p50/p90/p99
//	resd_loop_turn_ns{shard,quantile}      summary  batch apply+publish latency
//	resd_traces_sampled_total              counter  admissions sampled into the ring
//	resd_slow_requests_total               counter  sampled traces over the slow threshold
//	tenant_quota_capacity                  gauge    registry capacity
//	tenant_quota_budget{tenant}            gauge    budgeted share
//	tenant_quota_used{tenant}              gauge    area currently charged
//	tenant_quota_inflight{tenant}          gauge    admissions currently held
//	tenant_quota_admitted_total{tenant}    counter  admissions
//	tenant_quota_rejected_total{tenant}    counter  quota rejections, at the door and at the charge
//
// A durable service (Config.WAL) adds the write-ahead-log families: the
// per-shard log counters, the fsync-latency summary, and the replay
// report — the gauges are WALInfo frozen at New, so a scrape or an
// alert sees a restart that found damage without anyone reading the
// boot banner:
//
//	resd_wal_bytes_total{shard}            counter  log bytes appended
//	resd_wal_records_total{shard}          counter  log records appended
//	resd_wal_fsyncs_total{shard}           counter  group-commit fsyncs
//	resd_wal_snapshots_total{shard}        counter  snapshot writes (log truncations)
//	resd_wal_failures_total{shard}         counter  write failures (shard degraded to non-durable)
//	resd_wal_generation{shard}             gauge    log generation being appended to
//	resd_wal_snapshot_age_seconds{shard}   gauge    age of the newest durable snapshot
//	resd_wal_fsync_ns{shard,quantile}      summary  group-commit fsync latency p50/p90/p99
//	resd_wal_replay_seconds                gauge    how long boot replay took
//	resd_wal_replayed_records              gauge    records replay applied
//	resd_wal_replayed_snapshots            gauge    snapshots replay loaded
//	resd_wal_torn_tails                    gauge    torn mid-write tails discarded
//	resd_wal_corrupt_records               gauge    checksum-failed records replay stopped at
//	resd_wal_dropped_bytes                 gauge    bytes replay could not apply
//
// An ObsConfig carrying an SLO engine (ObsConfig.SLO; see internal/slo
// for objective and burn-rate-rule semantics) adds the alerting
// families. The service counts each admission decision once — at the
// Request level, on the caller's goroutine, because a single request's
// placement walk can collect deadline rejections on several shards
// before one admits it, so summing per-shard counters would over-count
// — and every spec period the service's sampler reads those books plus
// the merged slack and turn-latency histograms into one slo.Sample and
// hands it to the engine's Tick, so neither ever queues a request on a
// shard. Tenant-scoped objectives carry a tenant label:
//
//	resd_slo_attainment{objective}               gauge    good fraction over the budget window
//	resd_slo_error_budget_remaining{objective}   gauge    1 − errors/budget; negative = overspent
//	resd_slo_burn_rate{objective,window}         gauge    budget-burn multiple per rule window
//	resd_slo_alert_state{objective}              gauge    0 ok, 1 warn, 2 page
//	resd_slo_alert_transitions_total{objective}  counter  alert state changes
//	resd_slack_ticks_window{quantile}            summary  service-wide slack over the budget window
//	resd_loop_turn_ns_window{quantile}           summary  turn latency over the budget window
//
// The reswire server and client add their own families (reswire_*; see
// internal/reswire), and resdsrv serves the whole set plus net/http/pprof
// on its -obs listener.
//
// # Node snapshot
//
// Service.Node returns a NodeSnapshot: M and Floor, then one row per
// shard from QueueDepths and Stats, the quota registry's tenants, the
// WALStats rows, the trace counters and the SLO engine's States — the
// readers that already existed, composed, from published atomics only.
// Every surface renders it and nothing else: the per-shard and per-log
// families above are columns of the same Stats and WALStats rows, a
// Watch frame is the whole snapshot, a flight bundle's node.json is one
// beside WALInfo, and resdsrv's shutdown and /healthz lines read it. So on a quiesced service they agree field for field,
// which internal/reswire's TestNodeSurfacesAgree checks.
//
// # Heartbeats and node health
//
// ObsConfig.Flight arms the black-box flight recorder (internal/flight)
// around the service. Every shard turn stamps two atomics — busy-since
// when it begins, last-beat when its replies are released — and the
// sampler reads those stamps, the shard's queue depth (callers waiting
// for it) and the WAL fsync p99 of every shard into one flight.ShardProbe
// each, all from published atomics.
//
// One goroutine judges the node: the service's sampler, started by New
// when ObsConfig.Flight or ObsConfig.SLO is set and stopped first by
// Close. It ticks at the shorter of flight.CheckEvery and the engine's
// Period, and its pass runs each judge on the first tick at or after
// that judge's due instant, so each keeps its own cadence without
// drifting. A judge's run takes the reading and hands it over — the
// probes to the recorder's Judge, readSLO's sample to the engine's Tick —
// with the instant. Both judges are pure: they hold no source, goroutine
// or clock of their own, and the sampler never waits on a shard, so it
// judges a wedged one. A test closes the sampler and runs its pass at
// explicit instants.
//
// A turn wedged past the stall budget (or a backed-up queue no turn is
// draining) drives the node health healthy → degraded → stalled, each transition journaled, surfaced on
// /healthz as a warning and as the resd_health_state gauge, and — on
// worsening — captured as an on-disk diagnostic bundle (goroutine dump,
// heap profile, metrics snapshot, journal tail, node snapshot, effective
// config). A turn slower than 100ms journals a slow-turn warning with
// its duration and batch size even when it never trips the watchdog.
//
// The same journal replaces the service's ad-hoc stderr prints: WAL
// write failures and replay verdicts, quota overflow-tenant activation
// all become structured events (flight_events_total{severity}) an operator
// reads from /debug/flight — see internal/flight's package doc for the
// journal format and the watchdog's exact rules. An ObsConfig carrying
// a SlowLog also gains resd_slow_log_dropped_total: the callback runs
// on a bounded dispatch queue (see the SlowLog field's contract), and
// the counter prices what a wedged or slow consumer missed.
//
// The package is exercised three ways: a determinism test replays a
// request stream serially through one shard and checks the placements are
// bit-for-bit the schedules sched.FCFS computes offline (with and without
// a quota registry); a stress test hammers a service from many goroutines
// under -race and asserts conservation of committed capacity, with a
// second stress pinning the quota invariant admitted-area ≤ budget at all
// times; and FuzzResdAdmission drives random op streams against a
// sequential oracle, as FuzzLiveTable does for the live table against
// the map it replaced. cmd/resload replays synthetic or SWF-derived streams
// at a target rate — optionally as a zipf-skewed multi-tenant mix — and
// reports throughput and latency percentiles per tenant; bench/
// (BENCHMARK.json) is where the service's throughput is recorded —
// admit-small and admit-large in process, durable-mixed with quotas and
// the log, tenant.acquire_ns for what the quota check costs.
package resd
