package resd

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/profile"
	"repro/internal/slo"
	"repro/internal/tenant"
	"repro/internal/wal"

	// Registers "tree", the capacity index every shard runs on unless
	// Config.Backend names another.
	_ "repro/internal/restree"
)

// Errors returned by the service.
var (
	// ErrClosed reports an operation on a closed service.
	ErrClosed = errors.New("resd: service closed")
	// ErrNeverFits reports that no shard can ever admit the request: the
	// width plus the α head-room exceeds the partition size.
	ErrNeverFits = errors.New("resd: request can never be admitted")
	// ErrUnknownID reports a Cancel for a reservation that is not active
	// (never admitted, or already cancelled).
	ErrUnknownID = errors.New("resd: unknown reservation id")
	// ErrBadRequest reports malformed request parameters.
	ErrBadRequest = errors.New("resd: bad request")
	// ErrDeadline reports a deadline rejection: the request is feasible,
	// but the earliest admissible start on every shard's α-prefix lies
	// after the caller's deadline. The service rejects instead of pushing
	// the reservation arbitrarily far back, so callers get an SLA-style
	// accept/reject answer they can act on (retry elsewhere, relax the
	// deadline, shrink the request).
	ErrDeadline = errors.New("resd: earliest feasible start exceeds deadline")
)

// ErrQuota is tenant.ErrQuota re-exported: a quota rejection. The
// request was α-feasible but its tenant has exhausted its budgeted share
// of the reservable prefix; no capacity is consumed. errors.Is works
// against either name, on both sides of the wire (reswire's
// REJECTED_QUOTA code).
var ErrQuota = tenant.ErrQuota

// Refusal is an admission the service said no to, as a value: which rule
// refused, on which shard, and the figures the rule compared. Nothing is
// formatted until Error is called, so a refusal costs the shard's turn one
// allocation and the text is paid for by whoever prints it.
type Refusal struct {
	// Kind is the rule that refused — ErrNeverFits, ErrDeadline or
	// ErrQuota — and what errors.Is matches.
	Kind error
	// Shard is the partition that answered; for a quota refusal Admit
	// made at the door, before asking any, the one placement ranked
	// first, where the refusal is booked; NoShard when Q plus the floor
	// exceeds M. Q, Dur and Deadline are the request's, Floor the α
	// head-room a shard keeps free.
	Shard    int
	Q        int
	Dur      core.Time
	Deadline core.Time
	Floor    int
	// Earliest is the earliest start the shard could have given (no
	// meaning under ErrNeverFits, nor for a quota refusal at the door: no
	// shard was asked).
	Earliest core.Time
	// Quota is whose budget refused and by how much, under ErrQuota
	// (zero otherwise); errors.As finds it as a *tenant.QuotaError.
	Quota tenant.QuotaError
	// M is the machine size, under NoShard (zero otherwise).
	M int
}

// NoShard is Refusal.Shard when Admit refused before asking one: Q plus
// the floor exceeds M, so no shard could ever answer differently.
const NoShard = -1

func (r *Refusal) Error() string {
	switch {
	case r.Shard == NoShard:
		return fmt.Sprintf("%v: q=%d with α-floor %d exceeds m=%d", r.Kind, r.Q, r.Floor, r.M)
	case r.Kind == ErrDeadline:
		return fmt.Sprintf("%v: earliest feasible start %v > deadline %v (q=%d dur=%v, shard %d)",
			ErrDeadline, r.Earliest, r.Deadline, r.Q, r.Dur, r.Shard)
	case r.Kind == ErrQuota:
		return fmt.Sprintf("shard %d: %v", r.Shard, &r.Quota)
	}
	return fmt.Sprintf("%v: q=%d dur=%v with α-floor %d on shard %d", r.Kind, r.Q, r.Dur, r.Floor, r.Shard)
}

// Is matches the rule that refused.
func (r *Refusal) Is(target error) bool { return target == r.Kind }

// Unwrap exposes an ErrQuota refusal's Quota to errors.As.
func (r *Refusal) Unwrap() error {
	if r.Kind != ErrQuota {
		return nil
	}
	return &r.Quota
}

// NoDeadline as a Request.Deadline disables the deadline check: any
// admissible start, however late, is accepted.
const NoDeadline = core.Infinity

// ID identifies an admitted reservation service-wide. The shard that
// admitted it is encoded in the top bits and holds it until it is
// cancelled, so Cancel routes without a global table.
type ID uint64

const shardBits = 16

// Shard returns the index of the shard that admitted the reservation.
func (id ID) Shard() int { return int(id >> (64 - shardBits)) }

func makeID(shard int, seq uint64) ID {
	return ID(uint64(shard)<<(64-shardBits) | (seq & (1<<(64-shardBits) - 1)))
}

// Reservation is an admitted reservation: the handle the service returns
// from Admit and accepts in Cancel.
type Reservation struct {
	// ID is the service-wide identity (encodes the shard).
	ID ID
	// Shard is the cluster partition holding the reservation.
	Shard int
	// Start is the admitted start time (earliest admissible >= the
	// request's ready time).
	Start core.Time
	// Dur is the reservation length.
	Dur core.Time
	// Procs is the reservation width.
	Procs int
}

// Config parameterises a Service.
type Config struct {
	// Shards is the number of cluster partitions (default 1).
	Shards int
	// M is the processor count of each partition (required, >= 1).
	M int
	// Alpha is the admission rule: every shard keeps at least ⌊Alpha·M⌋
	// processors free of reservations at all times (0 disables the rule,
	// 1 rejects everything — the paper's α ∈ (0,1]). Must lie in [0,1].
	Alpha float64
	// Backend names the capacity index each shard runs on, as registered
	// with profile.RegisterBackend. "" is "tree" (internal/restree), the
	// one the service is meant to run on; "array" (profile.Timeline, the
	// readable reference) and wrappers a test or the benchmark registers
	// are there to be compared against it.
	Backend string
	// Batch caps how many requests one turn group-commits on a shard whose
	// log fsyncs, where a combiner serves one turn and hands its role on
	// (default 64). Anywhere else a turn is one request, served by its
	// caller under the shard's lock, and Batch does not matter.
	Batch int
	// Placement accepts "" and "least-loaded", the one routing rule there
	// is (see doc.go, "Placement"), and refuses anything else. It is kept
	// only because bench/service.go sets it, and is deleted with the
	// benchmark's next revision (ROADMAP item 1).
	Placement string
	// Pre is a set of pre-existing reservations (maintenance windows,
	// prior commitments) committed to every shard before the service
	// starts, exempt from the α rule. An oversubscribing Pre fails New.
	Pre []core.Reservation
	// Quotas, when non-nil, partitions the reservable α-prefix between
	// tenants: every admission is charged against its tenant's budget in
	// the registry, refused with ErrQuota when that would exceed it, and
	// credited back on Cancel. Pre reservations are exempt, like they are
	// from the α rule. Nil disables quota enforcement; per-tenant shard
	// stats are kept either way.
	Quotas *tenant.Registry
	// Obs attaches the service to the observability layer: metric
	// registration at New and sampled admission tracing (see ObsConfig).
	// Nil disables both — the hot path then pays only dead nil checks.
	Obs *ObsConfig
	// turnHook, when non-nil, is called by whoever serves a shard's turn,
	// at its top, after the heartbeat's busy stamp. Unexported: a test
	// seam for wedging a shard deliberately (the watchdog tests), set
	// before New so turns read it without a race.
	turnHook func(shard int)
	// WAL, when non-nil, makes every shard durable: admission decisions
	// are written to a per-shard write-ahead log in WAL.Dir (committed
	// once per shard turn, one fsync per turn under the default sync
	// mode, which group-commits) and New replays whatever the directory holds,
	// rebuilding the exact pre-crash state — IDs, placements, books and
	// quota charges included — before serving. See internal/wal and this
	// package's doc.go for the format and the recovery invariants. Nil
	// keeps the service purely in-memory.
	WAL *wal.Options
}

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > 1<<shardBits {
		return c, fmt.Errorf("%w: Shards=%d outside [1,%d]", ErrBadRequest, c.Shards, 1<<shardBits)
	}
	if c.M < 1 || c.M > math.MaxInt32 {
		// The upper bound is the width a live record (and a leaf of the
		// tree index) stores: an int32.
		return c, fmt.Errorf("%w: M=%d outside [1,%d]", ErrBadRequest, c.M, math.MaxInt32)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("%w: Alpha=%v outside [0,1]", ErrBadRequest, c.Alpha)
	}
	if c.Backend == "" {
		c.Backend = "tree"
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Batch < 1 {
		return c, fmt.Errorf("%w: Batch=%d, need >= 1", ErrBadRequest, c.Batch)
	}
	if c.Placement != "" && c.Placement != "least-loaded" {
		return c, fmt.Errorf("%w: Placement=%q, the one placement is \"least-loaded\"", ErrBadRequest, c.Placement)
	}
	if c.WAL != nil {
		w, err := c.WAL.Normalize()
		if err != nil {
			return c, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		c.WAL = &w
	}
	return c, nil
}

// Service is the sharded reservation-admission service. All methods are
// safe for concurrent use; Close must be called exactly once, after which
// every method returns ErrClosed.
type Service struct {
	cfg    Config
	floor  int // ⌊α·M⌋ processors every shard keeps free of reservations
	shards []*shard

	// tracer samples Admit calls into a bounded ring (nil when
	// Config.Obs leaves tracing off).
	tracer *tracer

	// flight is the attached flight recorder and journal its event
	// journal (both nil when ObsConfig.Flight is unset). New attaches the
	// recorder to the shard heartbeats.
	flight  *flight.Recorder
	journal *flight.Journal

	// slo is the attached SLO engine and sloBook its request-level
	// decision counters (both nil when ObsConfig.SLO is unset). The book
	// is written by Admit on caller goroutines — see internal/resd/slo.go
	// for why the per-shard counters cannot serve the deadline
	// objectives.
	slo     *slo.Engine
	sloBook *sloBook

	// sampler judges the node with the recorder and the engine (nil
	// when neither is set). Close stops it before the shards close, so
	// neither judges a service shutting down.
	sampler *sampler

	// walInfo records what WAL recovery found and did at New (zero when
	// the service runs without a WAL).
	walInfo WALInfo

	// walLogs holds each shard's log handle as it was at New, for
	// scrape/watch reads: a turn nils sh.wlog when the log fails or
	// closes, and other readers must not race that write (a degraded
	// shard's frozen counters are still worth exposing). Index i is
	// shard i; nil when the service runs without a WAL.
	walLogs []*wal.Log
}

// New builds the shards (each pre-loaded with cfg.Pre) and returns the
// running service. With Config.WAL set, New then recovers whatever the
// log directory holds — replaying each shard's snapshot and records into
// that shard's book and re-charging the quota registry — so the returned
// service is the pre-crash service, continued. Recovery runs to
// completion before New returns; a server should not report ready until
// it does. Every shard is read before anything is written, so a directory
// New refuses — migration state (wal.ErrRetired), a damaged snapshot, a
// log that contradicts itself — is left as found.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		floor:  int(cfg.Alpha * float64(cfg.M)),
		tracer: newTracer(cfg.Obs),
	}
	if cfg.Obs != nil && cfg.Obs.Flight != nil {
		s.flight = cfg.Obs.Flight
		s.journal = s.flight.Journal()
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, cfg, s.floor)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	if s.walInfo, s.walLogs, err = recoverShards(cfg, s.shards, s.journal); err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		sh.journal = s.journal
	}
	if cfg.Obs != nil {
		s.registerObs()
	}
	var judges []judge
	if cfg.Obs != nil && cfg.Obs.SLO != nil {
		j, err := s.attachSLO(cfg.Obs.SLO)
		if err != nil {
			s.Close()
			return nil, err
		}
		judges = append(judges, j)
	}
	if s.flight != nil {
		// After attachSLO: a bundle's Node reads s.slo.
		s.flight.Attach(flight.Sources{
			Traces: func(n int) any { return s.Traces(n) },
			Node: func() any {
				return struct {
					WAL  WALInfo      `json:"wal"`
					Node NodeSnapshot `json:"node"`
				}{s.walInfo, s.Node()}
			},
		})
		judges = append(judges, judge{flight.CheckEvery, func(now time.Time) {
			s.flight.Judge(now, s.flightProbes())
		}})
	}
	if len(judges) > 0 {
		s.sampler = startSampler(judges)
	}
	return s, nil
}

// judge is one passive judge of the node and the period it asks to be
// run at: every CheckEvery the flight recorder's Judge over the shard
// probes, every Period the SLO engine's Tick over readSLO's sample. Its
// run reads the node and hands the reading over.
type judge struct {
	every time.Duration
	run   func(now time.Time)
}

// sampler is the one goroutine that runs the judges. It ticks at the
// shortest period and runs each judge on the first tick at or after its
// due instant; the next due instant is the previous one plus the judge's
// period (past any it overran), so no cadence drifts and none runs more
// often than its period asks. The judges read published atomics only and
// the sampler sends no request to a shard, so it judges a wedged one.
type sampler struct {
	judges     []judge
	due        []time.Time
	stop, done chan struct{}
	stopOnce   sync.Once
}

func startSampler(judges []judge) *sampler {
	sp := &sampler{judges: judges, due: make([]time.Time, len(judges)),
		stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	for i, j := range judges {
		sp.due[i] = start.Add(j.every)
	}
	go sp.loop()
	return sp
}

func (sp *sampler) loop() {
	defer close(sp.done)
	every := sp.judges[0].every
	for _, j := range sp.judges {
		every = min(every, j.every)
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case <-tick.C:
		}
		sp.pass(time.Now())
	}
}

// pass runs every judge due at now and moves its due instant past now.
// The loop runs it at each tick; a test that has closed the sampler runs
// it at explicit instants.
func (sp *sampler) pass(now time.Time) {
	for i, j := range sp.judges {
		if now.Before(sp.due[i]) {
			continue
		}
		j.run(now)
		sp.due[i] = sp.due[i].Add((now.Sub(sp.due[i])/j.every + 1) * j.every)
	}
}

// close stops the sampler and waits out its last pass. Safe on nil and
// more than once.
func (sp *sampler) close() {
	if sp != nil {
		sp.stopOnce.Do(func() { close(sp.stop) })
		<-sp.done
	}
}

// flightProbes reads every shard's heartbeat for the flight watchdog:
// published atomics only, no request to the shard — Judge can judge a
// wedged one.
func (s *Service) flightProbes() []flight.ShardProbe {
	out := make([]flight.ShardProbe, len(s.shards))
	for i, sh := range s.shards {
		p := flight.ShardProbe{
			Shard:    i,
			QueueLen: int(sh.depth.Load()),
			QueueCap: sh.batch,
		}
		if v := sh.lastBeat.Load(); v != 0 {
			p.LastTurn = epoch.Add(time.Duration(v))
		}
		if v := sh.busySince.Load(); v != 0 {
			p.BusySince = epoch.Add(time.Duration(v))
		}
		if s.walLogs != nil && s.walLogs[i] != nil {
			p.FsyncP99 = time.Duration(s.walLogs[i].FsyncQuantile(0.99))
		}
		out[i] = p
	}
	return out
}

// Shards returns the number of partitions.
func (s *Service) Shards() int { return len(s.shards) }

// M returns the per-partition processor count.
func (s *Service) M() int { return s.cfg.M }

// Floor returns the α-rule capacity floor ⌊α·M⌋ enforced on every shard.
func (s *Service) Floor() int { return s.floor }

// Quotas returns the quota registry the service enforces, or nil when
// quotas are disabled.
func (s *Service) Quotas() *tenant.Registry { return s.cfg.Quotas }

// Cancel releases an admitted reservation, returning its capacity to the
// shard that admitted it — the one the ID names. Cancelling an unknown or
// already-cancelled ID returns ErrUnknownID.
func (s *Service) Cancel(id ID) error {
	if id.Shard() >= len(s.shards) {
		return fmt.Errorf("%w: %#x names shard %d of %d", ErrUnknownID, uint64(id), id.Shard(), len(s.shards))
	}
	_, err := s.shards[id.Shard()].do(request{kind: opCancel, id: id}, true)
	return err
}

// Query returns the capacity available at time t on every shard (index i
// is shard i). The per-shard answers are each exact at the instant their
// shard served them; across shards the slice is a loose
// snapshot, as any cross-partition view under concurrent traffic must be.
func (s *Service) Query(t core.Time) ([]int, error) {
	if t < 0 {
		return nil, fmt.Errorf("%w: Query(%v)", ErrBadRequest, t)
	}
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		resp, err := sh.do(request{kind: opQuery, ready: t}, true)
		if err != nil {
			return nil, err
		}
		out[i] = resp.free
	}
	return out, nil
}

// Snapshot returns an independent copy of one shard's capacity index. The
// caller owns it: it may commit to it, and while nobody does, any number of
// goroutines may read it (profile.CapacityIndex). The copy is consistent
// (taken inside one of the shard's turns) and immediately stale,
// like any snapshot of a live system.
func (s *Service) Snapshot(shard int) (profile.CapacityIndex, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrBadRequest, shard, len(s.shards))
	}
	resp, err := s.shards[shard].do(request{kind: opSnapshot}, true)
	if err != nil {
		return nil, err
	}
	return resp.snap, nil
}

// ShardStats is one shard's load summary.
type ShardStats struct {
	// Active is the number of currently admitted reservations.
	Active int
	// CommittedArea is the processor-tick area held by active
	// reservations (excluding Pre).
	CommittedArea int64
	// Admitted, Cancelled and Rejected count operations since start
	// (Rejected counts α-rule/capacity rejections only).
	Admitted, Cancelled, Rejected uint64
	// RejectedDeadline counts deadline rejections: requests that were
	// feasible on the shard but whose earliest start exceeded the
	// caller's deadline.
	RejectedDeadline uint64
	// RejectedQuota counts quota rejections booked on the shard: a
	// request Admit refused at the door when placement ranked this shard
	// first, or one whose charge failed here after the shard found it a
	// start. A refused request is booked once, so the sum over shards is
	// the service's quota refusals.
	RejectedQuota uint64
	// SlackP99 is the 99th-percentile start-time slack (admitted start −
	// ready time, in ticks) over the shard's admissions: the per-shard SLO
	// view of how far the α rule pushes work back. Estimated from an
	// exponential histogram — the reported value is at least the true p99
	// and less than twice it.
	SlackP99 core.Time
	// Batches and Ops count turns and requests served; Ops / Batches is
	// the realised group-commit factor. On a shard whose log does not
	// fsync every turn is one request, and Batches equals Ops.
	Batches, Ops uint64
}

// TenantStats is one tenant's load summary: each shard's part is read
// inside one of the shard's turns, and TenantTotals sums the parts.
type TenantStats struct {
	// Active is the number of this tenant's currently held reservations
	// on the shard.
	Active int
	// CommittedArea is the processor-tick area those reservations hold.
	CommittedArea int64
	// Admitted and Cancelled count this tenant's operations on the shard
	// since start. Its quota refusals are the registry's to count
	// (tenant.Usage.Rejected): most are made at the door, before any
	// shard is asked.
	Admitted, Cancelled uint64
}

// TenantTotals sums TenantStats across every shard: the service-wide
// per-tenant ledger as the shards see it (the quota registry keeps the
// same numbers lock-free; the two views must agree whenever the service
// is quiescent, which the stress tests assert).
func (s *Service) TenantTotals() (map[string]TenantStats, error) {
	out := make(map[string]TenantStats)
	for _, sh := range s.shards {
		resp, err := sh.do(request{kind: opTenantStats}, true)
		if err != nil {
			return nil, err
		}
		for _, ts := range resp.tstats {
			tot := out[ts.name]
			tot.Active += ts.Active
			tot.CommittedArea = satAdd(tot.CommittedArea, ts.CommittedArea)
			tot.Admitted += ts.Admitted
			tot.Cancelled += ts.Cancelled
			out[ts.name] = tot
		}
	}
	return out, nil
}

// WALInfo reports what WAL recovery found and did when the service was
// built (Enabled false when the service runs without a WAL).
func (s *Service) WALInfo() WALInfo { return s.walInfo }

// QueueDepths returns every shard's instantaneous queue depth (index i
// is shard i): the callers waiting for the shard, blocked on its lock or
// queued for a combiner — an atomic read, no request to the shard. The
// live-telemetry view of admission back-pressure.
func (s *Service) QueueDepths() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = int(sh.depth.Load())
	}
	return out
}

// WALShardStats is one shard's live write-ahead-log counters, as
// WALStats reports them for scrapes and Watch subscribers.
type WALShardStats struct {
	// Shard is the partition index.
	Shard int
	// Gen is the log generation currently being appended to.
	Gen uint64
	// Bytes and Records count appends since the log opened.
	Bytes, Records uint64
	// Fsyncs counts group-commit fsyncs; Snapshots counts completed
	// snapshot writes (log truncations).
	Fsyncs, Snapshots uint64
	// FsyncP99 is the 99th-percentile fsync latency in nanoseconds.
	FsyncP99 int64
	// Failed counts WAL write failures (a failed log degrades the shard
	// to non-durable; its other counters freeze at that point).
	Failed uint64
}

// WALStats returns every durable shard's live log counters, read from
// published atomics (nil when the service runs without a WAL). A shard
// that degraded after a log failure keeps reporting its frozen counters
// with Failed > 0.
func (s *Service) WALStats() []WALShardStats {
	if s.walLogs == nil {
		return nil
	}
	out := make([]WALShardStats, 0, len(s.walLogs))
	for i, wl := range s.walLogs {
		if wl == nil {
			continue
		}
		st := wl.Stats()
		out = append(out, WALShardStats{
			Shard:     i,
			Gen:       st.Gen,
			Bytes:     st.Bytes,
			Records:   st.Records,
			Fsyncs:    st.Fsyncs,
			Snapshots: st.Snapshots,
			FsyncP99:  wl.FsyncQuantile(0.99),
			Failed:    s.shards[i].walFailed.Load(),
		})
	}
	return out
}

// TenantLoad is one tenant's budget usage: the part of tenant.Usage a
// remote router weighs placements by.
type TenantLoad struct {
	Tenant                 string
	Budget, Used, Inflight int64
}

// NodeSnapshot is the node as every telemetry surface renders it: the
// Stats op, Watch frames, /metrics, flight bundles and resdsrv's status
// lines all read these rows, so they agree whenever the service is
// quiescent. Node builds it from published atomics; the cumulative
// counters are for diffing successive snapshots.
type NodeSnapshot struct {
	// Every shard holds M processors and keeps Floor of them free of
	// reservations (the α rule): M−Floor is the reservable width.
	M, Floor int
	// Queue[i] is shard i's queue depth (QueueDepths), Shards[i] its
	// counters (Stats).
	Queue  []int
	Shards []ShardStats
	// The quota registry's tenants, every durable shard's log (WALStats),
	// the admissions sampled into the trace ring and those of them at or
	// over the slow threshold, and the SLO engine's states: each empty
	// when the service runs without that layer.
	Tenants                   []TenantLoad
	WAL                       []WALShardStats
	TracesSampled, TracesSlow uint64
	SLO                       []slo.State
}

// Node takes one NodeSnapshot. Like Stats it sends no request to a shard,
// so a wedged shard cannot hold it up, and across shards it is as loose.
func (s *Service) Node() NodeSnapshot {
	n := NodeSnapshot{M: s.cfg.M, Floor: s.floor, Queue: s.QueueDepths(), Shards: s.Stats(), WAL: s.WALStats()}
	if reg := s.cfg.Quotas; reg != nil {
		for _, u := range reg.Tenants() {
			n.Tenants = append(n.Tenants, TenantLoad{Tenant: u.Tenant, Budget: u.Budget, Used: u.Used, Inflight: u.Inflight})
		}
	}
	if s.tracer != nil {
		n.TracesSampled, n.TracesSlow = s.tracer.sampled.Load(), s.tracer.slowSeen.Load()
	}
	if s.slo != nil {
		n.SLO = s.slo.States()
	}
	return n
}

// Dump returns every reservation currently live on one shard, sorted by
// ID. The list is consistent (taken inside one of the shard's turns). It is the recovery oracle's view:
// a service restarted over its WAL must Dump identically to the service
// that wrote it.
func (s *Service) Dump(shard int) ([]Reservation, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("%w: shard %d of %d", ErrBadRequest, shard, len(s.shards))
	}
	resp, err := s.shards[shard].do(request{kind: opDump}, true)
	return resp.live, err
}

// Stats returns per-shard load summaries from the atomically published
// counters (no request to the shards; the numbers may trail in-flight
// batches by one turn).
func (s *Service) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// Close shuts every shard down with a closing turn that seals the shard's
// log; the shards close in parallel (on min(Shards, GOMAXPROCS)
// goroutines), and Close returns once every one has. On a shard whose log
// fsyncs, requests queued ahead of the close are answered; on any other, a
// caller still waiting for the shard's lock when the closing turn runs
// gets ErrClosed. Every later request fails with ErrClosed.
func (s *Service) Close() {
	// Stop judging first: a pass racing shutdown could judge a closing
	// shard stalled or journal a spurious SLO transition from a
	// half-drained service. Detach then clears the recorder's health, so
	// it can serve a later service.
	s.sampler.close()
	s.flight.Detach()
	parallel(len(s.shards), func(i int) { s.shards[i].do(request{kind: opClose}, true) })
	s.tracer.close()
}
