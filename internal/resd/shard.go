package resd

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// opKind discriminates shard requests.
type opKind uint8

const (
	opReserve opKind = iota
	opCancel
	opQuery
	opSnapshot
	opTenantStats
	opDump

	// opClose shuts the shard down (Service.Close): do stops accepting
	// requests the moment it is queued, so it is the last request the
	// shard serves, and applying it seals the log.
	opClose
)

// request is one operation submitted to a shard.
type request struct {
	kind     opKind
	tenant   string       // Reserve: accounting identity (never empty; "" is normalised upstream)
	ready    core.Time    // Reserve: earliest start; Query: probe instant
	q        int          // Reserve width
	dur      core.Time    // Reserve length
	deadline core.Time    // Reserve: latest admissible start (NoDeadline = unbounded)
	id       ID           // Cancel target
	trace    *TraceRecord // sampled admission trace, nil for the unsampled majority
}

// response carries the result back to the caller. Exactly one of the
// fields is meaningful per kind; err reports failure.
type response struct {
	resv   Reservation
	free   int
	snap   profile.CapacityIndex
	tstats map[string]TenantStats
	live   []Reservation
	err    error
}

// slot is one call's place in a shard's queue: the request going in, the
// response coming out, and the channel a caller that found a combiner at
// work parks on. The combiner sends true once resp is filled, false to
// hand the parked caller its role (see combine). One send answers each
// park, so a slot goes back to the pool with wake empty.
type slot struct {
	req  request
	resp response
	wake chan bool
}

var slotPool = sync.Pool{New: func() any { return &slot{wake: make(chan bool, 1)} }}

// active is a shard-local record of an admitted reservation. tenant is
// the accounting identity quota release uses; statKey is the (possibly
// overflow-bounded) per-shard book the admission was recorded under.
type active struct {
	start, dur core.Time
	q          int
	tenant     string
	statKey    string
}

// OverflowTenant is the per-shard book that absorbs tenant names beyond
// the tenant.MaxAccounts bound: the combiner-owned stats maps must not
// grow without limit just because a wire client cycles fresh names.
// Admission and quota accounting are unaffected — only per-name
// attribution in TenantStats degrades past the cap.
const OverflowTenant = "!overflow"

// tstatKey resolves which per-tenant book a name lands in, bounding the
// map like the registry bounds its accounts. The first time a shard
// falls back to the overflow book it journals the degradation: from
// that point per-name attribution is lossy, which an operator reading
// TenantStats should know without diffing map sizes.
func (sh *shard) tstatKey(name string) string {
	if _, ok := sh.tstats[name]; ok {
		return name
	}
	if len(sh.tstats) >= tenant.MaxAccounts {
		if !sh.overflowed {
			sh.overflowed = true
			sh.journal.RecordEvent(flight.Event{
				Sev: flight.Warn, Subsys: "resd", Shard: sh.id, Tenant: name,
				Msg: "tenant book overflow activated: per-name attribution degraded",
				KV:  []flight.KV{{K: "max_accounts", V: strconv.Itoa(tenant.MaxAccounts)}},
			})
		}
		return OverflowTenant
	}
	return name
}

// shard is one cluster partition: a capacity index plus the admission
// bookkeeping. It has no goroutine of its own: callers queue their
// requests under mu and one of them at a time — the combiner — serves
// the queue (see do and combine). Everything below the queue fields is
// owned by whoever holds that role; what other goroutines touch is the
// queue and the atomic counters.
type shard struct {
	id     int
	floor  int // α-rule head-room every admission must leave free
	batch  int
	quotas *tenant.Registry // nil = quota enforcement disabled

	mu        sync.Mutex
	queue     []*slot // waiting requests, oldest first
	combining bool    // some caller holds the combiner's role
	closed    bool    // opClose has been queued: do refuses from here on
	depth     atomic.Int64
	pending   []*slot // the turn being served (combiner-owned, like all below)

	idx    profile.CapacityIndex
	live   map[ID]active
	tstats map[string]TenantStats // per-tenant books
	// slack records the start-time slack of every admission. An atomic
	// obs.Histogram so Stats, scrapes and the SLO engine's snapshot ring
	// read quantiles and cumulative buckets without a request to the
	// shard; only the combiner writes it.
	slack   *obs.Histogram
	tslack  map[string]*slackHist // per-tenant slack, keyed like tstats
	nextSeq uint64
	area    int64 // running processor-tick area of live reservations

	// tenAreas mirrors the per-tenant committed area as atomics (one cell
	// per tstats book), written only by the combiner: the lock-free
	// per-tenant load summary the "pressure" placement policy routes by.
	tenAreas sync.Map // string → *atomic.Int64

	// fairOrder scratch, reused across turns so the soft-mode reorder
	// allocates nothing per turn (like pending).
	fairPos      []int
	fairReserves []*slot
	fairRatios   []float64
	fairOrderIdx []int

	// Load summary published once per turn (group commit): placement
	// policies and Stats read these without a request to the shard.
	activeCount   atomic.Int64
	committedArea atomic.Int64
	admitted      atomic.Uint64
	cancelled     atomic.Uint64
	rejected      atomic.Uint64
	rejectedDL    atomic.Uint64
	rejectedQuota atomic.Uint64
	batches       atomic.Uint64
	ops           atomic.Uint64

	// turnNs records each turn's apply+publish latency; nil without an
	// obs registry, which then costs one predicted branch per turn.
	turnNs *obs.Histogram

	// Flight recorder surface. journal is nil-safe (a shard without a
	// recorder records into nothing); when flightOn the combiner
	// publishes a heartbeat — busySince on entering a turn, lastBeat on
	// completing one, both unix nanoseconds — for the watchdog's
	// lock-free stall probes, and journals turns slower than
	// slowTurnThreshold. overflowed latches the tenant-book overflow
	// event. turnHook, set only by tests via the unexported Config
	// field, runs at the top of every turn.
	journal    *flight.Journal
	flightOn   bool
	lastBeat   atomic.Int64
	busySince  atomic.Int64
	overflowed bool
	turnHook   func(shard int)

	// Durability. wlog is the shard's write-ahead log (nil = in-memory
	// service); every state-changing op appends its record during apply
	// and the combiner group-commits once per turn, before the replies
	// are released. A WAL write failure degrades the shard to non-durable
	// (walFailed counts it) rather than taking admissions down with the
	// disk.
	wlog      *wal.Log
	snapEvery int
	snapBusy  atomic.Bool
	snapWG    sync.WaitGroup
	walFailed atomic.Uint64
}

// tenAreaCell returns the shard's atomic area mirror for one tenant book,
// creating it on first use. Written only by the combiner; read lock-free
// by the pressure placement policy.
func (sh *shard) tenAreaCell(statKey string) *atomic.Int64 {
	if v, ok := sh.tenAreas.Load(statKey); ok {
		return v.(*atomic.Int64)
	}
	v, _ := sh.tenAreas.LoadOrStore(statKey, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// tenantArea reads one tenant's committed area on this shard (0 when the
// tenant has never touched the shard).
func (sh *shard) tenantArea(name string) int64 {
	if v, ok := sh.tenAreas.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// newShard builds the partition's index (with the Pre reservations
// committed); the shard is ready for do when it returns. floor is the
// service-computed α head-room, passed in so the Reserve pre-check in
// Service and the enforcement here can never disagree. seed, when
// non-nil, is the shard's recovered pre-crash state (WAL replay): it is
// re-committed to the fresh index — placements land on the exact
// pre-crash profile — and a boot snapshot anchors the new log generation
// so the replayed generations can be truncated.
func newShard(id int, cfg Config, floor int, seed *shardSeed) (*shard, error) {
	idx, err := profile.IndexFromReservations(cfg.Backend, cfg.M, cfg.Pre)
	if err != nil {
		return nil, fmt.Errorf("resd: shard %d: %w", id, err)
	}
	sh := &shard{
		id:     id,
		floor:  floor,
		batch:  cfg.Batch,
		quotas: cfg.Quotas,
		idx:    idx,
		live:   make(map[ID]active),
		tstats: make(map[string]TenantStats),
		slack:  &obs.Histogram{},
		tslack: make(map[string]*slackHist),
	}
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		sh.turnNs = cfg.Obs.Registry.NewHistogram("resd_loop_turn_ns",
			"Turn latency (apply+publish of one batch), nanoseconds.",
			obs.L("shard", strconv.Itoa(id)))
	}
	if cfg.Obs != nil && cfg.Obs.Flight != nil {
		sh.flightOn = true
		sh.journal = cfg.Obs.Flight.Journal()
		// A fresh "beat" at creation: the watchdog's queued-but-no-turn
		// rule measures from here, so an idle-since-boot shard that
		// suddenly wedges is judged from boot, not from a zero time.
		sh.lastBeat.Store(time.Now().UnixNano())
	}
	sh.turnHook = cfg.turnHook
	if seed != nil {
		if err := sh.adoptSeed(cfg, seed); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// adoptSeed installs recovered state before the first request: log handle,
// sequence counter, books, counters, and every surviving reservation
// committed back onto the index. The pre-crash state was legal against
// the same Pre and M, so a commit failure here means the configuration
// shrank under the recovered load — an error, not a panic.
func (sh *shard) adoptSeed(cfg Config, seed *shardSeed) error {
	sh.wlog = seed.log
	sh.snapEvery = cfg.WAL.SnapEvery
	sh.nextSeq = seed.nextSeq
	sh.admitted.Store(seed.admitted)
	sh.cancelled.Store(seed.cancelled)
	sh.tstats = seed.books
	ids := make([]ID, 0, len(seed.live))
	for id := range seed.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := seed.live[id]
		if err := sh.idx.Commit(a.start, a.dur, a.q); err != nil {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x (start=%v dur=%v q=%d) no longer fits: %w",
				sh.id, uint64(id), a.start, a.dur, a.q, err)
		}
		sh.live[id] = a
		sh.area += int64(a.dur) * int64(a.q)
	}
	for name, ts := range sh.tstats {
		if ts.CommittedArea != 0 {
			sh.tenAreaCell(name).Store(ts.CommittedArea)
		}
	}
	sh.activeCount.Store(int64(len(sh.live)))
	sh.committedArea.Store(sh.area)
	// Anchor a snapshot of the recovered state so the generations replay
	// just consumed can be deleted. Written synchronously: by the time New
	// returns, recovery is complete and the old logs are gone. Skipped for
	// a state-free boot (nothing to anchor) and when snapshots are
	// disabled.
	if sh.snapEvery > 0 && (len(sh.live) > 0 || len(sh.tstats) > 0 || seed.admitted > 0) {
		gen, err := sh.wlog.Rotate()
		if err != nil {
			return fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
		if err := sh.wlog.WriteSnapshot(seed.bootSnapshot(sh.id, gen)); err != nil {
			return fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
	}
	return nil
}

// do submits one request and returns its response. The request joins the
// shard's queue; a caller that finds no combiner at work takes the role
// and serves the queue itself, its own request first, so a lone caller
// never leaves its goroutine. Any other caller parks until a combiner has
// answered it or named it the next combiner. Once opClose has been queued
// every do fails with ErrClosed.
func (sh *shard) do(req request) (response, error) {
	s := slotPool.Get().(*slot)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		slotPool.Put(s)
		return response{}, ErrClosed
	}
	s.req = req
	sh.closed = req.kind == opClose
	sh.queue = append(sh.queue, s)
	sh.depth.Store(int64(len(sh.queue)))
	lead := !sh.combining
	sh.combining = true
	sh.mu.Unlock()
	if lead || !<-s.wake {
		sh.combine(s)
	}
	resp := s.resp
	s.req, s.resp = request{}, response{}
	slotPool.Put(s)
	return resp, resp.err
}

// combine makes the caller the shard's single writer. self is at the
// head of the queue, so the first turn answers it. Without a log the
// combiner serves on while requests keep arriving, up to batch operations
// in all; then, or after one turn on a durable shard, the oldest waiter
// inherits the role. So no caller waits on more than one batch of other
// callers' work once answered, and a durable shard's combiner is back
// in time for its caller's next request to share the next log commit.
func (sh *shard) combine(self *slot) {
	// A durable turn costs one log commit however many requests share
	// it, and callers just answered need the processor to come back with
	// their next: yield until a round adds nothing. Without a log a batch
	// buys nothing and a yield costs a reschedule.
	if sh.wlog != nil {
		for n := int64(0); n < int64(sh.batch) && sh.depth.Load() > n; runtime.Gosched() {
			n = sh.depth.Load()
		}
	}
	sh.mu.Lock()
	for left := sh.batch; ; {
		n := min(len(sh.queue), left)
		sh.pending = append(sh.pending[:0], sh.queue[:n]...)
		sh.queue = sh.queue[:copy(sh.queue, sh.queue[n:])]
		sh.depth.Store(int64(len(sh.queue)))
		sh.mu.Unlock()
		left -= n

		sh.turn(self)

		sh.mu.Lock()
		if len(sh.queue) == 0 {
			sh.combining = false
			sh.mu.Unlock()
			return
		}
		if left == 0 || sh.wlog != nil {
			heir := sh.queue[0]
			sh.mu.Unlock()
			heir.wake <- false
			return
		}
	}
}

// turn applies sh.pending against the index, in fairOrder, publishes the
// load summary once, and only then releases the answers — the group
// commit that amortises the log write under load.
func (sh *shard) turn(self *slot) {
	if sh.flightOn {
		sh.busySince.Store(time.Now().UnixNano())
	}
	if sh.turnHook != nil {
		sh.turnHook(sh.id)
	}
	sh.fairOrder(sh.pending)
	var turnStart time.Time
	if sh.turnNs != nil {
		turnStart = time.Now()
	}
	for _, s := range sh.pending {
		if s.req.trace != nil {
			s.req.trace.BatchStart = time.Since(s.req.trace.Arrival)
		}
		s.resp = sh.apply(s.req)
	}
	// The group-commit durability point: every record the turn appended
	// is flushed (and fsynced, under SyncBatch) in one call before any
	// answer is released — callers never observe a success the log could
	// forget.
	if sh.wlog != nil {
		if err := sh.wlog.Commit(); err != nil {
			sh.walFail("commit", err)
		}
	}
	sh.publish(len(sh.pending))
	if sh.turnNs != nil {
		sh.turnNs.Observe(time.Since(turnStart).Nanoseconds())
	}
	// fairOrder permutes the turn, so the combiner knows its own slot by
	// identity. A woken caller may recycle its slot at once.
	for _, s := range sh.pending {
		if s != self {
			s.wake <- true
		}
	}
	if sh.flightOn {
		sh.beat(len(sh.pending))
	}
	sh.maybeSnapshot()
}

// slowTurnThreshold is the batch-turn anomaly budget: a turn that took
// longer than this is journaled (the whole shard was unavailable for
// the duration — every queued caller waited it out).
const slowTurnThreshold = 100 * time.Millisecond

// beat completes the heartbeat for one turn: journal the turn as an
// anomaly if it ran long, then publish "turn done, shard idle" for the
// watchdog's stall probes.
func (sh *shard) beat(ops int) {
	now := time.Now()
	if busy := sh.busySince.Load(); busy != 0 {
		if d := now.Sub(time.Unix(0, busy)); d >= slowTurnThreshold {
			sh.journal.Record(flight.Warn, "resd", sh.id, "slow batch turn",
				flight.KV{K: "turn", V: d.String()}, flight.KV{K: "ops", V: strconv.Itoa(ops)})
		}
	}
	sh.lastBeat.Store(now.UnixNano())
	sh.busySince.Store(0)
}

// report journals an event, or falls back to stderr when the shard has
// no recorder — the pre-flight behaviour for a bare service.
func (sh *shard) report(sev flight.Severity, subsys, msg string, kv ...flight.KV) {
	if sh.journal != nil {
		sh.journal.Record(sev, subsys, sh.id, msg, kv...)
		return
	}
	fmt.Fprintf(os.Stderr, "resd: shard %d: %s\n", sh.id, msg)
}

// fairOrder is soft-mode weighted fair share at the group-commit point:
// when the batch carries competing Reserve requests, they are permuted —
// among the Reserve positions only, every other op keeps its place — so
// the tenant with the lowest usage-to-budget ratio commits first and takes
// the earlier (cheaper) start times, DRF-style. The sort is stable, so
// same-tenant and equal-pressure requests keep their arrival order; with a
// single serial caller every batch holds one request and the ordering is a
// no-op, which is what preserves the serial-replay-equals-FCFS guarantee.
// Ratios are read once per batch from the registry's atomics: reads racing
// concurrent commits are as harmlessly stale as the placement policies'
// load summaries.
func (sh *shard) fairOrder(pending []*slot) {
	if sh.quotas == nil || sh.quotas.Mode() != tenant.Soft || len(pending) < 2 {
		return
	}
	pos := sh.fairPos[:0]
	for i, s := range pending {
		if s.req.kind == opReserve {
			pos = append(pos, i)
		}
	}
	sh.fairPos = pos
	if len(pos) < 2 {
		return
	}
	reserves := sh.fairReserves[:0]
	ratios := sh.fairRatios[:0]
	order := sh.fairOrderIdx[:0]
	for k, i := range pos {
		reserves = append(reserves, pending[i])
		ratios = append(ratios, sh.quotas.Ratio(pending[i].req.tenant))
		order = append(order, k)
	}
	sh.fairReserves, sh.fairRatios, sh.fairOrderIdx = reserves, ratios, order
	sort.SliceStable(order, func(a, b int) bool { return ratios[order[a]] < ratios[order[b]] })
	for k, i := range pos {
		pending[i] = reserves[order[k]]
	}
}

// apply executes one request against the shard-local state. Only the
// combiner calls it.
func (sh *shard) apply(r request) response {
	switch r.kind {
	case opClose:
		sh.seal()
		return response{}
	case opReserve:
		return sh.reserve(r)
	case opCancel:
		return sh.cancel(r)
	case opQuery:
		return response{free: sh.idx.AvailableAt(r.ready)}
	case opSnapshot:
		return response{snap: sh.idx.CloneIndex()}
	case opTenantStats:
		out := make(map[string]TenantStats, len(sh.tstats))
		for name, ts := range sh.tstats {
			if h := sh.tslack[name]; h != nil {
				ts.SlackP99 = h.p99()
			}
			out[name] = ts
		}
		return response{tstats: out}
	case opDump:
		return sh.dump()
	default:
		return response{err: fmt.Errorf("%w: unknown op %d", ErrBadRequest, r.kind)}
	}
}

// reserve admits at the earliest start >= ready that leaves the α-rule
// head-room free across the whole window: one FindSlot for q+floor
// processors, then a Commit of q. A request with a deadline is rejected —
// not pushed back — when that earliest start lands after the deadline,
// and a feasible-and-timely request is charged to its tenant's quota
// before the commit (the quota check runs last, so a doomed request never
// burns budget, however briefly).
func (sh *shard) reserve(r request) response {
	start, ok := sh.idx.FindSlot(r.ready, r.q+sh.floor, r.dur)
	if !ok {
		sh.rejected.Add(1)
		return response{err: fmt.Errorf("%w: q=%d dur=%v with α-floor %d on shard %d",
			ErrNeverFits, r.q, r.dur, sh.floor, sh.id)}
	}
	if start > r.deadline {
		sh.rejectedDL.Add(1)
		return response{err: fmt.Errorf("%w: earliest feasible start %v > deadline %v (q=%d dur=%v, shard %d)",
			ErrDeadline, start, r.deadline, r.q, r.dur, sh.id)}
	}
	area := int64(r.dur) * int64(r.q)
	statKey := sh.tstatKey(r.tenant)
	if sh.quotas != nil {
		if err := sh.quotas.Acquire(r.tenant, area); err != nil {
			sh.rejectedQuota.Add(1)
			ts := sh.tstats[statKey]
			ts.RejectedQuota++
			sh.tstats[statKey] = ts
			return response{err: fmt.Errorf("shard %d: %w", sh.id, err)}
		}
	}
	if err := sh.idx.Commit(start, r.dur, r.q); err != nil {
		// Unreachable: FindSlot guarantees capacity and the combiner is
		// the only writer. Surface rather than panic so a backend bug turns
		// into a failed request, not a dead shard.
		if sh.quotas != nil {
			sh.quotas.Rollback(r.tenant, area)
		}
		sh.rejected.Add(1)
		return response{err: fmt.Errorf("resd: shard %d commit after FindSlot: %w", sh.id, err)}
	}
	if sh.quotas != nil {
		sh.quotas.Admit(r.tenant)
	}
	id := makeID(sh.id, sh.nextSeq)
	sh.nextSeq++
	sh.walAppend(wal.Record{
		Type: wal.TAdmit, ID: uint64(id), Tenant: r.tenant,
		Ready: int64(r.ready), Procs: r.q, Dur: int64(r.dur),
		Deadline: int64(r.deadline), Start: int64(start),
	})
	sh.live[id] = active{start: start, dur: r.dur, q: r.q, tenant: r.tenant, statKey: statKey}
	sh.area += area
	ts := sh.tstats[statKey]
	ts.Active++
	ts.CommittedArea += area
	ts.Admitted++
	sh.tstats[statKey] = ts
	sh.tenAreaCell(statKey).Add(area)
	// Start-time slack — how far past its ready time the admission had to
	// be pushed — is the per-admission SLO sample surfaced as p99 in
	// ShardStats and per tenant in TenantStats.
	sh.slack.Observe(int64(start - r.ready))
	th := sh.tslack[statKey]
	if th == nil {
		th = new(slackHist)
		sh.tslack[statKey] = th
	}
	th.add(start - r.ready)
	sh.admitted.Add(1)
	return response{resv: Reservation{ID: id, Shard: sh.id, Start: start, Dur: r.dur, Procs: r.q}}
}

// cancel releases an admitted reservation and credits the area back to
// its tenant's quota.
func (sh *shard) cancel(r request) response {
	a, ok := sh.live[r.id]
	if !ok {
		return response{err: fmt.Errorf("%w: %#x on shard %d", ErrUnknownID, uint64(r.id), sh.id)}
	}
	if err := sh.idx.Release(a.start, a.dur, a.q); err != nil {
		return response{err: fmt.Errorf("resd: shard %d release: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{Type: wal.TCancel, ID: uint64(r.id)})
	delete(sh.live, r.id)
	area := int64(a.dur) * int64(a.q)
	sh.area -= area
	if sh.quotas != nil {
		sh.quotas.Release(a.tenant, area)
	}
	ts := sh.tstats[a.statKey]
	ts.Active--
	ts.CommittedArea -= area
	ts.Cancelled++
	sh.tstats[a.statKey] = ts
	sh.tenAreaCell(a.statKey).Add(-area)
	sh.cancelled.Add(1)
	return response{}
}

// dump lists the shard's live reservations, sorted by ID.
func (sh *shard) dump() response {
	out := make([]Reservation, 0, len(sh.live))
	for id, a := range sh.live {
		out = append(out, Reservation{ID: id, Shard: sh.id, Start: a.start, Dur: a.dur, Procs: a.q})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return response{live: out}
}

// publish stores the load summary for lock-free readers (placement
// policies, Stats). Called once per turn — the group-commit point.
func (sh *shard) publish(n int) {
	sh.activeCount.Store(int64(len(sh.live)))
	sh.committedArea.Store(sh.area)
	sh.batches.Add(1)
	sh.ops.Add(uint64(n))
}

// stats assembles the published summary.
func (sh *shard) stats() ShardStats {
	return ShardStats{
		Active:           int(sh.activeCount.Load()),
		CommittedArea:    sh.committedArea.Load(),
		Admitted:         sh.admitted.Load(),
		Cancelled:        sh.cancelled.Load(),
		Rejected:         sh.rejected.Load(),
		RejectedDeadline: sh.rejectedDL.Load(),
		RejectedQuota:    sh.rejectedQuota.Load(),
		SlackP99:         core.Time(sh.slack.Quantile(0.99)),
		Batches:          sh.batches.Load(),
		Ops:              sh.ops.Load(),
	}
}
