package resd

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
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
	tstats []tenantRow // opTenantStats: one row per book, in cell order
	live   []Reservation
	err    error
}

// tenantRow is one tenant book as opTenantStats reports it; the Service
// builds the maps callers see, once, at the edge.
type tenantRow struct {
	name string
	TenantStats
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

// OverflowTenant is the per-shard book that absorbs tenant names beyond
// the tenant.MaxAccounts bound: the combiner-owned cells must not grow
// without limit just because a wire client cycles fresh names. Admission
// and quota accounting are unaffected — only per-name attribution in
// TenantStats degrades past the cap.
const OverflowTenant = "!overflow"

// bookName is the overflow rule: which per-tenant book a name is kept
// in, given the books a shard already has — its own, unless that would be
// a new book past the cap. The shard and WAL replay both resolve names with
// it, and the book set only grows, so a reservation's tenant name finds
// the book it was admitted into at any later time, on either side.
func bookName[V any](books map[string]V, name string) string {
	if _, ok := books[name]; !ok && len(books) >= tenant.MaxAccounts {
		return OverflowTenant
	}
	return name
}

// tenantCell is everything a shard keeps about one tenant book. An
// admission resolves its tenant name to the cell once; a live record
// names the cell by idx, its position in shard.cells, so a cancel finds
// it without a name. Owned by the combiner.
type tenantCell struct {
	name  string
	idx   uint32
	stats TenantStats // SlackP99 is rendered from slack on read
	slack slackHist
}

// cell resolves a tenant name to its cell, creating the cell on first
// sight: the one string-keyed lookup of an admission.
func (sh *shard) cell(name string) *tenantCell {
	if c := sh.byName[name]; c != nil {
		return c
	}
	return sh.newCell(name)
}

// newCell books a name that has no cell: in a cell of its own, or in the
// overflow cell once the shard keeps tenant.MaxAccounts of them. The
// first time a shard falls back to the overflow book it journals the
// degradation: from that point per-name attribution is lossy, which an
// operator reading TenantStats should know without counting books.
func (sh *shard) newCell(name string) *tenantCell {
	book := bookName(sh.byName, name)
	if book != name {
		if !sh.overflowed {
			sh.overflowed = true
			sh.journal.RecordEvent(flight.Event{
				Sev: flight.Warn, Subsys: "resd", Shard: sh.id, Tenant: name,
				Msg: "tenant book overflow activated: per-name attribution degraded",
				KV:  []flight.KV{{K: "max_accounts", V: strconv.Itoa(tenant.MaxAccounts)}},
			})
		}
		if c := sh.byName[book]; c != nil {
			return c
		}
	}
	return sh.addCell(book)
}

// addCell appends the cell for a book the shard does not have yet.
func (sh *shard) addCell(book string) *tenantCell {
	c := &tenantCell{name: book, idx: uint32(len(sh.cells))}
	sh.cells = append(sh.cells, c)
	sh.byName[book] = c
	return c
}

// tenantOf returns the name a live reservation's quota is charged under.
func (sh *shard) tenantOf(a resv) string {
	if name, ok := sh.live.charged[a.id()]; ok {
		return name
	}
	return sh.cells[a.cell].name
}

// keep enters an admitted reservation in the live table under cell c.
// tenant is the name its quota was charged under: the cell's own, except
// in the overflow book, whose records keep theirs beside the table so
// that Cancel releases the right account and the snapshot stays exact.
func (sh *shard) keep(id ID, start, dur core.Time, q int, tenant string, c *tenantCell) {
	sh.live.put(resv{key: uint64(id) + 1, start: start, dur: dur, q: int32(q), cell: c.idx})
	if tenant != c.name {
		sh.live.chargeTo(id, tenant)
	}
	sh.area += int64(dur) * int64(q)
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

	idx profile.CapacityIndex
	// The book: what the shard has admitted and for whom. live holds the
	// reservations, cells the per-tenant books in creation order, byName
	// finds a cell by tenant name.
	live   liveTable
	cells  []*tenantCell
	byName map[string]*tenantCell
	// slack records the start-time slack of every admission. An atomic
	// obs.Histogram so Stats, scrapes and the SLO engine's snapshot ring
	// read quantiles and cumulative buckets without a request to the
	// shard; only the combiner writes it.
	slack   *obs.Histogram
	nextSeq uint64
	area    int64 // running processor-tick area of live reservations

	// fairOrder scratch, reused across turns so the soft-mode reorder
	// allocates nothing per turn (like pending).
	fairPos      []int
	fairReserves []*slot
	fairRatios   []float64
	fairOrderIdx []int

	// Load summary published once per turn (group commit): placement and
	// Stats read these without a request to the shard.
	// inFlight is the exception: Service.Admit raises it by the request's
	// area before it hands the shard an admission and lowers it when the
	// answer is back, so it is zero whenever no admission is under way.
	activeCount   atomic.Int64
	committedArea atomic.Int64
	inFlight      atomic.Int64
	admitted      atomic.Uint64
	cancelled     atomic.Uint64
	rejected      atomic.Uint64
	rejectedDL    atomic.Uint64
	rejectedQuota atomic.Uint64
	batches       atomic.Uint64
	ops           atomic.Uint64

	// turnNs records each turn's latency, entry to publish; nil without an
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
	//
	// syncs is whether the shard's turns end in an fsync (wal.Log.Syncs;
	// false without a log and once the log has failed or been sealed) — the
	// one case in which requests gain by sharing a turn. combine gathers and
	// hands on by it, and load leaves in-flight area out by it; atomic
	// because placement reads it from callers' goroutines.
	wlog      *wal.Log
	syncs     atomic.Bool
	snapEvery int
	snapBusy  atomic.Bool
	snapWG    sync.WaitGroup
	walFailed atomic.Uint64
}

// load is the shard's placement key: the area it has committed, as of its
// last turn, plus the area of the admissions routed to it and not
// answered yet. The second term is what lets
// concurrent callers see each other: committedArea moves once per turn, so
// without it everyone routing between two turns reads the same numbers,
// picks the same minimum and queues behind one combiner. An admission is
// published before its caller lowers inFlight, so load never under-counts;
// with a single caller inFlight is zero at every read. Where turns end in
// an fsync the term is left out: there callers queueing on one shard is
// the group commit, and spreading them buys more fsyncs of fewer records.
func (sh *shard) load() int64 {
	if sh.syncs.Load() {
		return sh.committedArea.Load()
	}
	return sh.committedArea.Load() + sh.inFlight.Load()
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
		byName: make(map[string]*tenantCell),
		slack:  &obs.Histogram{},
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
	sh.syncs.Store(seed.log.Syncs())
	sh.snapEvery = cfg.WAL.SnapEvery
	sh.nextSeq = seed.nextSeq
	sh.admitted.Store(seed.admitted)
	sh.cancelled.Store(seed.cancelled)
	// Cells in name order, the table at its final size before the first
	// insertion: what a recovered shard looks like depends on what the
	// directory holds, not on map iteration or on the order of growth.
	names := make([]string, 0, len(seed.books))
	for name := range seed.books {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := sh.addCell(name)
		c.stats = seed.books[name]
	}
	sh.live.reserve(len(seed.live))
	for _, id := range seed.sortedIDs() {
		lv := seed.live[id]
		start, dur := core.Time(lv.Start), core.Time(lv.Dur)
		if err := sh.idx.Commit(start, dur, lv.Procs); err != nil {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x (start=%v dur=%v q=%d) no longer fits: %w",
				sh.id, lv.ID, start, dur, lv.Procs, err)
		}
		sh.keep(id, start, dur, lv.Procs, lv.Tenant, sh.cell(lv.Tenant))
	}
	sh.activeCount.Store(int64(sh.live.n))
	sh.committedArea.Store(sh.area)
	// Anchor a snapshot of the recovered state so the generations replay
	// just consumed can be deleted. Written synchronously: by the time New
	// returns, recovery is complete and the old logs are gone. Skipped for
	// a state-free boot (nothing to anchor) and when snapshots are
	// disabled.
	if sh.snapEvery > 0 && (sh.live.n > 0 || len(sh.cells) > 0 || seed.admitted > 0) {
		gen, err := sh.wlog.Rotate()
		if err != nil {
			return fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
		if err := sh.wlog.WriteSnapshot(sh.snapshot(gen)); err != nil {
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
// head of the queue, so the first turn answers it. Where a turn ends in
// an fsync (sh.syncs) the combiner first waits for company and hands
// the role on after one turn; anywhere else it serves on while requests
// keep arriving, up to batch operations in all, and then the oldest
// waiter inherits the role. So no caller waits on more than one batch of
// other callers' work once answered, and a fsyncing shard's combiner is
// back in time for its caller's next request to share the next fsync.
func (sh *shard) combine(self *slot) {
	// An fsync costs the same however many records it covers, and callers
	// just answered need the processor to come back with their next: yield
	// until a round adds nothing. Without a log, or with one that never
	// fsyncs (its commit costs nothing: the records are already in the
	// page cache), a batch buys nothing and the yields are pure cost.
	gather := sh.syncs.Load()
	if gather {
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
		if left == 0 || gather {
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
	// Two clock reads per turn when anything wants the time, none
	// otherwise: start is the heartbeat's busy stamp and the turn
	// histogram's origin, end (below) closes both.
	timed := sh.flightOn || sh.turnNs != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	if sh.flightOn {
		sh.busySince.Store(start.UnixNano())
	}
	if sh.turnHook != nil {
		sh.turnHook(sh.id)
	}
	sh.fairOrder(sh.pending)
	for _, s := range sh.pending {
		if s.req.trace != nil {
			s.req.trace.BatchStart = time.Since(s.req.trace.Arrival)
		}
		s.resp = sh.apply(s.req)
	}
	// The group-commit durability point: every record the turn appended
	// is already in the page cache, and under SyncBatch one fsync makes
	// them all durable before any answer is released — callers never
	// observe a success the log could forget.
	if sh.wlog != nil {
		if err := sh.wlog.Commit(); err != nil {
			sh.walFail("commit", err)
		}
	}
	sh.publish(len(sh.pending))
	var end time.Time
	if timed {
		end = time.Now()
	}
	if sh.turnNs != nil {
		sh.turnNs.Observe(end.Sub(start).Nanoseconds())
	}
	// fairOrder permutes the turn, so the combiner knows its own slot by
	// identity. A woken caller may recycle its slot at once.
	for _, s := range sh.pending {
		if s != self {
			s.wake <- true
		}
	}
	if sh.flightOn {
		sh.beat(end.Sub(start), end, len(sh.pending))
	}
	sh.maybeSnapshot()
}

// slowTurnThreshold is the batch-turn anomaly budget: a turn that took
// longer than this is journaled (the whole shard was unavailable for
// the duration — every queued caller waited it out).
const slowTurnThreshold = 100 * time.Millisecond

// beat completes the heartbeat for a turn that took d and ended at end:
// journal the turn as an anomaly if it ran long, then publish "turn done,
// shard idle" for the watchdog's stall probes.
func (sh *shard) beat(d time.Duration, end time.Time, ops int) {
	if d >= slowTurnThreshold {
		sh.journal.Record(flight.Warn, "resd", sh.id, "slow batch turn",
			flight.KV{K: "turn", V: d.String()}, flight.KV{K: "ops", V: strconv.Itoa(ops)})
	}
	sh.lastBeat.Store(end.UnixNano())
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
// concurrent commits are as harmlessly stale as the load summaries
// placement reads.
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
		out := make([]tenantRow, len(sh.cells))
		for i, c := range sh.cells {
			out[i] = tenantRow{c.name, c.stats}
			out[i].SlackP99 = c.slack.p99()
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
		return response{err: sh.refuse(ErrNeverFits, r, 0)}
	}
	if start > r.deadline {
		sh.rejectedDL.Add(1)
		return response{err: sh.refuse(ErrDeadline, r, start)}
	}
	area := int64(r.dur) * int64(r.q)
	c := sh.cell(r.tenant)
	if sh.quotas != nil {
		var why tenant.QuotaError
		if !sh.quotas.TryAcquire(r.tenant, area, &why) {
			sh.rejectedQuota.Add(1)
			c.stats.RejectedQuota++
			ref := sh.refuse(ErrQuota, r, start)
			ref.Quota = why
			return response{err: ref}
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
	sh.keep(id, start, r.dur, r.q, r.tenant, c)
	c.stats.Active++
	c.stats.CommittedArea += area
	c.stats.Admitted++
	// Start-time slack — how far past its ready time the admission had to
	// be pushed — is the per-admission SLO sample surfaced as p99 in
	// ShardStats and per tenant in TenantStats.
	sh.slack.Observe(int64(start - r.ready))
	c.slack.add(start - r.ready)
	sh.admitted.Add(1)
	return response{resv: Reservation{ID: id, Shard: sh.id, Start: start, Dur: r.dur, Procs: r.q}}
}

// refuse renders one of reserve's three refusals as a value; the text is
// whoever prints it's to pay for, not the turn's.
func (sh *shard) refuse(kind error, r request, earliest core.Time) *Refusal {
	return &Refusal{Kind: kind, Shard: sh.id, Q: r.q, Dur: r.dur, Deadline: r.deadline, Floor: sh.floor, Earliest: earliest}
}

// cancel releases an admitted reservation and credits the area back to
// its tenant's quota.
func (sh *shard) cancel(r request) response {
	i := sh.live.find(r.id)
	if i < 0 {
		return response{err: fmt.Errorf("%w: %#x on shard %d", ErrUnknownID, uint64(r.id), sh.id)}
	}
	a := sh.live.slots[i]
	if err := sh.idx.Release(a.start, a.dur, int(a.q)); err != nil {
		return response{err: fmt.Errorf("resd: shard %d release: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{Type: wal.TCancel, ID: uint64(r.id)})
	sh.live.delAt(i)
	area := int64(a.dur) * int64(a.q)
	sh.area -= area
	c := sh.cells[a.cell]
	if sh.quotas != nil {
		sh.quotas.Release(sh.tenantOf(a), area)
	}
	delete(sh.live.charged, r.id)
	c.stats.Active--
	c.stats.CommittedArea -= area
	c.stats.Cancelled++
	sh.cancelled.Add(1)
	return response{}
}

// dump lists the shard's live reservations, sorted by ID.
func (sh *shard) dump() response {
	out := make([]Reservation, 0, sh.live.n)
	for _, a := range sh.live.slots {
		if a.key != 0 {
			out = append(out, Reservation{ID: a.id(), Shard: sh.id, Start: a.start, Dur: a.dur, Procs: int(a.q)})
		}
	}
	slices.SortFunc(out, func(a, b Reservation) int { return cmp.Compare(a.ID, b.ID) })
	return response{live: out}
}

// snapshot renders the book as the durable state anchoring log generation
// gen, straight from the table and the cells; the encoder sorts both
// lists. Runs inside a turn (or before the first), so the copy is
// consistent.
func (sh *shard) snapshot(gen uint64) *wal.Snapshot {
	s := &wal.Snapshot{
		Shard: sh.id, Gen: gen, NextSeq: sh.nextSeq,
		Admitted: sh.admitted.Load(), Cancelled: sh.cancelled.Load(),
		Books: make([]wal.TenantBook, len(sh.cells)),
		Live:  make([]wal.Live, 0, sh.live.n),
	}
	for i, c := range sh.cells {
		s.Books[i] = wal.TenantBook{
			Tenant: c.name, Active: int64(c.stats.Active), Area: c.stats.CommittedArea,
			Admitted: c.stats.Admitted, Cancelled: c.stats.Cancelled, RejectedQuota: c.stats.RejectedQuota,
		}
	}
	for _, a := range sh.live.slots {
		if a.key == 0 {
			continue
		}
		s.Live = append(s.Live, wal.Live{
			ID: uint64(a.id()), Start: int64(a.start), Dur: int64(a.dur), Procs: int(a.q), Tenant: sh.tenantOf(a),
		})
	}
	return s
}

// publish stores the load summary for lock-free readers (placement,
// Stats). Called once per turn — the group-commit point.
func (sh *shard) publish(n int) {
	sh.activeCount.Store(int64(sh.live.n))
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
