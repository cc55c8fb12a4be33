package resd

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
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
	// requests the moment it is served or queued, so it is the last
	// request the shard serves, and applying it seals the log.
	opClose
)

// request is one operation submitted to a shard.
type request struct {
	kind     opKind
	tenant   string          // Reserve: accounting identity (never empty; "" is normalised upstream)
	acct     *tenant.Account // Reserve: the account tenant is charged to (nil = no quotas)
	area     int64           // Reserve: tenant.Area of q and dur
	ready    core.Time       // Reserve: earliest start; Query: probe instant
	q        int             // Reserve width
	dur      core.Time       // Reserve length
	deadline core.Time       // Reserve: latest admissible start (NoDeadline = unbounded)
	id       ID              // Cancel target
	trace    *TraceRecord    // sampled admission trace, nil for the unsampled majority
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

// slot is one call's place in a combining shard's queue: the request
// going in, the response coming out, and the channel a caller that found a
// combiner at work parks on. The combiner sends true once resp is filled,
// false to hand the parked caller its role (see combine). One send answers
// each park, so a slot goes back to the pool with wake empty.
type slot struct {
	req  request
	resp response
	wake chan bool
}

var slotPool = sync.Pool{New: func() any { return &slot{wake: make(chan bool, 1)} }}

// OverflowTenant is the per-shard book that absorbs tenant names beyond
// the tenant.MaxAccounts bound: a shard's cells must not grow
// without limit just because a wire client cycles fresh names. Admission
// and quota accounting are unaffected — only per-name attribution in
// TenantTotals degrades past the cap.
const OverflowTenant = "!overflow"

// tenantCell is everything a shard keeps about one tenant book. An
// admission resolves its tenant name to the cell once; a live record
// names the cell by idx, its position in shard.cells, so a cancel finds
// it without a name. acct is the quota account the cell's records are
// charged to, resolved the first time a cancel needs it (nil until then,
// and without quotas). Only the shard's owner touches it (see shard).
type tenantCell struct {
	name  string
	idx   uint32
	acct  *tenant.Account
	stats TenantStats // CommittedArea is rendered from area on read
	area  areaSum
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
// overflow cell once the shard keeps tenant.MaxAccounts of them. Cells are
// never dropped, so a reservation's tenant name finds the book it was
// admitted into at any later time, in the turn and in WAL replay alike.
// The first time a shard falls back to the overflow book it journals the
// degradation: from that point per-name attribution is lossy, which an
// operator reading TenantTotals should know without counting books.
func (sh *shard) newCell(name string) *tenantCell {
	if len(sh.byName) >= tenant.MaxAccounts && name != OverflowTenant {
		if sh.overflow == nil {
			sh.overflow = &flight.Event{
				Sev: flight.Warn, Subsys: "resd", Shard: sh.id, Tenant: name,
				Msg: "tenant book overflow activated: per-name attribution degraded",
				KV:  []flight.KV{{K: "max_accounts", V: strconv.Itoa(tenant.MaxAccounts)}},
			}
			sh.journal.RecordEvent(*sh.overflow)
		}
		if c := sh.byName[OverflowTenant]; c != nil {
			return c
		}
		name = OverflowTenant
	}
	return sh.addCell(name)
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

// account returns the quota account a live reservation is charged to:
// its cell's handle, resolved once per cell, or for a record in the
// overflow book the account of the name it keeps beside the table.
func (sh *shard) account(a resv) *tenant.Account {
	if name, ok := sh.live.charged[a.id()]; ok {
		return sh.quotas.Account(name)
	}
	c := sh.cells[a.cell]
	if c.acct == nil {
		c.acct = sh.quotas.Account(c.name)
	}
	return c.acct
}

// keep enters a reservation of the given area (tenant.Area of q and dur)
// in the live table under cell c, and adds the area to the shard's and
// the cell's sums. tenant is the name its quota was charged under: the
// cell's own, except in the overflow book, whose records keep theirs
// beside the table so that Cancel releases the right account and the
// snapshot stays exact.
func (sh *shard) keep(id ID, start, dur core.Time, q int, area int64, tenant string, c *tenantCell) {
	sh.live.put(resv{key: uint64(id) + 1, start: start, dur: dur, q: int32(q), cell: c.idx})
	if tenant != c.name {
		sh.live.chargeTo(id, tenant)
	}
	sh.area.add(area)
	c.area.add(area)
}

// book is the admit transition of the shard's book: the reservation is
// kept under the cell its tenant name resolves to, the cell and the shard
// count one more admission, and nextSeq moves past the id. reserve calls
// it once the slot is found, the quota charged, the index committed and
// the record appended; WAL replay calls it for each admit record.
func (sh *shard) book(id ID, start, dur core.Time, q int, area int64, tenant string) {
	c := sh.cell(tenant)
	sh.keep(id, start, dur, q, area, tenant, c)
	c.stats.Active++
	c.stats.Admitted++
	sh.admitted.Add(1)
	if s := id.seq(); s >= sh.nextSeq {
		sh.nextSeq = s + 1
	}
}

// unbook is the cancel transition: the reservation at slab position p
// leaves the table, its area leaves the shard's and its cell's sums, and
// the cell and the shard count one more cancellation. cancel calls it
// once the index is released, the record appended and the quota
// credited; WAL replay calls it for each cancel record.
func (sh *shard) unbook(p int) {
	a := sh.live.slab[p]
	sh.live.delAt(p)
	delete(sh.live.charged, a.id())
	area := tenant.Area(int(a.q), int64(a.dur))
	sh.area.sub(area)
	c := sh.cells[a.cell]
	c.stats.Active--
	c.stats.Cancelled++
	c.area.sub(area)
	sh.cancelled.Add(1)
}

// areaSum is a sum of processor-tick areas kept exactly, in 128 bits. An
// endless reservation's area saturates at MaxInt64 (tenant.Area), so two
// of them overflow an int64; here they add, and subtract again on cancel,
// without wrapping. sat reports the sum, saturated at MaxInt64.
type areaSum struct{ hi, lo uint64 }

func (a *areaSum) add(v int64) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, uint64(v), 0)
	a.hi += carry
}

func (a *areaSum) sub(v int64) {
	var borrow uint64
	a.lo, borrow = bits.Sub64(a.lo, uint64(v), 0)
	a.hi -= borrow
}

func (a areaSum) sat() int64 {
	if a.hi != 0 || a.lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(a.lo)
}

// satAdd adds two areas, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// shard is one cluster partition: a capacity index plus the admission
// bookkeeping. It has no goroutine of its own, and its state has one owner
// at a time, which is a caller: on a shard whose turns end in no fsync,
// the caller holding mu; on one whose turns fsync, the combiner, a caller
// serving the queue (see do and combine). The fields are grouped by who
// writes them, each group on cache lines of its own, so that callers
// contending for mu, callers routing, and the owner at work do not take
// each other's lines away.
type shard struct {
	// Read-mostly: set before the first request. syncs only ever goes
	// from true to false.
	id        int
	floor     int // α-rule head-room every admission must leave free
	batch     int
	quotas    *tenant.Registry // nil = quota enforcement disabled
	snapEvery int

	// syncs is whether the shard's turns end in an fsync (wal.Log.Syncs;
	// false without a log and once the log has failed or been sealed) —
	// the one case in which requests gain by sharing a turn. do serves
	// under mu or queues for a combiner by it, and never turns a caller
	// away by it; combine gathers by it. Atomic because do reads it
	// before it holds mu.
	syncs atomic.Bool

	// turnNs records each turn's latency, entry to publish; nil without an
	// obs registry, which then costs one predicted branch per turn.
	turnNs *obs.Histogram

	// Flight recorder surface. journal is nil-safe (a shard without a
	// recorder records into nothing), and New attaches it once recovery
	// is done: what replay finds reaches the journal through
	// recoverShards' fold, in shard order. When flightOn every turn
	// publishes a heartbeat — busySince on entering it, lastBeat on
	// completing it, both nanoseconds since epoch — for the watchdog's
	// lock-free stall probes, and turns slower than slowTurnThreshold
	// are journaled. turnHook, set only by tests via the unexported
	// Config field, runs at the top of every turn.
	journal  *flight.Journal
	flightOn bool
	turnHook func(shard int)
	_        [cacheLine]byte

	// Who serves. depth counts the callers waiting for the shard: blocked
	// on mu or sitting in the queue.
	mu        sync.Mutex
	queue     []*slot // requests waiting for a combiner, oldest first
	combining bool    // some caller holds the combiner's role
	closed    bool    // opClose has been served or queued: do refuses from here on
	depth     atomic.Int64
	_         [cacheLine]byte

	// Placement's key (see load), published once per turn and read by
	// every caller routing.
	committedArea atomic.Int64
	_             [cacheLine]byte

	// The owner's book: what the shard has admitted and for whom. live
	// holds the reservations, cells the per-tenant books in creation
	// order, byName finds a cell by tenant name. pending is the turn a
	// combiner is serving.
	pending []*slot
	idx     profile.CapacityIndex
	live    liveTable
	cells   []*tenantCell
	byName  map[string]*tenantCell
	// slack records the start-time slack of every admission. An atomic
	// obs.Histogram so Stats, scrapes and the SLO engine's snapshot ring
	// read quantiles and cumulative buckets without a request to the
	// shard; only the owner writes it.
	slack    *obs.Histogram
	nextSeq  uint64
	area     areaSum       // processor-tick area of live reservations
	overflow *flight.Event // the tenant-book overflow, once the books overflowed

	// Durability. wlog is the shard's write-ahead log (nil = in-memory
	// service); every state-changing op appends its record during apply
	// and the turn commits once, before its answers are released. A WAL
	// write failure degrades the shard to non-durable (walFailed counts
	// it) rather than taking admissions down with the disk.
	wlog     *wal.Log
	snapBusy atomic.Bool
	snapWG   sync.WaitGroup

	// Published once per turn for lock-free readers (Stats, the watchdog);
	// rejectedQuota is also raised by Service.Admit's quota door.
	activeCount   atomic.Int64
	admitted      atomic.Uint64
	cancelled     atomic.Uint64
	rejected      atomic.Uint64
	rejectedDL    atomic.Uint64
	rejectedQuota atomic.Uint64
	batches       atomic.Uint64
	ops           atomic.Uint64
	lastBeat      atomic.Int64
	busySince     atomic.Int64
	walFailed     atomic.Uint64
}

// cacheLine separates the shard's field groups.
const cacheLine = 64

// load is the shard's placement key: the area it has committed, as of its
// last turn. Callers that route between two turns read the same keys;
// what spreads them is Service.Admit's walk, which serves on the first
// ranked shard whose lock is free (see do), not the key.
func (sh *shard) load() int64 { return sh.committedArea.Load() }

// newShard builds the partition's index (with the Pre reservations
// committed) and an empty book; the shard is ready for do when it
// returns. floor is the service-computed α head-room, passed in so the
// Reserve pre-check in Service and the enforcement here can never
// disagree. A service with a WAL brings the shard back to its pre-crash
// state (recoverShards) before the first request.
func newShard(id int, cfg Config, floor int) (*shard, error) {
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
		// A fresh "beat" at creation: the watchdog's queued-but-no-turn
		// rule measures from here, so an idle-since-boot shard that
		// suddenly wedges is judged from boot, not from a zero time.
		sh.lastBeat.Store(int64(time.Since(epoch)))
	}
	sh.turnHook = cfg.turnHook
	return sh, nil
}

// errBusy is do's answer to a caller that would not wait for a held lock.
// It never leaves the package: Service.Admit tries another shard.
var errBusy = errors.New("resd: shard busy")

// do serves one request and returns its response. How depends on whether
// the shard's turns end in an fsync. Where they do not (no log, or one
// that never fsyncs) and no combiner holds the role, the caller keeps mu
// for the whole turn and serves its own call in its own goroutine: the
// turn is that one operation, and a contending caller waits inside
// sync.Mutex — unless it said it would not wait: then do returns errBusy
// at once, having done nothing, and the caller may try another shard.
// Where turns fsync, the request joins the queue and a combiner serves it
// (see combine), wait or not, since queueing there is the group commit: a
// caller that finds no combiner at work takes the role, its own request
// first, so a lone caller never leaves its goroutine; any other parks
// until a combiner has answered it or named it the next combiner. Once
// opClose has been served or queued, every do fails with ErrClosed.
func (sh *shard) do(req request, wait bool) (response, error) {
	if !sh.mu.TryLock() {
		if !wait && !sh.syncs.Load() {
			return response{}, errBusy
		}
		// Counted while blocked, so that depth covers every caller
		// waiting for the shard; one that gets the lock at once pays
		// nothing for it.
		sh.depth.Add(1)
		sh.mu.Lock()
		sh.depth.Add(-1)
	}
	if sh.closed {
		sh.mu.Unlock()
		return response{}, ErrClosed
	}
	sh.closed = req.kind == opClose
	if !sh.combining && !sh.syncs.Load() {
		start := sh.begin()
		resp := sh.apply(&req)
		sh.end(start, 1)
		sh.mu.Unlock()
		return resp, resp.err
	}
	s := slotPool.Get().(*slot)
	s.req = req
	sh.queue = append(sh.queue, s)
	sh.depth.Add(1)
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

// combine makes the caller the shard's single writer for one turn. self is
// at the head of the queue, so the turn answers it. A turn ends in an
// fsync, which costs the same however many records it covers, and callers
// just answered need the processor to come back with their next: so the
// combiner first yields until a round adds no caller, then takes up to
// batch requests, serves them in one turn and hands the role to the oldest
// waiter, so that its own caller's next request can share the next fsync.
// A shard whose log failed mid-turn no longer fsyncs; it skips the yield
// and hands on until the queue is empty, after which its callers serve
// under mu.
func (sh *shard) combine(self *slot) {
	if sh.syncs.Load() {
		for n := int64(0); n < int64(sh.batch) && sh.depth.Load() > n; runtime.Gosched() {
			n = sh.depth.Load()
		}
	}
	sh.mu.Lock()
	n := min(len(sh.queue), sh.batch)
	sh.pending = append(sh.pending[:0], sh.queue[:n]...)
	sh.queue = sh.queue[:copy(sh.queue, sh.queue[n:])]
	sh.depth.Add(-int64(n))
	sh.mu.Unlock()

	start := sh.begin()
	for _, s := range sh.pending {
		s.resp = sh.apply(&s.req)
	}
	sh.end(start, n)
	// The combiner's own slot is answered by returning, not woken. A
	// woken caller may recycle its slot at once.
	for _, s := range sh.pending {
		if s != self {
			s.wake <- true
		}
	}

	sh.mu.Lock()
	if len(sh.queue) == 0 {
		sh.combining = false
		sh.mu.Unlock()
		return
	}
	heir := sh.queue[0]
	sh.mu.Unlock()
	heir.wake <- false
}

// begin opens a turn, on either path. Two clock reads per turn when
// anything wants the time, none otherwise: start, returned here, is the
// heartbeat's busy stamp and the turn histogram's origin; end closes both.
// Both are monotonic readings since epoch.
func (sh *shard) begin() time.Duration {
	var start time.Duration
	if sh.flightOn || sh.turnNs != nil {
		start = time.Since(epoch)
	}
	if sh.flightOn {
		sh.busySince.Store(int64(start))
	}
	if sh.turnHook != nil {
		sh.turnHook(sh.id)
	}
	return start
}

// end closes a turn of n operations opened at start: the durability
// point, then the load summary, the turn's latency and heartbeat, and a
// snapshot when one is due. Every record the turn appended is already in
// the page cache, and under SyncBatch the commit's one fsync makes them
// all durable, so answers are released only after end returns — callers
// never observe a success the log could forget.
func (sh *shard) end(start time.Duration, n int) {
	if sh.wlog != nil {
		if err := sh.wlog.Commit(); err != nil {
			sh.walFail("commit", err)
		}
	}
	sh.publish(n)
	if sh.flightOn || sh.turnNs != nil {
		end := time.Since(epoch)
		if sh.turnNs != nil {
			sh.turnNs.Observe(int64(end - start))
		}
		if sh.flightOn {
			sh.beat(end-start, end, n)
		}
	}
	sh.maybeSnapshot()
}

// epoch is the origin of the shards' turn clocks. A turn reads its edges
// as time.Since(epoch), a monotonic reading at about half the cost of
// time.Now, and the heartbeat atomics hold those offsets; flightProbes
// turns one back into a time with epoch.Add, so the watchdog compares
// monotonic readings and a wall-clock step cannot make a shard look
// stalled. Taken at package init, every later offset is positive and 0
// stays free to mean "none".
var epoch = time.Now()

// slowTurnThreshold is the batch-turn anomaly budget: a turn that took
// longer than this is journaled (the whole shard was unavailable for
// the duration — every queued caller waited it out).
const slowTurnThreshold = 100 * time.Millisecond

// beat completes the heartbeat for a turn that took d and ended at end
// (since epoch): journal the turn as an anomaly if it ran long, then
// publish "turn done, shard idle" for the watchdog's stall probes.
func (sh *shard) beat(d, end time.Duration, ops int) {
	if d >= slowTurnThreshold {
		sh.journal.Record(flight.Warn, "resd", sh.id, "slow batch turn",
			flight.KV{K: "turn", V: d.String()}, flight.KV{K: "ops", V: strconv.Itoa(ops)})
	}
	sh.lastBeat.Store(int64(end))
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

// apply executes one request against the shard-local state, stamping a
// sampled admission's trace as its turn reaches it. Only the shard's owner
// calls it.
func (sh *shard) apply(r *request) response {
	if r.trace != nil {
		r.trace.BatchStart = time.Since(r.trace.Arrival)
	}
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
			out[i].CommittedArea = c.area.sat()
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
// and a feasible-and-timely request is charged to the account it carries
// before the commit. Service.Admit has already refused at the door what
// the budget refused when it asked; the charge here is the authority,
// and it runs last, so a doomed request never burns budget, however
// briefly.
func (sh *shard) reserve(r *request) response {
	start, ok := sh.idx.FindSlot(r.ready, r.q+sh.floor, r.dur)
	if !ok {
		sh.rejected.Add(1)
		return response{err: sh.refuse(ErrNeverFits, r, 0)}
	}
	if start > r.deadline {
		sh.rejectedDL.Add(1)
		return response{err: sh.refuse(ErrDeadline, r, start)}
	}
	if r.acct != nil {
		var why tenant.QuotaError
		if !r.acct.TryAcquire(r.area, &why) {
			sh.rejectedQuota.Add(1)
			ref := sh.refuse(ErrQuota, r, start)
			ref.Quota = why
			return response{err: ref}
		}
	}
	if err := sh.idx.Commit(start, r.dur, r.q); err != nil {
		// Unreachable: FindSlot guarantees capacity and the owner is the
		// only writer. Surface rather than panic so a backend bug turns
		// into a failed request, not a dead shard.
		if r.acct != nil {
			r.acct.Rollback(r.area)
		}
		sh.rejected.Add(1)
		return response{err: fmt.Errorf("resd: shard %d commit after FindSlot: %w", sh.id, err)}
	}
	if r.acct != nil {
		r.acct.Admit()
	}
	id := makeID(sh.id, sh.nextSeq)
	sh.walAppend(wal.Record{
		Type: wal.TAdmit, ID: uint64(id), Tenant: r.tenant,
		Ready: int64(r.ready), Procs: r.q, Dur: int64(r.dur),
		Deadline: int64(r.deadline), Start: int64(start),
	})
	sh.book(id, start, r.dur, r.q, r.area, r.tenant)
	// Start-time slack — how far past its ready time the admission had to
	// be pushed — is the per-admission SLO sample ShardStats surfaces as p99.
	sh.slack.Observe(int64(start - r.ready))
	return response{resv: Reservation{ID: id, Shard: sh.id, Start: start, Dur: r.dur, Procs: r.q}}
}

// refuse renders one of reserve's three refusals as a value; the text is
// whoever prints it's to pay for, not the turn's.
func (sh *shard) refuse(kind error, r *request, earliest core.Time) *Refusal {
	return &Refusal{Kind: kind, Shard: sh.id, Q: r.q, Dur: r.dur, Deadline: r.deadline, Floor: sh.floor, Earliest: earliest}
}

// cancel releases an admitted reservation and credits the area back to
// its tenant's quota.
func (sh *shard) cancel(r *request) response {
	i := sh.live.find(r.id)
	if i < 0 {
		return response{err: fmt.Errorf("%w: %#x on shard %d", ErrUnknownID, uint64(r.id), sh.id)}
	}
	a := sh.live.slab[i]
	if err := sh.idx.Release(a.start, a.dur, int(a.q)); err != nil {
		return response{err: fmt.Errorf("resd: shard %d release: %w", sh.id, err)}
	}
	sh.walAppend(wal.Record{Type: wal.TCancel, ID: uint64(r.id)})
	if sh.quotas != nil {
		sh.account(a).Release(tenant.Area(int(a.q), int64(a.dur)))
	}
	sh.unbook(i)
	return response{}
}

// dump lists the shard's live reservations, sorted by ID.
func (sh *shard) dump() response {
	out := make([]Reservation, 0, len(sh.live.slab))
	for _, a := range sh.live.slab {
		out = append(out, Reservation{ID: a.id(), Shard: sh.id, Start: a.start, Dur: a.dur, Procs: int(a.q)})
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
		Live:  make([]wal.Live, 0, len(sh.live.slab)),
	}
	for i, c := range sh.cells {
		s.Books[i] = wal.TenantBook{
			Tenant: c.name, Active: int64(c.stats.Active), Area: c.area.sat(),
			Admitted: c.stats.Admitted, Cancelled: c.stats.Cancelled,
		}
	}
	for _, a := range sh.live.slab {
		s.Live = append(s.Live, wal.Live{
			ID: uint64(a.id()), Start: int64(a.start), Dur: int64(a.dur), Procs: int(a.q), Tenant: sh.tenantOf(a),
		})
	}
	return s
}

// publish stores the load summary for lock-free readers (placement,
// Stats). Called once per turn, at its end.
func (sh *shard) publish(n int) {
	sh.activeCount.Store(int64(len(sh.live.slab)))
	sh.committedArea.Store(sh.area.sat())
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
