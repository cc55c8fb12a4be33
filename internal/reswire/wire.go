package reswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// Wire framing constants. Every message on the wire is one frame:
//
//	uint32  payload length (big endian, excludes these 4 bytes)
//	uint16  magic   0x5257 ("RW")
//	uint8   version (always Version)
//	uint8   op
//	uint64  request id (echoed verbatim in the response)
//	...     op-specific body
//
// All integers are fixed-width big endian; there is no padding. Requests
// flow client→server, responses server→client, so the direction of a frame
// is implied by the connection side and the two kinds share the header.
//
// Each message's layout is written once, as a coder walk that both
// encodes and decodes it (see coder below), with each rule on a field's
// value beside the field.
//
// The layout is frozen: there is one revision, both sides speak it, and a
// frame carrying any other version byte is refused with ErrVersion rather
// than guessed at. The byte stays in the header so that a future layout
// can be told from this one; TestGoldenFrames holds the bytes.
const (
	// Magic is the first two payload bytes of every frame ("RW").
	Magic uint16 = 0x5257
	// Version is the protocol revision.
	Version uint8 = 6
	// MaxFrame bounds a frame's payload. The decoder rejects larger
	// length prefixes before allocating, so a hostile peer cannot make a
	// reader allocate unbounded memory.
	MaxFrame = 8 << 20
	// maxDetail bounds the human-readable error detail in responses.
	maxDetail = 1 << 10
	// headerLen is magic+version+op+id.
	headerLen = 2 + 1 + 1 + 8
	// maxShards mirrors resd's shard-count ceiling (16 shard bits); used
	// to bound Query/Stats response vectors during decoding.
	maxShards = 1 << 16
	// maxTenants bounds the tenant vector of a Watch telemetry frame
	// during decoding, like maxShards bounds the shard vectors.
	maxTenants = 1 << 16
	// shardEntryLen is the size of one resd.ShardStats on the wire: ten
	// 8-byte fields, in a Stats reply and in a Watch frame alike.
	shardEntryLen = 10 * 8
	// watchShardEntryLen is the fixed size of one per-shard telemetry
	// entry: queue depth (4) plus the shard entry.
	watchShardEntryLen = 4 + shardEntryLen
	// watchTenantEntryLen is the minimum size of one per-tenant telemetry
	// entry: the name length byte (1) plus budget/used/inflight (24).
	watchTenantEntryLen = 1 + 24
	// watchWALEntryLen is the fixed size of one per-shard WAL telemetry
	// entry: shard (4), gen/bytes/records/fsyncs/snapshots (40),
	// fsync-p99 (8) and failures (8).
	watchWALEntryLen = 4 + 40 + 8 + 8
	// maxSLO bounds the SLO vector of a Watch telemetry frame during
	// decoding — far above any sane objective count, low enough that a
	// hostile count fails before allocation.
	maxSLO = 1 << 10
	// watchSLOEntryLen is the minimum size of one per-objective SLO
	// telemetry entry: two name length bytes (2), signal (1), four
	// float64s (32) and the alert state (1).
	watchSLOEntryLen = 2 + 1 + 32 + 1
)

// Op enumerates the protocol operations.
type Op uint8

const (
	// OpReserve admits a reservation (optionally deadline-bounded and
	// tenant-attributed).
	OpReserve Op = 1 + iota
	// OpCancel releases an admitted reservation by id.
	OpCancel
	// OpQuery reads the per-shard free capacity at an instant.
	OpQuery
	// OpSnapshot copies one shard's capacity profile as segments.
	OpSnapshot
	// OpPing is a liveness/RTT probe.
	OpPing
	// OpStats reads the per-shard load summaries.
	OpStats
	// OpQuotaGet reads one tenant's quota state.
	OpQuotaGet
	// OpQuotaSet re-budgets one tenant's share at runtime.
	OpQuotaSet
	// OpWatch subscribes to server-pushed telemetry frames. The
	// request names an interval; every subsequent response frame with
	// the request's id carries one Telemetry snapshot. The subscription
	// lives as long as the connection.
	OpWatch
)

// valid reports whether op is one of the protocol's operations.
func (op Op) valid() bool { return op >= OpReserve && op <= OpWatch }

// String names the op for diagnostics.
func (op Op) String() string {
	switch op {
	case OpReserve:
		return "Reserve"
	case OpCancel:
		return "Cancel"
	case OpQuery:
		return "Query"
	case OpSnapshot:
		return "Snapshot"
	case OpPing:
		return "Ping"
	case OpStats:
		return "Stats"
	case OpQuotaGet:
		return "QuotaGet"
	case OpQuotaSet:
		return "QuotaSet"
	case OpWatch:
		return "Watch"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Code is a response status. CodeOK means the op succeeded; every other
// code maps onto one of resd's typed errors so a remote caller can branch
// with errors.Is exactly as an in-process caller would.
type Code uint8

const (
	// CodeOK reports success.
	CodeOK Code = iota
	// CodeBadRequest maps resd.ErrBadRequest.
	CodeBadRequest
	// CodeNeverFits maps resd.ErrNeverFits (static α-rule rejection).
	CodeNeverFits
	// CodeUnknownID maps resd.ErrUnknownID.
	CodeUnknownID
	// CodeClosed maps resd.ErrClosed (service shutting down).
	CodeClosed
	// CodeRejectedDeadline maps resd.ErrDeadline: the request was
	// feasible but its earliest start exceeded the caller's deadline.
	CodeRejectedDeadline
	// CodeInternal reports a server-side failure outside the typed set.
	CodeInternal
	// CodeRejectedQuota maps tenant.ErrQuota: the request was feasible but
	// its tenant has exhausted its budgeted share of the reservable
	// prefix.
	CodeRejectedQuota
)

// String names the code, REJECTED_DEADLINE-style, for logs and examples.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "OK"
	case CodeBadRequest:
		return "BAD_REQUEST"
	case CodeNeverFits:
		return "REJECTED_NEVER_FITS"
	case CodeUnknownID:
		return "UNKNOWN_ID"
	case CodeClosed:
		return "CLOSED"
	case CodeRejectedDeadline:
		return "REJECTED_DEADLINE"
	case CodeInternal:
		return "INTERNAL"
	case CodeRejectedQuota:
		return "REJECTED_QUOTA"
	default:
		return fmt.Sprintf("Code(%d)", uint8(c))
	}
}

// CodeOf maps a service error onto its wire code. Quota config errors
// (tenant.ErrConfig, from a bad QuotaSet) surface as BAD_REQUEST: the
// caller's parameters were wrong, not the server.
func CodeOf(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, tenant.ErrQuota):
		return CodeRejectedQuota
	case errors.Is(err, resd.ErrDeadline):
		return CodeRejectedDeadline
	case errors.Is(err, resd.ErrNeverFits):
		return CodeNeverFits
	case errors.Is(err, resd.ErrUnknownID):
		return CodeUnknownID
	case errors.Is(err, resd.ErrClosed):
		return CodeClosed
	case errors.Is(err, resd.ErrBadRequest), errors.Is(err, tenant.ErrConfig):
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// ErrInternal is the client-side sentinel for CodeInternal responses.
var ErrInternal = errors.New("reswire: internal server error")

// Err reconstructs the typed error a code stands for, so errors.Is works
// identically on both sides of the wire. detail is the server's message.
func (c Code) Err(detail string) error {
	var sentinel error
	switch c {
	case CodeOK:
		return nil
	case CodeBadRequest:
		sentinel = resd.ErrBadRequest
	case CodeNeverFits:
		sentinel = resd.ErrNeverFits
	case CodeUnknownID:
		sentinel = resd.ErrUnknownID
	case CodeClosed:
		sentinel = resd.ErrClosed
	case CodeRejectedDeadline:
		sentinel = resd.ErrDeadline
	case CodeRejectedQuota:
		sentinel = tenant.ErrQuota
	default:
		sentinel = ErrInternal
	}
	if detail == "" {
		return fmt.Errorf("reswire: %s: %w", c, sentinel)
	}
	return fmt.Errorf("reswire: %s: %w (%s)", c, sentinel, detail)
}

// Protocol-level decoding errors.
var (
	// ErrFrame reports a malformed frame (bad magic, unknown op,
	// truncated or oversized body, trailing bytes).
	ErrFrame = errors.New("reswire: malformed frame")
	// ErrVersion reports a frame from an unsupported protocol revision.
	ErrVersion = errors.New("reswire: unsupported protocol version")
)

// Request is one decoded client→server message. Fields beyond ID and Op
// are meaningful per op: Reserve uses Ready/Procs/Dur/Deadline/Tenant
// and Stamp/Traced, Cancel uses Resv, Query uses Ready as
// the probe instant, Snapshot uses Shard, QuotaGet uses Tenant, QuotaSet
// uses Tenant and Share, Watch uses Interval.
type Request struct {
	ID       uint64
	Op       Op
	Ready    core.Time
	Procs    int
	Dur      core.Time
	Deadline core.Time
	Resv     uint64
	Shard    int
	Tenant   string
	Share    float64
	// Stamp is the client's own send instant in unix nanoseconds
	// (Reserve; 0 = no stamp). A sampled admission whose frame
	// carried a stamp gains the client-send→server-route span in its
	// TraceRecord.
	Stamp int64
	// Traced asks the server to force-sample this admission into the
	// trace ring regardless of its 1-in-N sampling rate (Reserve; a
	// no-op on servers running with tracing disabled).
	Traced bool
	// Interval is the requested push period of a Watch subscription
	// (the server clamps unreasonably small values).
	Interval time.Duration
}

// Segment is one constant piece of a snapshot's capacity step function:
// Free processors are available from Start until the next segment's Start
// (the last segment extends to infinity).
type Segment struct {
	Start core.Time
	Free  int
}

// QuotaInfo is one tenant's quota state as QuotaGet reports it: the
// tenant's usage plus the registry-wide capacity the numbers are
// relative to.
type QuotaInfo struct {
	tenant.Usage
	Capacity int64
}

// validSLO guards the float fields of an SLO state crossing the wire, on
// both encode and decode so a decoded frame always re-encodes: targets
// stay strict fractions, fractions stay in range, the open-ended fields
// stay finite, and NaN never round-trips (it cannot even compare equal).
func validSLO(o *slo.State) error {
	switch {
	case o.Signal > slo.ErrorRate:
		return fmt.Errorf("%w: unknown slo signal %d", ErrFrame, uint8(o.Signal))
	case o.Severity > slo.SevPage:
		return fmt.Errorf("%w: unknown slo alert state %d", ErrFrame, uint8(o.Severity))
	case !(o.Target > 0 && o.Target < 1):
		return fmt.Errorf("%w: slo target %v outside (0,1)", ErrFrame, o.Target)
	case !(o.Attainment >= 0 && o.Attainment <= 1):
		return fmt.Errorf("%w: slo attainment %v outside [0,1]", ErrFrame, o.Attainment)
	case math.IsNaN(o.BudgetRemaining) || math.IsInf(o.BudgetRemaining, 0) || o.BudgetRemaining > 1:
		return fmt.Errorf("%w: slo budget remaining %v invalid", ErrFrame, o.BudgetRemaining)
	case !(o.BurnMax >= 0) || math.IsInf(o.BurnMax, 0):
		return fmt.Errorf("%w: slo burn rate %v invalid", ErrFrame, o.BurnMax)
	}
	return nil
}

// Telemetry is one server-pushed Watch frame: the server's whole
// resd.NodeSnapshot, a family the server runs without (quotas, a log, an
// SLO engine) decoding as nil exactly as Node returns it. Seq numbers the
// frames this subscriber actually received; Dropped counts the frames the
// server discarded because the subscriber's connection could not drain
// fast enough (drop-and-mark: a gap is visible, never blocking).
type Telemetry struct {
	Seq     uint64
	Dropped uint64
	resd.NodeSnapshot
}

// Response is one decoded server→client message. Code discriminates
// success; on success the op-specific field is set (Resv for Reserve,
// Free for Query, M+Segs for Snapshot, Stats for Stats, Quota for
// QuotaGet, Telemetry for Watch).
type Response struct {
	ID        uint64
	Op        Op
	Code      Code
	Detail    string
	Resv      resd.Reservation
	Free      []int
	M         int
	Segs      []Segment
	Stats     []resd.ShardStats
	Quota     QuotaInfo
	Telemetry *Telemetry
}

// coder walks one frame in layout order, in one direction: encoding appends
// each field's value to b, decoding reads the field from b at off. Each
// message's layout is written once, as the walks header, request,
// response, telemetry and shardStats, and so is each rule on a field's
// value: the encoder refuses what the decoder refuses, and whatever decodes
// re-encodes to the same bytes. A walk writes a field only when decoding,
// so encoding never stores into the caller's value, nor into the slices
// and Telemetry it shares.
//
// A frame fails once: by a rule, kept in err, or by a read past the
// payload's end, which moves off past it so that every later read fails
// too. Whichever comes first is the frame's error.
type coder struct {
	b   []byte
	off int
	err error
	dec bool
}

// fail records err as the frame's failure, unless the frame has already
// failed.
func (c *coder) fail(err error) {
	if c.err == nil && !c.short() {
		c.err = err
	}
}

// bad fails the frame for breaking a field rule.
func (c *coder) bad(format string, args ...any) {
	c.fail(fmt.Errorf("%w: "+format, append([]any{ErrFrame}, args...)...))
}

// short reports whether a read has run past the payload's end.
func (c *coder) short() bool { return c.off > len(c.b) }

// overrun marks a read past the payload's end. The primitives below keep to
// this and to no call, so that they inline.
func (c *coder) overrun() { c.off = len(c.b) + 1 }

// u8 carries a one-byte field.
func u8[T ~uint8](c *coder, p *T) {
	if !c.dec {
		c.b = append(c.b, byte(*p))
	} else if c.off < len(c.b) {
		*p = T(c.b[c.off])
		c.off++
	} else {
		c.overrun()
	}
}

// u16 carries a two-byte field.
func (c *coder) u16(p *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *p)
	} else if len(c.b)-c.off >= 2 {
		*p = binary.BigEndian.Uint16(c.b[c.off:])
		c.off += 2
	} else {
		c.overrun()
	}
}

// u64 carries an eight-byte integer field.
func u64[T ~uint64 | ~int64 | ~int](c *coder, p *T) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, uint64(*p))
	} else if len(c.b)-c.off >= 8 {
		*p = T(binary.BigEndian.Uint64(c.b[c.off:]))
		c.off += 8
	} else {
		c.overrun()
	}
}

// errInt32 fails a frame whose int field is outside int32's range. It is
// one error, with no value in it, so that i32 inlines.
var errInt32 = fmt.Errorf("%w: field exceeds int32 range", ErrFrame)

// i32 carries an int in four bytes. A value outside int32's range fails the
// frame; no decoded one is.
func (c *coder) i32(p *int) {
	if !c.dec {
		if int(int32(*p)) != *p {
			c.fail(errInt32)
		}
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(*p))
	} else if len(c.b)-c.off >= 4 {
		*p = int(int32(binary.BigEndian.Uint32(c.b[c.off:])))
		c.off += 4
	} else {
		c.overrun()
	}
}

// f64 carries a float64 as its IEEE 754 bits.
func (c *coder) f64(p *float64) {
	v := math.Float64bits(*p)
	u64(c, &v)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// share carries a quota share. A share is a fraction in (0,1]: hostile bit
// patterns (NaN, infinities, sign games) fail the frame rather than reach
// arithmetic.
func (c *coder) share(p *float64) {
	c.f64(p)
	if !(*p > 0 && *p <= 1) {
		c.bad("share %v outside (0,1]", *p)
	}
}

// flag carries a bool as one byte, 0 or 1.
func (c *coder) flag(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	u8(c, &v)
	if v > 1 {
		c.bad("flag byte %d, not 0 or 1", v)
	}
	if c.dec {
		*p = v == 1
	}
}

// str carries the n bytes of a string whose length the frame carries.
// Decoding, a frame that has already failed allocates no string.
func (c *coder) str(p *string, n int) {
	if !c.dec {
		c.b = append(c.b, (*p)[:n]...)
	} else if c.err == nil && len(c.b)-c.off >= n {
		*p = string(c.b[c.off : c.off+n])
		c.off += n
	} else {
		c.overrun()
	}
}

// name carries a tenant name behind its one-byte length.
func (c *coder) name(p *string) {
	n := uint8(len(*p))
	u8(c, &n)
	// Encoding checks the name; decoding, its length byte.
	if l := max(len(*p), int(n)); l > tenant.MaxNameLen {
		c.bad("name %d bytes long (max %d)", l, tenant.MaxNameLen)
	}
	c.str(p, int(n))
}

// count carries a vector's length n and returns it. A count past limit
// fails the frame, and so, decoding, does one whose entries of at least
// size bytes each would overrun the payload: both before anything is
// allocated. Once the frame has failed it returns 0, so that the caller
// walks no entries and a refused vector decodes as nil.
func (c *coder) count(n, limit, size int) int {
	c.i32(&n) // a uint32 on the wire: one past int32 exceeds every limit
	if n < 0 || n > limit || c.dec && size*n > len(c.b)-c.off {
		c.bad("vector of %d entries (at most %d, of %d bytes each) in %d bytes", uint32(n), limit, size, len(c.b)-c.off)
	}
	if c.err != nil || c.short() {
		return 0
	}
	return n
}

// vec carries the length of *s as count does, allocates the vector when
// decoding, and returns the number of entries to walk. An empty vector
// decodes as nil, as resd returns an absent one.
func vec[T any](c *coder, s *[]T, limit, size int) int {
	n := c.count(len(*s), limit, size)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	return n
}

// header walks the shared frame header, after the length prefix.
func (c *coder) header(op *Op, id *uint64) {
	magic, version := Magic, Version
	c.u16(&magic)
	if magic != Magic {
		c.bad("magic %#04x", magic)
	}
	u8(c, &version)
	if version != Version {
		c.fail(fmt.Errorf("%w: got %d, speak %d", ErrVersion, version, Version))
	}
	u8(c, op)
	if !op.valid() {
		c.bad("unknown op %d", uint8(*op))
	}
	u64(c, id)
}

// request walks a request frame.
func (c *coder) request(r *Request) {
	c.header(&r.Op, &r.ID)
	switch r.Op {
	case OpReserve:
		u64(c, &r.Ready)
		c.i32(&r.Procs)
		u64(c, &r.Dur)
		u64(c, &r.Deadline)
		c.name(&r.Tenant)
		u64(c, &r.Stamp)
		c.flag(&r.Traced)
	case OpCancel:
		u64(c, &r.Resv)
	case OpQuery:
		u64(c, &r.Ready)
	case OpSnapshot:
		c.i32(&r.Shard)
	case OpQuotaGet:
		c.name(&r.Tenant)
	case OpQuotaSet:
		c.name(&r.Tenant)
		c.share(&r.Share)
	case OpWatch:
		u64(c, &r.Interval)
		if r.Interval < 0 {
			c.bad("watch interval %v negative", r.Interval)
		}
	case OpPing, OpStats:
		// header only
	}
}

// response walks a response frame. An error reply carries its detail
// instead of a body; encoding cuts the detail to the maxDetail bytes the
// decoder takes.
func (c *coder) response(r *Response) {
	c.header(&r.Op, &r.ID)
	u8(c, &r.Code)
	if r.Code > CodeRejectedQuota {
		c.bad("unknown code %d", uint8(r.Code))
	}
	if r.Code != CodeOK {
		n := uint16(min(len(r.Detail), maxDetail))
		c.u16(&n)
		if n > maxDetail {
			c.bad("%d byte error detail", n)
		}
		c.str(&r.Detail, int(n))
		return
	}
	switch r.Op {
	case OpReserve:
		u64(c, &r.Resv.ID)
		c.i32(&r.Resv.Shard)
		u64(c, &r.Resv.Start)
		u64(c, &r.Resv.Dur)
		c.i32(&r.Resv.Procs)
	case OpQuery:
		for i := range vec(c, &r.Free, maxShards, 4) {
			c.i32(&r.Free[i])
		}
	case OpSnapshot:
		c.i32(&r.M)
		for i := range vec(c, &r.Segs, MaxFrame, 12) {
			u64(c, &r.Segs[i].Start)
			c.i32(&r.Segs[i].Free)
		}
	case OpStats:
		for i := range vec(c, &r.Stats, maxShards, shardEntryLen) {
			c.shardStats(&r.Stats[i])
		}
	case OpQuotaGet:
		q := &r.Quota
		c.name(&q.Tenant)
		c.share(&q.Share)
		u64(c, &q.Capacity)
		u64(c, &q.Budget)
		u64(c, &q.Used)
		u64(c, &q.Inflight)
		u64(c, &q.Admitted)
		u64(c, &q.Cancelled)
		u64(c, &q.Rejected)
	case OpWatch:
		if c.dec {
			r.Telemetry = &Telemetry{}
		} else if r.Telemetry == nil {
			c.bad("watch response without telemetry")
			return
		}
		c.telemetry(r.Telemetry)
	case OpCancel, OpPing, OpQuotaSet:
		// header and code only
	}
}

// shardStats walks one shard entry, shardEntryLen bytes, in a Stats reply
// and in a Watch frame alike.
func (c *coder) shardStats(st *resd.ShardStats) {
	u64(c, &st.Active)
	u64(c, &st.CommittedArea)
	u64(c, &st.Admitted)
	u64(c, &st.Cancelled)
	u64(c, &st.Rejected)
	u64(c, &st.RejectedDeadline)
	u64(c, &st.RejectedQuota)
	u64(c, &st.SlackP99)
	u64(c, &st.Batches)
	u64(c, &st.Ops)
}

// telemetry walks a Watch frame's body: Seq, Dropped and the whole node
// snapshot.
func (c *coder) telemetry(t *Telemetry) {
	u64(c, &t.Seq)
	u64(c, &t.Dropped)
	c.i32(&t.M)
	c.i32(&t.Floor)
	if t.M < 0 || t.Floor < 0 {
		c.bad("negative telemetry capacity")
	}
	if len(t.Queue) != len(t.Shards) {
		c.bad("%d queue depths for %d shards in telemetry", len(t.Queue), len(t.Shards))
	}
	n := vec(c, &t.Shards, maxShards, watchShardEntryLen)
	if c.dec && n > 0 {
		t.Queue = make([]int, n)
	}
	for i := range n {
		c.i32(&t.Queue[i])
		c.shardStats(&t.Shards[i])
	}
	for i := range vec(c, &t.Tenants, maxTenants, watchTenantEntryLen) {
		tt := &t.Tenants[i]
		c.name(&tt.Tenant)
		u64(c, &tt.Budget)
		u64(c, &tt.Used)
		u64(c, &tt.Inflight)
	}
	for i := range vec(c, &t.WAL, maxShards, watchWALEntryLen) {
		w := &t.WAL[i]
		c.i32(&w.Shard)
		u64(c, &w.Gen)
		u64(c, &w.Bytes)
		u64(c, &w.Records)
		u64(c, &w.Fsyncs)
		u64(c, &w.Snapshots)
		u64(c, &w.FsyncP99)
		u64(c, &w.Failed)
	}
	u64(c, &t.TracesSampled)
	u64(c, &t.TracesSlow)
	for i := range vec(c, &t.SLO, maxSLO, watchSLOEntryLen) {
		o := &t.SLO[i]
		c.name(&o.Name)
		c.name(&o.Tenant)
		u8(c, &o.Signal)
		c.f64(&o.Target)
		c.f64(&o.Attainment)
		c.f64(&o.BudgetRemaining)
		c.f64(&o.BurnMax)
		u8(c, &o.Severity)
		if err := validSLO(o); err != nil {
			c.fail(err)
		}
	}
}

// frame back-fills the length prefix reserved at base once an encoding
// walk is done.
func (c *coder) frame(base int) ([]byte, error) {
	n := len(c.b) - base - 4
	if n > MaxFrame {
		c.bad("%d byte payload exceeds MaxFrame", n)
	}
	if c.err != nil {
		return nil, c.err
	}
	binary.BigEndian.PutUint32(c.b[base:], uint32(n))
	return c.b, nil
}

// done ends a decoding walk: a frame must be consumed exactly.
func (c *coder) done() error {
	switch {
	case c.err != nil:
		return c.err
	case c.short():
		return fmt.Errorf("%w: truncated body", ErrFrame)
	case c.off < len(c.b):
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(c.b)-c.off)
	}
	return nil
}

// AppendRequest encodes req as one frame appended to dst.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	c := coder{b: append(dst, 0, 0, 0, 0)}
	c.request(&req)
	return c.frame(len(dst))
}

// AppendResponse encodes resp as one frame appended to dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	c := coder{b: append(dst, 0, 0, 0, 0)}
	c.response(&resp)
	return c.frame(len(dst))
}

// DecodeRequest parses one request payload (a frame minus its length
// prefix). It never panics on hostile input and consumes the payload
// exactly or fails.
func DecodeRequest(payload []byte) (Request, error) {
	c := coder{b: payload, dec: true}
	var req Request
	c.request(&req)
	if err := c.done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// DecodeResponse parses one response payload. Length-prefixed vectors are
// validated against the remaining payload before allocation, so a hostile
// count cannot force a large allocation.
func DecodeResponse(payload []byte) (Response, error) {
	c := coder{b: payload, dec: true}
	var resp Response
	c.response(&resp)
	if err := c.done(); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// frameReader reads one connection's frames, on both sides. Its buffer
// starts at readBufStart and doubles, up to readBufCap, whenever one read
// from the connection fills it: what the peer sent at once did not fit, and
// the cork (doc.go, "Server") answers a burst one read at a time. A frame
// up to readBufCap grows the buffer to fit and is returned in place, and
// only a larger one is copied out.
type frameReader struct {
	rd   io.Reader
	buf  []byte // the unread bytes are buf[r:w]
	r, w int
	err  error // what the last read returned beside its bytes; every later fill returns it
}

func newFrameReader(rd io.Reader) *frameReader {
	return &frameReader{rd: rd, buf: make([]byte, readBufStart)}
}

// grow doubles the buffer until it holds n bytes, keeping what is unread.
func (fr *frameReader) grow(n int) {
	size := len(fr.buf)
	for size < n {
		size *= 2
	}
	buf := make([]byte, size)
	fr.w = copy(buf, fr.buf[fr.r:fr.w])
	fr.buf, fr.r = buf, 0
}

// fill moves the unread bytes to the front of the buffer and reads once
// into the rest; a read that fills the buffer doubles it, up to readBufCap.
// It reports an error only when the read brought no bytes.
func (fr *frameReader) fill() error {
	if fr.err != nil {
		return fr.err
	}
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	for range 100 { // as bufio does, a reader that keeps returning nothing is given up on
		n, err := fr.rd.Read(fr.buf[fr.w:])
		fr.w += n
		if fr.w == len(fr.buf) && len(fr.buf) < readBufCap {
			fr.grow(2 * len(fr.buf))
		}
		fr.err = err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	fr.err = io.ErrNoProgress
	return fr.err
}

// readFrame reads one length-prefixed payload. A frame up to readBufCap is
// returned in place — a view of the buffer, valid until the next read — and
// only a larger one is copied out; the decoders keep no reference to the
// payload, so readRequest and readResponse read a stream without
// allocating per frame. The length prefix is validated against MaxFrame
// before anything is buffered or allocated.
func (fr *frameReader) readFrame() ([]byte, error) {
	for fr.w-fr.r < 4 {
		if err := fr.fill(); err != nil {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d byte payload exceeds MaxFrame %d", ErrFrame, n, MaxFrame)
	}
	if n < headerLen {
		return nil, fmt.Errorf("%w: %d byte payload shorter than header", ErrFrame, n)
	}
	var err error
	if 4+n <= readBufCap {
		if 4+n > len(fr.buf) {
			fr.grow(4 + n)
		}
		for fr.w-fr.r < 4+n && err == nil {
			err = fr.fill()
		}
		if err == nil {
			payload := fr.buf[fr.r+4 : fr.r+4+n]
			fr.r += 4 + n
			return payload, nil
		}
	} else {
		// Every buffered byte is this frame's: it is larger than the buffer.
		payload := make([]byte, n)
		k := copy(payload, fr.buf[fr.r+4:fr.w])
		fr.r, fr.w = 0, 0
		if err = fr.err; err == nil {
			_, err = io.ReadFull(fr.rd, payload[k:])
		}
		if err == nil {
			return payload, nil
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return nil, fmt.Errorf("%w: truncated frame: %v", ErrFrame, err)
}

// whole reports whether the buffer already holds a whole frame, i.e.
// whether the next readFrame returns without reading.
func (fr *frameReader) whole() bool {
	return fr.w-fr.r >= 4 && fr.w-fr.r-4 >= int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
}

// readRequest reads and decodes one request frame.
func (fr *frameReader) readRequest() (Request, error) {
	payload, err := fr.readFrame()
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(payload)
}

// readResponse reads and decodes one response frame.
func (fr *frameReader) readResponse() (Response, error) {
	payload, err := fr.readFrame()
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(payload)
}
