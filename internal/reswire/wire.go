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

// appendHeader writes the shared frame header (after the length prefix).
func appendHeader(dst []byte, op Op, id uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(op))
	return binary.BigEndian.AppendUint64(dst, id)
}

func appendI64(dst []byte, v int64) []byte      { return binary.BigEndian.AppendUint64(dst, uint64(v)) }
func appendI32(dst []byte, v int32) []byte      { return binary.BigEndian.AppendUint32(dst, uint32(v)) }
func appendTime(dst []byte, t core.Time) []byte { return appendI64(dst, int64(t)) }

// appendName writes a one-byte-length-prefixed tenant name.
func appendName(dst []byte, name string) ([]byte, error) {
	if len(name) > tenant.MaxNameLen {
		return nil, fmt.Errorf("%w: name %d bytes long (max %d)", ErrFrame, len(name), tenant.MaxNameLen)
	}
	dst = append(dst, byte(len(name)))
	return append(dst, name...), nil
}

// appendShardStats writes one shard entry (shardEntryLen bytes), the
// layout reader.shardStats reads back.
func appendShardStats(dst []byte, st *resd.ShardStats) []byte {
	dst = appendI64(dst, int64(st.Active))
	dst = appendI64(dst, st.CommittedArea)
	dst = binary.BigEndian.AppendUint64(dst, st.Admitted)
	dst = binary.BigEndian.AppendUint64(dst, st.Cancelled)
	dst = binary.BigEndian.AppendUint64(dst, st.Rejected)
	dst = binary.BigEndian.AppendUint64(dst, st.RejectedDeadline)
	dst = binary.BigEndian.AppendUint64(dst, st.RejectedQuota)
	dst = appendTime(dst, st.SlackP99)
	dst = binary.BigEndian.AppendUint64(dst, st.Batches)
	return binary.BigEndian.AppendUint64(dst, st.Ops)
}

// validShareBits guards float shares crossing the wire: a share is a
// fraction in (0,1], and hostile bit patterns (NaN, infinities, sign
// games) must fail the frame, not round-trip into arithmetic.
func validShareBits(share float64) bool {
	return !math.IsNaN(share) && share > 0 && share <= 1
}

// finishFrame back-fills the length prefix reserved at base.
func finishFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d byte payload exceeds MaxFrame", ErrFrame, n)
	}
	binary.BigEndian.PutUint32(dst[base:], uint32(n))
	return dst, nil
}

// AppendRequest encodes req as one frame appended to dst.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if !req.Op.valid() {
		return nil, fmt.Errorf("%w: invalid op %d", ErrFrame, uint8(req.Op))
	}
	if req.Procs < -1<<31 || req.Procs > 1<<31-1 || req.Shard < -1<<31 || req.Shard > 1<<31-1 {
		return nil, fmt.Errorf("%w: field exceeds int32 range", ErrFrame)
	}
	var err error
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendHeader(dst, req.Op, req.ID)
	switch req.Op {
	case OpReserve:
		dst = appendTime(dst, req.Ready)
		dst = appendI32(dst, int32(req.Procs))
		dst = appendTime(dst, req.Dur)
		dst = appendTime(dst, req.Deadline)
		if dst, err = appendName(dst, req.Tenant); err != nil {
			return nil, err
		}
		dst = appendI64(dst, req.Stamp)
		var flag byte
		if req.Traced {
			flag = 1
		}
		dst = append(dst, flag)
	case OpCancel:
		dst = binary.BigEndian.AppendUint64(dst, req.Resv)
	case OpQuery:
		dst = appendTime(dst, req.Ready)
	case OpSnapshot:
		dst = appendI32(dst, int32(req.Shard))
	case OpQuotaGet:
		if dst, err = appendName(dst, req.Tenant); err != nil {
			return nil, err
		}
	case OpQuotaSet:
		if !validShareBits(req.Share) {
			return nil, fmt.Errorf("%w: share %v outside (0,1]", ErrFrame, req.Share)
		}
		if dst, err = appendName(dst, req.Tenant); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(req.Share))
	case OpWatch:
		if req.Interval < 0 {
			return nil, fmt.Errorf("%w: watch interval %v negative", ErrFrame, req.Interval)
		}
		dst = appendI64(dst, int64(req.Interval))
	case OpPing, OpStats:
		// header only
	}
	return finishFrame(dst, base)
}

// AppendResponse encodes resp as one frame appended to dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	if !resp.Op.valid() {
		return nil, fmt.Errorf("%w: invalid op %d", ErrFrame, uint8(resp.Op))
	}
	if resp.Code > CodeRejectedQuota {
		return nil, fmt.Errorf("%w: unknown code %d", ErrFrame, uint8(resp.Code))
	}
	var err error
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendHeader(dst, resp.Op, resp.ID)
	dst = append(dst, byte(resp.Code))
	if resp.Code != CodeOK {
		detail := resp.Detail
		if len(detail) > maxDetail {
			detail = detail[:maxDetail]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(detail)))
		dst = append(dst, detail...)
		return finishFrame(dst, base)
	}
	switch resp.Op {
	case OpReserve:
		dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Resv.ID))
		dst = appendI32(dst, int32(resp.Resv.Shard))
		dst = appendTime(dst, resp.Resv.Start)
		dst = appendTime(dst, resp.Resv.Dur)
		dst = appendI32(dst, int32(resp.Resv.Procs))
	case OpQuery:
		if dst, err = appendCount(dst, len(resp.Free), maxShards, "shards in Query response"); err != nil {
			return nil, err
		}
		for _, f := range resp.Free {
			dst = appendI32(dst, int32(f))
		}
	case OpSnapshot:
		if resp.M < -1<<31 || resp.M > 1<<31-1 {
			return nil, fmt.Errorf("%w: snapshot machine size exceeds int32 range", ErrFrame)
		}
		dst = appendI32(dst, int32(resp.M))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Segs)))
		for _, s := range resp.Segs {
			dst = appendTime(dst, s.Start)
			dst = appendI32(dst, int32(s.Free))
		}
	case OpStats:
		if dst, err = appendCount(dst, len(resp.Stats), maxShards, "shards in Stats response"); err != nil {
			return nil, err
		}
		for i := range resp.Stats {
			dst = appendShardStats(dst, &resp.Stats[i])
		}
	case OpQuotaGet:
		q := resp.Quota
		if !validShareBits(q.Share) {
			return nil, fmt.Errorf("%w: quota share %v outside (0,1]", ErrFrame, q.Share)
		}
		if dst, err = appendName(dst, q.Tenant); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(q.Share))
		dst = appendI64(dst, q.Capacity)
		dst = appendI64(dst, q.Budget)
		dst = appendI64(dst, q.Used)
		dst = appendI64(dst, q.Inflight)
		dst = binary.BigEndian.AppendUint64(dst, q.Admitted)
		dst = binary.BigEndian.AppendUint64(dst, q.Cancelled)
		dst = binary.BigEndian.AppendUint64(dst, q.Rejected)
	case OpWatch:
		if resp.Telemetry == nil {
			return nil, fmt.Errorf("%w: watch response without telemetry", ErrFrame)
		}
		if dst, err = appendTelemetry(dst, resp.Telemetry); err != nil {
			return nil, err
		}
	case OpCancel, OpPing, OpQuotaSet:
		// header + code only
	}
	return finishFrame(dst, base)
}

// appendCount writes a vector's length, refusing one the decoder would
// refuse for exceeding max.
func appendCount(dst []byte, n, max int, what string) ([]byte, error) {
	if n > max {
		return nil, fmt.Errorf("%w: %d %s", ErrFrame, n, what)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(n)), nil
}

// appendTelemetry writes a Watch frame's body: Seq, Dropped and the whole
// node snapshot, the layout reader.telemetry reads back.
func appendTelemetry(dst []byte, t *Telemetry) ([]byte, error) {
	if t.M < 0 || t.M > 1<<31-1 || t.Floor < 0 || t.Floor > 1<<31-1 {
		return nil, fmt.Errorf("%w: telemetry capacity exceeds int32 range", ErrFrame)
	}
	if len(t.Queue) != len(t.Shards) {
		return nil, fmt.Errorf("%w: %d queue depths for %d shards in telemetry", ErrFrame, len(t.Queue), len(t.Shards))
	}
	var err error
	dst = binary.BigEndian.AppendUint64(dst, t.Seq)
	dst = binary.BigEndian.AppendUint64(dst, t.Dropped)
	dst = appendI32(dst, int32(t.M))
	dst = appendI32(dst, int32(t.Floor))
	if dst, err = appendCount(dst, len(t.Shards), maxShards, "shards in telemetry"); err != nil {
		return nil, err
	}
	for i, q := range t.Queue {
		if q < -1<<31 || q > 1<<31-1 {
			return nil, fmt.Errorf("%w: queue depth exceeds int32 range", ErrFrame)
		}
		dst = appendI32(dst, int32(q))
		dst = appendShardStats(dst, &t.Shards[i])
	}
	if dst, err = appendCount(dst, len(t.Tenants), maxTenants, "tenants in telemetry"); err != nil {
		return nil, err
	}
	for _, tt := range t.Tenants {
		if dst, err = appendName(dst, tt.Tenant); err != nil {
			return nil, err
		}
		dst = appendI64(dst, tt.Budget)
		dst = appendI64(dst, tt.Used)
		dst = appendI64(dst, tt.Inflight)
	}
	if dst, err = appendCount(dst, len(t.WAL), maxShards, "WAL entries in telemetry"); err != nil {
		return nil, err
	}
	for _, w := range t.WAL {
		if w.Shard < -1<<31 || w.Shard > 1<<31-1 {
			return nil, fmt.Errorf("%w: WAL shard exceeds int32 range", ErrFrame)
		}
		dst = appendI32(dst, int32(w.Shard))
		dst = binary.BigEndian.AppendUint64(dst, w.Gen)
		dst = binary.BigEndian.AppendUint64(dst, w.Bytes)
		dst = binary.BigEndian.AppendUint64(dst, w.Records)
		dst = binary.BigEndian.AppendUint64(dst, w.Fsyncs)
		dst = binary.BigEndian.AppendUint64(dst, w.Snapshots)
		dst = appendI64(dst, w.FsyncP99)
		dst = binary.BigEndian.AppendUint64(dst, w.Failed)
	}
	dst = binary.BigEndian.AppendUint64(dst, t.TracesSampled)
	dst = binary.BigEndian.AppendUint64(dst, t.TracesSlow)
	if dst, err = appendCount(dst, len(t.SLO), maxSLO, "SLO entries in telemetry"); err != nil {
		return nil, err
	}
	for _, o := range t.SLO {
		if err := validSLO(&o); err != nil {
			return nil, err
		}
		if dst, err = appendName(dst, o.Name); err != nil {
			return nil, err
		}
		if dst, err = appendName(dst, o.Tenant); err != nil {
			return nil, err
		}
		dst = append(dst, byte(o.Signal))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.Target))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.Attainment))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.BudgetRemaining))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.BurnMax))
		dst = append(dst, byte(o.Severity))
	}
	return dst, nil
}

// reader is a bounds-checked cursor over one frame payload.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated body at offset %d", ErrFrame, r.off)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32      { return int32(r.u32()) }
func (r *reader) i64() int64      { return int64(r.u64()) }
func (r *reader) time() core.Time { return core.Time(r.i64()) }
func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// header consumes and validates the shared frame header, returning op
// and id.
func (r *reader) header() (Op, uint64) {
	if magic := r.u16(); r.err == nil && magic != Magic {
		r.err = fmt.Errorf("%w: magic %#04x", ErrFrame, magic)
	}
	if v := r.u8(); r.err == nil && v != Version {
		r.err = fmt.Errorf("%w: got %d, speak %d", ErrVersion, v, Version)
	}
	op := Op(r.u8())
	if r.err == nil && !op.valid() {
		r.err = fmt.Errorf("%w: unknown op %d", ErrFrame, uint8(op))
	}
	return op, r.u64()
}

// shardStats reads one shard entry (shardEntryLen bytes), the layout
// appendShardStats writes.
func (r *reader) shardStats(st *resd.ShardStats) {
	st.Active = int(r.i64())
	st.CommittedArea = r.i64()
	st.Admitted = r.u64()
	st.Cancelled = r.u64()
	st.Rejected = r.u64()
	st.RejectedDeadline = r.u64()
	st.RejectedQuota = r.u64()
	st.SlackP99 = r.time()
	st.Batches = r.u64()
	st.Ops = r.u64()
}

// count reads a vector's length and fails the frame, before anything is
// allocated, when it exceeds max or when that many entries of at least
// min bytes each overrun the payload. It returns 0 on failure; callers
// allocate only for a positive count, so an empty vector decodes as nil,
// as resd returns an absent one.
func (r *reader) count(max, min int) int {
	n := r.u32()
	if r.err == nil && (n > uint32(max) || min*int(n) > len(r.b)-r.off) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// name reads a one-byte-length-prefixed tenant name.
func (r *reader) name() string {
	n := int(r.u8())
	return string(r.bytes(n))
}

// share reads a float64 share and enforces the (0,1] protocol range.
func (r *reader) share() float64 {
	s := math.Float64frombits(r.u64())
	if r.err == nil && !validShareBits(s) {
		r.err = fmt.Errorf("%w: share %v outside (0,1]", ErrFrame, s)
	}
	return s
}

// done rejects trailing bytes: a frame must be consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(r.b)-r.off)
	}
	return nil
}

// telemetry reads a Watch frame's body, the layout appendTelemetry
// writes.
func (r *reader) telemetry() *Telemetry {
	t := &Telemetry{}
	t.Seq = r.u64()
	t.Dropped = r.u64()
	t.M = int(r.i32())
	t.Floor = int(r.i32())
	if r.err == nil && (t.M < 0 || t.Floor < 0) {
		r.err = fmt.Errorf("%w: negative telemetry capacity", ErrFrame)
	}
	if n := r.count(maxShards, watchShardEntryLen); n > 0 {
		t.Queue = make([]int, n)
		t.Shards = make([]resd.ShardStats, n)
		for i := range t.Shards {
			t.Queue[i] = int(r.i32())
			r.shardStats(&t.Shards[i])
		}
	}
	if n := r.count(maxTenants, watchTenantEntryLen); n > 0 {
		t.Tenants = make([]resd.TenantLoad, n)
		for i := range t.Tenants {
			t.Tenants[i].Tenant = r.name()
			t.Tenants[i].Budget = r.i64()
			t.Tenants[i].Used = r.i64()
			t.Tenants[i].Inflight = r.i64()
		}
	}
	if n := r.count(maxShards, watchWALEntryLen); n > 0 {
		t.WAL = make([]resd.WALShardStats, n)
		for i := range t.WAL {
			w := &t.WAL[i]
			w.Shard = int(r.i32())
			w.Gen = r.u64()
			w.Bytes = r.u64()
			w.Records = r.u64()
			w.Fsyncs = r.u64()
			w.Snapshots = r.u64()
			w.FsyncP99 = r.i64()
			w.Failed = r.u64()
		}
	}
	t.TracesSampled = r.u64()
	t.TracesSlow = r.u64()
	if n := r.count(maxSLO, watchSLOEntryLen); n > 0 {
		t.SLO = make([]slo.State, n)
		for i := range t.SLO {
			o := &t.SLO[i]
			o.Name = r.name()
			o.Tenant = r.name()
			o.Signal = slo.Signal(r.u8())
			o.Target = math.Float64frombits(r.u64())
			o.Attainment = math.Float64frombits(r.u64())
			o.BudgetRemaining = math.Float64frombits(r.u64())
			o.BurnMax = math.Float64frombits(r.u64())
			o.Severity = slo.Severity(r.u8())
			if r.err == nil {
				r.err = validSLO(o)
			}
		}
	}
	return t
}

// DecodeRequest parses one request payload (a frame minus its length
// prefix). It never panics on hostile input and consumes the payload
// exactly or fails.
func DecodeRequest(payload []byte) (Request, error) {
	r := &reader{b: payload}
	var req Request
	req.Op, req.ID = r.header()
	if r.err != nil {
		return Request{}, r.err
	}
	switch req.Op {
	case OpReserve:
		req.Ready = r.time()
		req.Procs = int(r.i32())
		req.Dur = r.time()
		req.Deadline = r.time()
		req.Tenant = r.name()
		req.Stamp = r.i64()
		flag := r.u8()
		if r.err == nil && flag > 1 {
			r.err = fmt.Errorf("%w: trace flag %d", ErrFrame, flag)
		}
		req.Traced = flag == 1
	case OpCancel:
		req.Resv = r.u64()
	case OpQuery:
		req.Ready = r.time()
	case OpSnapshot:
		req.Shard = int(r.i32())
	case OpQuotaGet:
		req.Tenant = r.name()
	case OpQuotaSet:
		req.Tenant = r.name()
		req.Share = r.share()
	case OpWatch:
		req.Interval = time.Duration(r.i64())
		if r.err == nil && req.Interval < 0 {
			r.err = fmt.Errorf("%w: watch interval %v negative", ErrFrame, req.Interval)
		}
	case OpPing, OpStats:
	}
	if err := r.done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// DecodeResponse parses one response payload. Length-prefixed vectors are
// validated against the remaining payload before allocation, so a hostile
// count cannot force a large allocation.
func DecodeResponse(payload []byte) (Response, error) {
	r := &reader{b: payload}
	var resp Response
	resp.Op, resp.ID = r.header()
	if r.err != nil {
		return Response{}, r.err
	}
	resp.Code = Code(r.u8())
	if r.err == nil && resp.Code > CodeRejectedQuota {
		return Response{}, fmt.Errorf("%w: unknown code %d", ErrFrame, uint8(resp.Code))
	}
	if resp.Code != CodeOK {
		n := int(r.u16())
		if n > maxDetail {
			r.err = fmt.Errorf("%w: %d byte error detail", ErrFrame, n)
		}
		resp.Detail = string(r.bytes(n))
		if err := r.done(); err != nil {
			return Response{}, err
		}
		return resp, nil
	}
	switch resp.Op {
	case OpReserve:
		resp.Resv.ID = resd.ID(r.u64())
		resp.Resv.Shard = int(r.i32())
		resp.Resv.Start = r.time()
		resp.Resv.Dur = r.time()
		resp.Resv.Procs = int(r.i32())
	case OpQuery:
		if n := r.count(maxShards, 4); n > 0 {
			resp.Free = make([]int, n)
			for i := range resp.Free {
				resp.Free[i] = int(r.i32())
			}
		}
	case OpSnapshot:
		resp.M = int(r.i32())
		if n := r.count(MaxFrame, 12); n > 0 {
			resp.Segs = make([]Segment, n)
			for i := range resp.Segs {
				resp.Segs[i].Start = r.time()
				resp.Segs[i].Free = int(r.i32())
			}
		}
	case OpStats:
		if n := r.count(maxShards, shardEntryLen); n > 0 {
			resp.Stats = make([]resd.ShardStats, n)
			for i := range resp.Stats {
				r.shardStats(&resp.Stats[i])
			}
		}
	case OpQuotaGet:
		resp.Quota.Tenant = r.name()
		resp.Quota.Share = r.share()
		resp.Quota.Capacity = r.i64()
		resp.Quota.Budget = r.i64()
		resp.Quota.Used = r.i64()
		resp.Quota.Inflight = r.i64()
		resp.Quota.Admitted = r.u64()
		resp.Quota.Cancelled = r.u64()
		resp.Quota.Rejected = r.u64()
	case OpWatch:
		resp.Telemetry = r.telemetry()
	case OpCancel, OpPing, OpQuotaSet:
	}
	if err := r.done(); err != nil {
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
