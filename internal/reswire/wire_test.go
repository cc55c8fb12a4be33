package reswire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// sampleRequests covers every op and the interesting field values
// (deadline sentinel, zero, large).
func sampleRequests() []Request {
	return []Request{
		{ID: 1, Op: OpReserve, Ready: 0, Procs: 1, Dur: 1, Deadline: resd.NoDeadline},
		{ID: 2, Op: OpReserve, Ready: 1 << 40, Procs: 1 << 20, Dur: 7, Deadline: 99},
		{ID: 3, Op: OpCancel, Resv: 0xFFFF_0000_0000_0001},
		{ID: 4, Op: OpQuery, Ready: 12345},
		{ID: 5, Op: OpSnapshot, Shard: 3},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpStats},
	}
}

func sampleResponses() []Response {
	return []Response{
		{ID: 1, Op: OpReserve, Code: CodeOK,
			Resv: resd.Reservation{ID: 42, Shard: 2, Start: 100, Dur: 10, Procs: 8}},
		{ID: 2, Op: OpReserve, Code: CodeRejectedDeadline, Detail: "earliest 120 > deadline 99"},
		{ID: 3, Op: OpCancel, Code: CodeOK},
		{ID: 4, Op: OpQuery, Code: CodeOK, Free: []int{64, 0, 17}},
		{ID: 5, Op: OpSnapshot, Code: CodeOK, M: 8,
			Segs: []Segment{{Start: 0, Free: 8}, {Start: 10, Free: 3}, {Start: 20, Free: 8}}},
		{ID: 6, Op: OpPing, Code: CodeOK},
		{ID: 7, Op: OpStats, Code: CodeOK, Stats: []resd.ShardStats{
			{Active: 3, CommittedArea: 1000, Admitted: 10, Cancelled: 7, Rejected: 2,
				RejectedDeadline: 1, Batches: 5, Ops: 20},
		}},
		{ID: 8, Op: OpCancel, Code: CodeUnknownID, Detail: "0xdead on shard 0"},
		{ID: 9, Op: OpQuery, Code: CodeOK, Free: []int{}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := newFrameReader(bytes.NewReader(frame)).readRequest()
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got != req {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := newFrameReader(bytes.NewReader(frame)).readResponse()
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		// Empty vs nil slices are indistinguishable on the wire; normalise.
		if len(got.Free) == 0 {
			got.Free = resp.Free
		}
		if len(got.Segs) == 0 {
			got.Segs = resp.Segs
		}
		if len(got.Stats) == 0 {
			got.Stats = resp.Stats
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, resp)
		}
	}
}

func TestV2ReserveCarriesTenant(t *testing.T) {
	req := Request{ID: 9, Op: OpReserve, Ready: 1, Procs: 2, Dur: 3, Deadline: resd.NoDeadline, Tenant: "acme"}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newFrameReader(bytes.NewReader(frame)).readRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestManyFramesPerStream(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for _, req := range reqs {
		var err error
		stream, err = AppendRequest(stream, req)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(bytes.NewReader(stream))
	for i, want := range reqs {
		got, err := fr.readRequest()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.readRequest(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	valid, err := AppendRequest(nil, Request{ID: 9, Op: OpReserve, Ready: 5, Procs: 2, Dur: 3, Deadline: resd.NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated length prefix", valid[:2], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-3], ErrFrame},
		{"bad magic", mutate(func(b []byte) { b[4] = 'X' }), ErrFrame},
		{"bad version", mutate(func(b []byte) { b[6] = 99 }), ErrVersion},
		{"unknown op", mutate(func(b []byte) { b[7] = 200 }), ErrFrame},
		{"oversized length", mutate(func(b []byte) {
			binary.BigEndian.PutUint32(b, MaxFrame+1)
		}), ErrFrame},
		{"length shorter than header", mutate(func(b []byte) {
			binary.BigEndian.PutUint32(b, headerLen-1)
		}), ErrFrame},
		{"trailing bytes", func() []byte {
			b := bytes.Clone(valid)
			b = append(b, 0xAA)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(), ErrFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := newFrameReader(bytes.NewReader(c.in)).readRequest()
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestDecodeResponseBoundsVectors(t *testing.T) {
	// A Query response claiming 2^16 shards with a near-empty body must be
	// rejected before allocation.
	b := frameAt(Version, OpQuery, byte(CodeOK), 0, 1, 0, 0)
	if _, err := newFrameReader(bytes.NewReader(b)).readResponse(); !errors.Is(err, ErrFrame) {
		t.Errorf("err = %v, want ErrFrame", err)
	}
}

func TestCodeErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{nil, CodeOK},
		{resd.ErrBadRequest, CodeBadRequest},
		{resd.ErrNeverFits, CodeNeverFits},
		{resd.ErrUnknownID, CodeUnknownID},
		{resd.ErrClosed, CodeClosed},
		{resd.ErrDeadline, CodeRejectedDeadline},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.code {
			t.Errorf("CodeOf(%v) = %v, want %v", c.err, got, c.code)
		}
		if c.code == CodeOK || c.code == CodeInternal {
			continue
		}
		// The round trip error→code→error must preserve errors.Is.
		if back := c.code.Err("detail"); !errors.Is(back, c.err) {
			t.Errorf("Code %v .Err() = %v, lost errors.Is(%v)", c.code, back, c.err)
		}
	}
	if CodeRejectedDeadline.String() != "REJECTED_DEADLINE" {
		t.Errorf("CodeRejectedDeadline.String() = %q", CodeRejectedDeadline.String())
	}
}

// goldenFrames is the frozen wire layout: every op as a request and as an
// OK response, and one error response, with every field the frame carries
// set to a value of its own. The hex is the whole frame, length prefix
// included. A change to any of these bytes is a change of protocol, which
// this package no longer negotiates: it needs a new version byte.
var goldenFrames = []struct {
	name string
	hex  string
	req  *Request
	resp *Response
}{
	{name: "req/Reserve", hex: "00000036525706010102030405060708000000000000000a0000000400000000000000147fffffffffffffff0461636d" +
		"6517979cfe362a000001",
		req: &Request{ID: 0x0102030405060708, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20,
			Deadline: resd.NoDeadline, Tenant: "acme", Stamp: 1_700_000_000_000_000_000, Traced: true}},
	{name: "req/Cancel", hex: "00000014525706020000000000000002ffff000000000001",
		req: &Request{ID: 2, Op: OpCancel, Resv: 0xFFFF_0000_0000_0001}},
	{name: "req/Query", hex: "000000145257060300000000000000030000000000003039",
		req: &Request{ID: 3, Op: OpQuery, Ready: 12345}},
	{name: "req/Snapshot", hex: "0000001052570604000000000000000400000003",
		req: &Request{ID: 4, Op: OpSnapshot, Shard: 3}},
	{name: "req/Ping", hex: "0000000c525706050000000000000005",
		req: &Request{ID: 5, Op: OpPing}},
	{name: "req/Stats", hex: "0000000c525706060000000000000006",
		req: &Request{ID: 6, Op: OpStats}},
	{name: "req/QuotaGet", hex: "000000115257060700000000000000070461636d65",
		req: &Request{ID: 7, Op: OpQuotaGet, Tenant: "acme"}},
	{name: "req/QuotaSet", hex: "000000195257060800000000000000080461636d653fd0000000000000",
		req: &Request{ID: 8, Op: OpQuotaSet, Tenant: "acme", Share: 0.25}},
	{name: "req/Watch", hex: "00000014525706090000000000000009000000000ee6b280",
		req: &Request{ID: 9, Op: OpWatch, Interval: 250 * time.Millisecond}},

	{name: "resp/Reserve", hex: "0000002d52570601010203040506070800000200000000002a000000020000000000000064000000000000000a000000" +
		"08",
		resp: &Response{ID: 0x0102030405060708, Op: OpReserve,
			Resv: resd.Reservation{ID: 42 | 2<<48, Shard: 2, Start: 100, Dur: 10, Procs: 8}}},
	{name: "resp/Cancel", hex: "0000000d52570602000000000000000200",
		resp: &Response{ID: 2, Op: OpCancel}},
	{name: "resp/Query", hex: "0000001d5257060300000000000000030000000003000000400000000000000011",
		resp: &Response{ID: 3, Op: OpQuery, Free: []int{64, 0, 17}}},
	{name: "resp/Snapshot", hex: "00000039525706040000000000000004000000000800000003000000000000000000000008000000000000000a000000" +
		"03000000000000001400000008",
		resp: &Response{ID: 4, Op: OpSnapshot, M: 8,
			Segs: []Segment{{Start: 0, Free: 8}, {Start: 10, Free: 3}, {Start: 20, Free: 8}}}},
	{name: "resp/Ping", hex: "0000000d52570605000000000000000500",
		resp: &Response{ID: 5, Op: OpPing}},
	{name: "resp/Stats", hex: "000000615257060600000000000000060000000001000000000000000500000000000004d2000000000000000a000000" +
		"000000000200000000000000010000000000000003000000000000000400000000000000630000000000000007000000" +
		"0000000014",
		resp: &Response{ID: 6, Op: OpStats, Stats: []resd.ShardStats{goldenShard}}},
	{name: "resp/QuotaGet", hex: "00000052525706070000000000000007000461636d653fe0000000000000000000000010000000000000000800000000" +
		"00000000004d0000000000000003000000000000000900000000000000060000000000000002",
		resp: &Response{ID: 7, Op: OpQuotaGet, Quota: goldenQuota}},
	{name: "resp/QuotaSet", hex: "0000000d52570608000000000000000800",
		resp: &Response{ID: 8, Op: OpQuotaSet}},
	{name: "resp/Watch", hex: "000001225257060900000000000000090000000000000000070000000000000002000000400000001000000001000000" +
		"03000000000000000500000000000004d2000000000000000a0000000000000002000000000000000100000000000000" +
		"030000000000000004000000000000006300000000000000070000000000000014000000010461636d65000000000000" +
		"006400000000000000280000000000000002000000010000000100000000000000030000000000001000000000000000" +
		"001100000000000000090000000000000002000000000001d4c00000000000000001000000000000000b000000000000" +
		"00010000000108646561646c696e650461636d65013fefae147ae147ae3fef0a3d70a3d70ac000000000000000402d00" +
		"000000000002",
		resp: &Response{ID: 9, Op: OpWatch, Telemetry: goldenTelemetry}},
	{name: "resp/error", hex: "0000002652570601000000000000000b07001774656e616e742061636d65206f76657220627564676574",
		resp: &Response{ID: 11, Op: OpReserve, Code: CodeRejectedQuota, Detail: "tenant acme over budget"}},
}

// goldenShard is the 80-byte shard entry the Stats reply and every Watch
// frame carry.
var goldenShard = resd.ShardStats{Active: 5, CommittedArea: 1234, Admitted: 10, Cancelled: 2, Rejected: 1,
	RejectedDeadline: 3, RejectedQuota: 4, SlackP99: 99, Batches: 7, Ops: 20}

// goldenTelemetry is the Watch frame's value: the whole node snapshot,
// every family present.
var goldenTelemetry = &Telemetry{
	Seq: 7, Dropped: 2, NodeSnapshot: resd.NodeSnapshot{M: 64, Floor: 16,
		Queue: []int{3}, Shards: []resd.ShardStats{goldenShard},
		Tenants:       []resd.TenantLoad{{Tenant: "acme", Budget: 100, Used: 40, Inflight: 2}},
		WAL:           []resd.WALShardStats{{Shard: 1, Gen: 3, Bytes: 4096, Records: 17, Fsyncs: 9, Snapshots: 2, FsyncP99: 120000, Failed: 1}},
		TracesSampled: 11, TracesSlow: 1,
		SLO: []slo.State{{Name: "deadline", Tenant: "acme", Signal: slo.Slack, Target: 0.99,
			Attainment: 0.97, BudgetRemaining: -2, BurnMax: 14.5, Severity: slo.SevPage}}}}

// goldenQuota is the QuotaGet reply's value.
var goldenQuota = QuotaInfo{Capacity: 1 << 20, Usage: tenant.Usage{
	Tenant: "acme", Share: 0.5, Budget: 1 << 19, Used: 77, Inflight: 3, Admitted: 9, Cancelled: 6, Rejected: 2}}

// TestGoldenFrames makes "frozen" enforceable: each value encodes to
// exactly its recorded bytes, and the recorded bytes decode to the value.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if g.req != nil {
			got, err := AppendRequest(nil, *g.req)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: encodes to\n %x (err %v), recorded\n %x", g.name, got, err, want)
			}
			if dec, err := DecodeRequest(want[4:]); err != nil || dec != *g.req {
				t.Errorf("%s: recorded frame decodes to %+v (err %v), want %+v", g.name, dec, err, *g.req)
			}
			continue
		}
		got, err := AppendResponse(nil, *g.resp)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to\n %x (err %v), recorded\n %x", g.name, got, err, want)
		}
		if dec, err := DecodeResponse(want[4:]); err != nil || !reflect.DeepEqual(dec, *g.resp) {
			t.Errorf("%s: recorded frame decodes to %+v (err %v), want %+v", g.name, dec, err, *g.resp)
		}
	}
}

// TestEncodeRefusesWhatDecodeRefuses holds each field rule to both
// directions: the bad value fails AppendRequest or AppendResponse with
// ErrFrame, and the bytes it stands for, framed by hand, fail
// DecodeRequest or DecodeResponse with ErrFrame. A row has one side only
// where the other cannot hold the bad value: four bytes hold no int past
// int32 and one length byte no name past tenant.MaxNameLen (255), a bool
// is no third flag value, and an encoded vector carries every entry it
// counts. Two rows encode: the encoder cuts an error detail to the
// maxDetail bytes the decoder takes, and it checks Procs and Shard only
// on the ops whose frames carry them.
func TestEncodeRefusesWhatDecodeRefuses(t *testing.T) {
	be := binary.BigEndian
	f64 := func(v float64) []byte { return be.AppendUint64(nil, math.Float64bits(v)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	acme := []byte{4, 'a', 'c', 'm', 'e'}
	long := strings.Repeat("t", tenant.MaxNameLen+1)
	detail := strings.Repeat("d", maxDetail+1)
	// A Reserve body with the given trace flag byte: reserveV1's fields,
	// the default tenant and no stamp.
	reserve := func(flag byte) []byte { return cat(reserveV1, []byte{0}, make([]byte, 8), []byte{flag}) }
	// A Watch reply's telemetry: M and Floor, every vector empty.
	telemetry := func(m uint32) []byte {
		return cat([]byte{byte(CodeOK)}, make([]byte, 16), be.AppendUint32(nil, m), make([]byte, 4+3*4+16+4))
	}
	withSLO := func(o slo.State) *Telemetry {
		tel := *goldenTelemetry
		tel.SLO = []slo.State{o}
		return &tel
	}
	golden := goldenTelemetry.SLO[0]
	goldenWatch := func() []byte {
		for _, g := range goldenFrames {
			if g.name == "resp/Watch" {
				b, _ := hex.DecodeString(g.hex)
				return b
			}
		}
		t.Fatal("no golden Watch frame")
		return nil
	}()
	// sloFrame is the golden Watch frame with one float of its objective
	// replaced.
	sloFrame := func(old, bad float64) []byte {
		if bytes.Count(goldenWatch, f64(old)) != 1 {
			t.Fatalf("golden Watch frame holds %v other than once", old)
		}
		return bytes.Replace(goldenWatch, f64(old), f64(bad), 1)
	}
	target, burn := golden, golden
	target.Target, burn.BurnMax = 1.5, -1

	rows := []struct {
		name  string
		req   *Request  // encoded: refused, unless keep is set
		resp  *Response // the same, for a response
		keep  any       // what the encoded value decodes to, when the encoder takes it
		frame []byte    // hand-framed, with its length prefix: refused by the decoder
		reply bool      // frame is a response
	}{
		{name: "int32/reserve-procs", req: &Request{ID: 1, Op: OpReserve, Procs: 1 << 31, Deadline: resd.NoDeadline}},
		{name: "int32/snapshot-shard", req: &Request{ID: 1, Op: OpSnapshot, Shard: -1<<31 - 1}},
		{name: "int32/reserve-reply-procs", resp: &Response{ID: 1, Op: OpReserve, Resv: resd.Reservation{Procs: 1 << 31}}},
		{name: "int32/query-free", resp: &Response{ID: 1, Op: OpQuery, Free: []int{1, 1 << 32}}},
		{name: "int32/snapshot-m", resp: &Response{ID: 1, Op: OpSnapshot, M: 1 << 31}},
		{name: "int32/telemetry-queue", resp: &Response{ID: 1, Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{
			Queue: []int{1 << 31}, Shards: []resd.ShardStats{{}}}}}},
		{name: "telemetry-capacity-negative", resp: &Response{ID: 1, Op: OpWatch, Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{M: -1}}},
			frame: frameAt(Version, OpWatch, telemetry(1<<32-1)...), reply: true},
		{name: "name/quota-get", req: &Request{ID: 1, Op: OpQuotaGet, Tenant: long}},
		{name: "name/reserve", req: &Request{ID: 1, Op: OpReserve, Deadline: resd.NoDeadline, Tenant: long}},
		{name: "name/quota-reply", resp: &Response{ID: 1, Op: OpQuotaGet, Quota: QuotaInfo{Usage: tenant.Usage{Tenant: long, Share: 0.5}}}},
		{name: "share/zero", req: &Request{ID: 1, Op: OpQuotaSet, Tenant: "acme"},
			frame: frameAt(Version, OpQuotaSet, cat(acme, f64(0))...)},
		{name: "share/above-one", req: &Request{ID: 1, Op: OpQuotaSet, Tenant: "acme", Share: 1.5},
			frame: frameAt(Version, OpQuotaSet, cat(acme, f64(1.5))...)},
		{name: "share/negative", req: &Request{ID: 1, Op: OpQuotaSet, Tenant: "acme", Share: -0.25},
			frame: frameAt(Version, OpQuotaSet, cat(acme, f64(-0.25))...)},
		{name: "share/nan", req: &Request{ID: 1, Op: OpQuotaSet, Tenant: "acme", Share: math.NaN()},
			frame: frameAt(Version, OpQuotaSet, cat(acme, f64(math.NaN()))...)},
		{name: "share/quota-reply", resp: &Response{ID: 1, Op: OpQuotaGet, Quota: QuotaInfo{Usage: tenant.Usage{Tenant: "acme", Share: math.Inf(1)}}},
			frame: frameAt(Version, OpQuotaGet, cat([]byte{byte(CodeOK)}, acme, f64(math.Inf(1)), make([]byte, 7*8))...), reply: true},
		{name: "watch-interval-negative", req: &Request{ID: 1, Op: OpWatch, Interval: -1},
			frame: frameAt(Version, OpWatch, be.AppendUint64(nil, 1<<64-1)...)},
		{name: "trace-flag", frame: frameAt(Version, OpReserve, reserve(2)...)},
		{name: "op/request-zero", req: &Request{ID: 1}, frame: frameAt(Version, 0)},
		{name: "op/request-past-watch", req: &Request{ID: 1, Op: OpWatch + 1}, frame: frameAt(Version, OpWatch+1)},
		{name: "op/response", resp: &Response{ID: 1, Op: OpWatch + 1}, frame: frameAt(Version, OpWatch+1, byte(CodeOK)), reply: true},
		{name: "code", resp: &Response{ID: 1, Op: OpReserve, Code: CodeRejectedQuota + 1},
			frame: frameAt(Version, OpReserve, byte(CodeRejectedQuota+1), 0, 0), reply: true},
		{name: "count/past-max", resp: &Response{ID: 1, Op: OpQuery, Free: make([]int, maxShards+1)},
			frame: frameAt(Version, OpQuery, cat([]byte{byte(CodeOK)}, be.AppendUint32(nil, maxShards+1), make([]byte, 4*(maxShards+1)))...), reply: true},
		{name: "count/past-payload", frame: frameAt(Version, OpQuery, cat([]byte{byte(CodeOK)}, be.AppendUint32(nil, 3), make([]byte, 8))...), reply: true},
		{name: "slo/target", resp: &Response{ID: 9, Op: OpWatch, Telemetry: withSLO(target)}, frame: sloFrame(golden.Target, target.Target), reply: true},
		{name: "slo/burn", resp: &Response{ID: 9, Op: OpWatch, Telemetry: withSLO(burn)}, frame: sloFrame(golden.BurnMax, burn.BurnMax), reply: true},
		{name: "detail", resp: &Response{ID: 1, Op: OpReserve, Code: CodeBadRequest, Detail: detail},
			keep:  Response{ID: 1, Op: OpReserve, Code: CodeBadRequest, Detail: detail[:maxDetail]},
			frame: frameAt(Version, OpReserve, cat([]byte{byte(CodeBadRequest)}, be.AppendUint16(nil, maxDetail+1), []byte(detail))...), reply: true},
		{name: "int32/ping-carries-neither", req: &Request{ID: 1, Op: OpPing, Procs: 1 << 31, Shard: 1 << 40},
			keep: Request{ID: 1, Op: OpPing}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var frame []byte
			var err error
			switch {
			case r.req != nil:
				frame, err = AppendRequest(nil, *r.req)
			case r.resp != nil:
				frame, err = AppendResponse(nil, *r.resp)
			}
			switch {
			case r.keep != nil && err != nil:
				t.Fatalf("encode: %v, want it taken", err)
			case r.keep != nil:
				var got any
				if r.req != nil {
					got, err = DecodeRequest(frame[4:])
				} else {
					got, err = DecodeResponse(frame[4:])
				}
				if err != nil || !reflect.DeepEqual(got, r.keep) {
					t.Fatalf("encoded frame decodes to %+v (err %v), want %+v", got, err, r.keep)
				}
			case (r.req != nil || r.resp != nil) && !errors.Is(err, ErrFrame):
				t.Errorf("encode err = %v (frame %x), want ErrFrame", err, frame)
			}
			if r.frame == nil {
				return
			}
			if r.reply {
				_, err = DecodeResponse(r.frame[4:])
			} else {
				_, err = DecodeRequest(r.frame[4:])
			}
			if !errors.Is(err, ErrFrame) {
				t.Errorf("decode err = %v, want ErrFrame", err)
			}
		})
	}

	// The bytes-left rule holds before allocating: a count the payload
	// cannot hold fails without its vector being made.
	hostile := frameAt(Version, OpQuery, cat([]byte{byte(CodeOK)}, be.AppendUint32(nil, maxShards), make([]byte, 8))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeResponse(hostile[4:])
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrFrame) || grew >= 8*maxShards {
		t.Errorf("a %d-entry count over 8 bytes: err %v after %d bytes allocated", maxShards, err, grew)
	}
}

var codecSink Response

// BenchmarkCodec is a Reserve round trip's share of the codec: the request
// (no tenant) and its reply, each encoded into a reused buffer and decoded.
func BenchmarkCodec(b *testing.B) {
	req := Request{ID: 7, Op: OpReserve, Ready: 1000, Procs: 16, Dur: 250, Deadline: resd.NoDeadline, Stamp: 1_700_000_000_000_000_000}
	resp := Response{ID: 7, Op: OpReserve, Resv: resd.Reservation{ID: 42 | 2<<48, Shard: 2, Start: 1000, Dur: 250, Procs: 16}}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var err error
		if buf, err = AppendRequest(buf[:0], req); err != nil {
			b.Fatal(err)
		}
		if _, err = DecodeRequest(buf[4:]); err != nil {
			b.Fatal(err)
		}
		if buf, err = AppendResponse(buf[:0], resp); err != nil {
			b.Fatal(err)
		}
		if codecSink, err = DecodeResponse(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
