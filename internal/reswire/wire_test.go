package reswire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
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
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
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
		got, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)))
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
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
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
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range reqs {
		got, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(br); err != io.EOF {
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
			_, err := ReadRequest(bufio.NewReader(bytes.NewReader(c.in)))
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
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(b))); !errors.Is(err, ErrFrame) {
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
	{name: "req/Reserve", hex: "00000036525705010102030405060708000000000000000a0000000400000000000000147fffffffffffffff0461636d" +
		"6517979cfe362a000001",
		req: &Request{ID: 0x0102030405060708, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20,
			Deadline: resd.NoDeadline, Tenant: "acme", Stamp: 1_700_000_000_000_000_000, Traced: true}},
	{name: "req/Cancel", hex: "00000014525705020000000000000002ffff000000000001",
		req: &Request{ID: 2, Op: OpCancel, Resv: 0xFFFF_0000_0000_0001}},
	{name: "req/Query", hex: "000000145257050300000000000000030000000000003039",
		req: &Request{ID: 3, Op: OpQuery, Ready: 12345}},
	{name: "req/Snapshot", hex: "0000001052570504000000000000000400000003",
		req: &Request{ID: 4, Op: OpSnapshot, Shard: 3}},
	{name: "req/Ping", hex: "0000000c525705050000000000000005",
		req: &Request{ID: 5, Op: OpPing}},
	{name: "req/Stats", hex: "0000000c525705060000000000000006",
		req: &Request{ID: 6, Op: OpStats}},
	{name: "req/QuotaGet", hex: "000000115257050700000000000000070461636d65",
		req: &Request{ID: 7, Op: OpQuotaGet, Tenant: "acme"}},
	{name: "req/QuotaSet", hex: "000000195257050800000000000000080461636d653fd0000000000000",
		req: &Request{ID: 8, Op: OpQuotaSet, Tenant: "acme", Share: 0.25}},
	{name: "req/Trace", hex: "00000010525705090000000000000009ffffffff",
		req: &Request{ID: 9, Op: OpTrace, Limit: -1}},
	{name: "req/Watch", hex: "000000185257050a000000000000000a000000000ee6b28000000011",
		req: &Request{ID: 10, Op: OpWatch, Interval: 250 * time.Millisecond, Mask: WatchShards | WatchSLO}},

	{name: "resp/Reserve", hex: "0000002d52570501010203040506070800000200000000002a000000020000000000000064000000000000000a000000" +
		"08",
		resp: &Response{ID: 0x0102030405060708, Op: OpReserve,
			Resv: resd.Reservation{ID: 42 | 2<<48, Shard: 2, Start: 100, Dur: 10, Procs: 8}}},
	{name: "resp/Cancel", hex: "0000000d52570502000000000000000200",
		resp: &Response{ID: 2, Op: OpCancel}},
	{name: "resp/Query", hex: "0000001d5257050300000000000000030000000003000000400000000000000011",
		resp: &Response{ID: 3, Op: OpQuery, Free: []int{64, 0, 17}}},
	{name: "resp/Snapshot", hex: "00000039525705040000000000000004000000000800000003000000000000000000000008000000000000000a000000" +
		"03000000000000001400000008",
		resp: &Response{ID: 4, Op: OpSnapshot, M: 8,
			Segs: []Segment{{Start: 0, Free: 8}, {Start: 10, Free: 3}, {Start: 20, Free: 8}}}},
	{name: "resp/Ping", hex: "0000000d52570505000000000000000500",
		resp: &Response{ID: 5, Op: OpPing}},
	{name: "resp/Stats", hex: "000000715257050600000000000000060000000001000000000000000500000000000004d2000000000000000a000000" +
		"000000000200000000000000010000000000000003000000000000000400000000000000000000000000000000000000" +
		"000000006300000000000000070000000000000014",
		resp: &Response{ID: 6, Op: OpStats, Stats: []resd.ShardStats{goldenShard}}},
	{name: "resp/QuotaGet", hex: "00000054525705070000000000000007000461636d6500003fe000000000000000000000001000000000000000080000" +
		"000000000000004d0000000000000003000000000000000900000000000000060000000000000002",
		resp: &Response{ID: 7, Op: OpQuotaGet, Quota: goldenQuota}},
	{name: "resp/QuotaSet", hex: "0000000d52570508000000000000000800",
		resp: &Response{ID: 8, Op: OpQuotaSet}},
	{name: "resp/Trace", hex: "0000005b5257050900000000000000090000000001000000000000000317979cfe362a0000000000000001e848000000" +
		"000000006400000000000000fa000000000000038400000000000005dc000000000000003200000001000461636d65",
		resp: &Response{ID: 9, Op: OpTrace, Traces: []resd.TraceRecord{{
			Seq: 3, Tenant: "acme", Shard: 1, Outcome: resd.TraceAdmitted, Start: 50,
			Arrival: time.Unix(0, 1_700_000_000_000_000_000), ClientSend: 125_000,
			Route: 100, Enqueue: 250, BatchStart: 900, Decision: 1500}}}},
	{name: "resp/Watch", hex: "000001365257050a000000000000000a00000000000000000700000000000000020000001f0000004000000010000000" +
		"0100000003000000000000000500000000000004d2000000000000000a00000000000000020000000000000001000000" +
		"000000000300000000000000040000000000000000000000000000000000000000000000630000000000000007000000" +
		"0000000014000000010461636d6500000000000000640000000000000028000000000000000200000001000000010000" +
		"0000000000030000000000001000000000000000001100000000000000090000000000000002000000000001d4c00000" +
		"000000000001000000000000000b00000000000000010000000108646561646c696e650461636d65013fefae147ae147" +
		"ae3fef0a3d70a3d70ac000000000000000402d00000000000002",
		resp: &Response{ID: 10, Op: OpWatch, Telemetry: &Telemetry{
			Seq: 7, Dropped: 2, Mask: WatchAll, NodeSnapshot: resd.NodeSnapshot{M: 64, Floor: 16,
				Queue: []int{3}, Shards: []resd.ShardStats{goldenShard},
				Tenants:       []resd.TenantLoad{{Tenant: "acme", Budget: 100, Used: 40, Inflight: 2}},
				WAL:           []resd.WALShardStats{{Shard: 1, Gen: 3, Bytes: 4096, Records: 17, Fsyncs: 9, Snapshots: 2, FsyncP99: 120000, Failed: 1}},
				TracesSampled: 11, TracesSlow: 1,
				SLO: []slo.State{{Name: "deadline", Tenant: "acme", Signal: slo.Slack, Target: 0.99,
					Attainment: 0.97, BudgetRemaining: -2, BurnMax: 14.5, Severity: slo.SevPage}}}}}},
	{name: "resp/error", hex: "0000002652570501000000000000000b07001774656e616e742061636d65206f76657220627564676574",
		resp: &Response{ID: 11, Op: OpReserve, Code: CodeRejectedQuota, Detail: "tenant acme over budget"}},
}

// goldenShard is the 96-byte shard entry the Stats reply and the Watch
// shard family both carry.
var goldenShard = resd.ShardStats{Active: 5, CommittedArea: 1234, Admitted: 10, Cancelled: 2, Rejected: 1,
	RejectedDeadline: 3, RejectedQuota: 4, SlackP99: 99, Batches: 7, Ops: 20}

// goldenQuota is the QuotaGet reply's value.
var goldenQuota = QuotaInfo{Capacity: 1 << 20, Usage: tenant.Usage{
	Tenant: "acme", Share: 0.5, Budget: 1 << 19, Used: 77, Inflight: 3, Admitted: 9, Cancelled: 6, Rejected: 2}}

// quotaReservedInUse is resp/QuotaGet as a server that still has tenant
// groups and a soft mode sends it: group "prod" and mode 1 in the two
// reserved fields.
const quotaReservedInUse = "00000058525705070000000000000007000461636d650470726f64013fe0000000000000000000000010000000000000" +
	"00080000000000000000004d0000000000000003000000000000000900000000000000060000000000000002"

// statsReservedInUse is resp/Stats as a server that still counts
// migrations sends it: 5 and 6 in the entry's 16 reserved bytes.
const statsReservedInUse = "000000715257050600000000000000060000000001000000000000000500000000000004d2000000000000000a000000" +
	"000000000200000000000000010000000000000003000000000000000400000000000000050000000000000006000000" +
	"000000006300000000000000070000000000000014"

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
	// Reserved bytes are skipped, not checked: an un-upgraded server's
	// reply decodes to the same value.
	for _, old := range []struct {
		name, hex string
		want      Response
	}{
		{"Stats", statsReservedInUse, Response{ID: 6, Op: OpStats, Stats: []resd.ShardStats{goldenShard}}},
		{"QuotaGet", quotaReservedInUse, Response{ID: 7, Op: OpQuotaGet, Quota: goldenQuota}},
	} {
		b, _ := hex.DecodeString(old.hex)
		if dec, err := DecodeResponse(b[4:]); err != nil || !reflect.DeepEqual(dec, old.want) {
			t.Errorf("%s reply with the reserved bytes in use decodes to %+v (err %v), want %+v", old.name, dec, err, old.want)
		}
	}
}
