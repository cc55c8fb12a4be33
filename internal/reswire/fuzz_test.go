package reswire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// FuzzWireCodec drives the frame reader and decoder with arbitrary bytes
// and checks them against a sequential oracle: frames are decoded one
// after another from the stream exactly as a connection's read loop
// would, each payload must be the stream's bytes at that offset, and every
// successfully decoded message must re-encode into a frame that decodes
// to the identical value (the canonical round trip). The decoder must
// never panic, never allocate past the declared frame bounds, and must
// stop at the first malformed frame. The first input byte's low bit
// selects the direction (request vs response decoding) and its other
// seven, s, how the stream — the rest of the input — is delivered: by
// reads as large as the reader asks for when s is 0, else by reads of at
// most 1 + s·b bytes, b running through the stream's first 64 bytes, so
// that reads split frames and fill the reader's buffer at every size it
// grows through.
func FuzzWireCodec(f *testing.F) {
	// Well-formed single frames of every op, both directions.
	for _, req := range []Request{
		{ID: 1, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20, Deadline: int64Max},
		{ID: 2, Op: OpCancel, Resv: 7},
		{ID: 3, Op: OpQuery, Ready: 99},
		{ID: 4, Op: OpSnapshot, Shard: 1},
		{ID: 5, Op: OpPing},
		{ID: 6, Op: OpStats},
		{ID: 7, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20, Deadline: int64Max, Tenant: "acme"},
		{ID: 8, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20, Deadline: 0},
		{ID: 9, Op: OpQuotaGet, Tenant: "acme"},
		{ID: 10, Op: OpQuotaSet, Tenant: "acme", Share: 0.25},
		{ID: 11, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20, Deadline: int64Max, Tenant: strings.Repeat("t", tenant.MaxNameLen)},
		{ID: 14, Op: OpWatch, Interval: time.Second},
		{ID: 15, Op: OpWatch, Interval: 0},
		{ID: 16, Op: OpReserve, Ready: 10, Procs: 4, Dur: 20, Deadline: int64Max, Tenant: "acme",
			Stamp: 1_700_000_000_000_000_000, Traced: true},
		{ID: 17, Op: OpReserve, Ready: 10, Procs: 4, Dur: int64Max, Deadline: int64Max, Stamp: -1},
	} {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{0}, frame...))
	}
	for _, resp := range []Response{
		{ID: 1, Op: OpReserve, Code: CodeOK, Resv: resd.Reservation{ID: 9, Shard: 1, Start: 5, Dur: 6, Procs: 7}},
		{ID: 2, Op: OpReserve, Code: CodeRejectedDeadline, Detail: "too late"},
		{ID: 3, Op: OpQuery, Code: CodeOK, Free: []int{1, 2, 3}},
		{ID: 4, Op: OpSnapshot, Code: CodeOK, M: 4, Segs: []Segment{{0, 4}, {5, 1}, {9, 4}}},
		{ID: 5, Op: OpStats, Code: CodeOK, Stats: []resd.ShardStats{{Active: 1, Admitted: 2, SlackP99: 63}}},
		{ID: 6, Op: OpStats, Code: CodeOK, Stats: []resd.ShardStats{goldenShard, {Active: 1, Admitted: 2, RejectedQuota: 3}}},
		{ID: 11, Op: OpStats, Code: CodeOK},
		{ID: 7, Op: OpReserve, Code: CodeRejectedQuota, Detail: "tenant acme over budget"},
		{ID: 8, Op: OpQuotaGet, Code: CodeOK, Quota: QuotaInfo{Capacity: 1 << 20, Usage: tenant.Usage{
			Tenant: "acme", Share: 0.5,
			Budget: 1 << 19, Used: 77, Inflight: 3, Admitted: 9, Cancelled: 6, Rejected: 2}}},
		{ID: 9, Op: OpQuotaSet, Code: CodeOK},
		{ID: 15, Op: OpWatch, Code: CodeOK, Telemetry: &Telemetry{
			Seq: 3, Dropped: 1, NodeSnapshot: resd.NodeSnapshot{M: 64, Floor: 16,
				Queue:         []int{2, 0},
				Shards:        []resd.ShardStats{{Active: 1, Admitted: 2, SlackP99: 63}, {Admitted: 4}},
				Tenants:       []resd.TenantLoad{{Tenant: "acme", Budget: 100, Used: 40, Inflight: 2}},
				WAL:           []resd.WALShardStats{{Shard: 1, Gen: 2, Bytes: 4096, Records: 7, Fsyncs: 3, Snapshots: 1, FsyncP99: 90_000}},
				TracesSampled: 9, TracesSlow: 2,
			}}},
		// A bare node: no tenants, log or objectives.
		{ID: 16, Op: OpWatch, Code: CodeOK, Telemetry: &Telemetry{
			NodeSnapshot: resd.NodeSnapshot{M: 8, Queue: []int{0}, Shards: []resd.ShardStats{{}}},
		}},
		{ID: 17, Op: OpWatch, Code: CodeOK, Telemetry: &Telemetry{
			NodeSnapshot: resd.NodeSnapshot{M: 8,
				SLO: []slo.State{
					{Name: "deadline", Signal: slo.DeadlineAttainment, Target: 0.99,
						Attainment: 0.95, BudgetRemaining: -4, BurnMax: 14.5, Severity: slo.SevPage},
					{Name: "acme-deadline", Tenant: "acme", Signal: slo.DeadlineAttainment,
						Target: 0.9, Attainment: 1, BudgetRemaining: 1, BurnMax: 0, Severity: slo.OK},
				},
			}}},
		// The whole node snapshot, every family at once.
		{ID: 18, Op: OpWatch, Code: CodeOK, Telemetry: goldenTelemetry},
		{ID: 19, Op: OpWatch, Code: CodeClosed, Detail: "draining"},
	} {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{1}, frame...))
	}
	// Hostile shapes: truncation, bad magic, huge length, NaN share bits,
	// and every other version byte — with bodies those revisions had or
	// never had, all refused at the byte.
	f.Add([]byte{0, 0, 0, 0})                                            // truncated length prefix
	f.Add([]byte{0, 0, 0, 0, 16, 'X', 'X', 1, 1})                        // bad magic
	f.Add([]byte{1, 0, 0, 0, 16, 'R', 'W', 9, 1})                        // bad version
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 0, 1})                        // version 0 on the wire
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 7, 1})                        // version one past current
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 3, 1})                        // version 3
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 4, 9})                        // version 4, Trace
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 6, 1})                        // Reserve with a truncated body
	f.Add([]byte{0, 0, 0, 0, 16, 'R', 'W', 4, 10})                       // version 4, Watch
	f.Add(append([]byte{0}, frameAt(5, opWatchV5, watchV5...)...))       // version 5, Watch with a family mask
	f.Add(append([]byte{0}, frameAt(Version, OpWatch, watchV5...)...))   // revision 5's Watch body at Version: a trailing mask
	f.Add(append([]byte{0}, frameAt(5, opTraceV5, 0, 0, 0, 16)...))      // version 5, Trace
	f.Add(append([]byte{0}, frameAt(Version, opWatchV5, watchV5...)...)) // op 10 at Version: no such op
	f.Add([]byte{0, 0, 0, 0, 20, 'R', 'W', 6, 9, 0, 0, 0, 0, 0, 0, 0, 1, // Watch with a negative interval
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 0, 0, 29, 'R', 'W', 6, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, // Telemetry claiming 2^24 shards
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 2,
		1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 13, 'R', 'W', 3, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0}) // version 3, Trace
	f.Add([]byte{1, 0, 0, 0, 17, 'R', 'W', 5, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0,  // version 5 Trace response claiming 2^24 records
		1, 0, 0, 0})
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF})                                 // length prefix far past MaxFrame
	f.Add(append([]byte{1, 0, 0, 0, 12}, make([]byte, 12)...))               // zeroed header
	f.Add([]byte{0, 0, 0, 0, 13, 'R', 'W', 1, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0}) // version 1, QuotaGet
	f.Add([]byte{0, 0, 0, 0, 21, 'R', 'W', 6, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0,  // QuotaSet with NaN share
		0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 14, 'R', 'W', 6, 7, 0, 0, 0, 0, 0, 0, 0, 1, 5, 'a'}) // tenant length past body
	// Replies in revision 5's layouts at Version: a QuotaGet with its two
	// reserved bytes after the tenant, and a Stats entry with its sixteen
	// after the seventh field.
	widened := func(resp Response, at int, extra []byte) []byte {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		frame = slices.Insert(frame, at, extra...)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		return append([]byte{1}, frame...)
	}
	const body = 4 + headerLen + 1 // length prefix, header, code
	f.Add(widened(Response{ID: 8, Op: OpQuotaGet, Quota: goldenQuota}, body+1+len(goldenQuota.Tenant), []byte{0, 0}))
	f.Add(widened(Response{ID: 6, Op: OpStats, Stats: []resd.ShardStats{goldenShard}}, body+4+7*8, make([]byte, 16)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		asResponse := data[0]&1 == 1
		stream := data[1:]
		src := &chunkReader{data: stream}
		if s := int(data[0] >> 1); s > 0 {
			for _, b := range stream[:min(len(stream), 64)] {
				src.sizes = append(src.sizes, 1+s*int(b))
			}
		}
		fr := newFrameReader(src)
		for frames, off := 0, 0; frames < 64; frames++ {
			payload, err := fr.readFrame()
			if err != nil {
				return // malformed or stream exhausted: the loop must stop here
			}
			if want := stream[off+4 : off+4+len(payload)]; !bytes.Equal(payload, want) {
				t.Fatalf("frame %d at offset %d: the reader returned other bytes than the stream holds", frames, off)
			}
			off += 4 + len(payload)
			if len(fr.buf) > readBufCap {
				t.Fatalf("read buffer grew to %d bytes, past %d", len(fr.buf), readBufCap)
			}
			if asResponse {
				resp, err := DecodeResponse(payload)
				if err != nil {
					return
				}
				reencoded, err := AppendResponse(nil, resp)
				if err != nil {
					t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
				}
				again, err := newFrameReader(bytes.NewReader(reencoded)).readResponse()
				if err != nil {
					t.Fatalf("re-encoded response does not decode: %v", err)
				}
				if !reflect.DeepEqual(resp, again) {
					t.Fatalf("canonical round trip diverged:\n first %+v\nsecond %+v", resp, again)
				}
			} else {
				req, err := DecodeRequest(payload)
				if err != nil {
					return
				}
				reencoded, err := AppendRequest(nil, req)
				if err != nil {
					t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
				}
				again, err := newFrameReader(bytes.NewReader(reencoded)).readRequest()
				if err != nil {
					t.Fatalf("re-encoded request does not decode: %v", err)
				}
				if req != again {
					t.Fatalf("canonical round trip diverged:\n first %+v\nsecond %+v", req, again)
				}
			}
		}
	})
}

// chunkReader delivers data in reads of at most sizes[k] bytes for the
// k-th read, cycling through sizes; with no sizes, a read is as large as
// the reader asks for. filled records a read that returned all it was
// offered, until its user clears it.
type chunkReader struct {
	data   []byte
	sizes  []int
	reads  int
	filled bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	offered := len(p)
	if len(c.sizes) > 0 {
		p = p[:min(len(p), c.sizes[c.reads%len(c.sizes)])]
	}
	c.reads++
	n := copy(p, c.data)
	c.data = c.data[n:]
	c.filled = c.filled || n == offered
	return n, nil
}

const int64Max = 1<<63 - 1

// TestReadFrameStopsAtJunk complements FuzzWireCodec at the framing
// layer: a valid frame prefixed by arbitrary junk must never decode (the
// stream is not self-synchronising, by design).
func TestReadFrameStopsAtJunk(t *testing.T) {
	frame, err := AppendRequest(nil, Request{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	junk := append([]byte{0xDE, 0xAD}, frame...)
	fr := newFrameReader(bytes.NewReader(junk))
	if _, err := fr.readRequest(); err == nil {
		t.Fatal("junk-prefixed stream decoded")
	}
}

// TestReadFrameLengthBounds checks the two framing guards directly.
func TestReadFrameLengthBounds(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := newFrameReader(bytes.NewReader(over)).readFrame(); err == nil {
		t.Error("oversized length accepted")
	}
	under := binary.BigEndian.AppendUint32(nil, headerLen-1)
	if _, err := newFrameReader(bytes.NewReader(under)).readFrame(); err == nil {
		t.Error("sub-header length accepted")
	}
	short := binary.BigEndian.AppendUint32(nil, 100)
	short = append(short, 1, 2, 3)
	if _, err := newFrameReader(bytes.NewReader(short)).readFrame(); err == io.EOF || err == nil {
		t.Errorf("truncated payload: err = %v, want wrapped unexpected-EOF", err)
	}
}

// TestFrameReaderGrows pins the read buffer's growth: it starts at 4 KiB
// and doubles only when a read fills it, never past readBufCap; a frame up
// to readBufCap is returned in place without allocating, and a larger one
// is copied out whole while the buffer stays within readBufCap.
func TestFrameReaderGrows(t *testing.T) {
	frame := func(payload int) []byte {
		f := binary.BigEndian.AppendUint32(nil, uint32(payload))
		for i := range payload {
			f = append(f, byte(i*7+payload))
		}
		return f
	}
	if fr := newFrameReader(nil); len(fr.buf) != 4<<10 {
		t.Fatalf("a fresh reader holds %d bytes, want 4 KiB", len(fr.buf))
	}

	// 10 000 frames of 16 B: the first 1 000 in reads of at most 1 000
	// bytes, which never fill the buffer, the rest in reads as large as
	// asked, which fill it at every size.
	var stream []byte
	for range 10000 {
		stream = append(stream, frame(headerLen+4)...)
	}
	src := &chunkReader{data: stream, sizes: []int{1000}}
	fr := newFrameReader(src)
	for i := range 10000 {
		if i == 1000 {
			src.sizes = nil
		}
		before := len(fr.buf)
		src.filled = false
		if _, err := fr.readFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		filled := src.filled
		switch size := len(fr.buf); {
		case size != before && (size != 2*before || !filled):
			t.Fatalf("frame %d: the buffer went %d → %d bytes; the last read filled it: %v", i, before, size, filled)
		case size == before && filled && size < readBufCap:
			t.Fatalf("frame %d: a read filled the %d-byte buffer and it did not double", i, size)
		case size > readBufCap:
			t.Fatalf("frame %d: the buffer grew to %d bytes, past %d", i, size, readBufCap)
		case i < 1000 && size != 4<<10:
			t.Fatalf("frame %d: reads of 1 000 bytes grew the buffer to %d", i, size)
		}
	}
	if len(fr.buf) != readBufCap {
		t.Fatalf("after 144 000 bytes in reads as large as asked the buffer holds %d, want %d", len(fr.buf), readBufCap)
	}

	// A frame of readBufCap bytes, length prefix included, replayed for ever.
	fit := frame(readBufCap - 4)
	loop := &loopReader{data: fit}
	fr = newFrameReader(loop)
	read := func() {
		payload, err := fr.readFrame()
		if err != nil || !bytes.Equal(payload, fit[4:]) {
			t.Fatalf("frame of %d bytes: %d bytes back, err %v", len(fit), len(payload), err)
		}
		if &payload[0] != &fr.buf[4] {
			t.Fatal("a frame that fits the buffer was copied out")
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("%.1f allocations per %d-byte frame read in place, want 0", allocs, len(fit))
	}

	// 100 KiB past the cap, then a small frame: both whole, in order.
	huge, small := frame(100<<10), frame(headerLen)
	fr = newFrameReader(bytes.NewReader(append(huge, small...)))
	for i, want := range [][]byte{huge, small} {
		payload, err := fr.readFrame()
		if err != nil || !bytes.Equal(payload, want[4:]) {
			t.Fatalf("frame %d: %d bytes back of %d, err %v", i, len(payload), len(want)-4, err)
		}
		if len(fr.buf) > readBufCap {
			t.Fatalf("frame %d: the buffer grew to %d bytes, past %d", i, len(fr.buf), readBufCap)
		}
	}
}

// loopReader serves data over and over, each read as large as asked.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}
