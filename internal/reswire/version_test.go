package reswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
	"repro/internal/tenant"
)

// frameAt builds a frame by hand: version byte v — Version, or what a peer
// speaking another revision would send — and a body that is the caller's.
// The layouts those revisions had are written out below, since the encoder
// knows only today's; hostile bodies at today's revision are built the
// same way.
func frameAt(v byte, op Op, body ...byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(headerLen+len(body)))
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, v, byte(op))
	b = binary.BigEndian.AppendUint64(b, 1)
	return append(b, body...)
}

// reserveV1 is the Reserve body of the first revision: ready 0, 8
// processors, 10 ticks, no deadline — and neither tenant nor stamp.
var reserveV1 = []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 10, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// reserveV5 is a revision-5 Reserve body, the layout revision 6 kept:
// reserveV1's fields, tenant "acme", a send stamp and the trace flag.
var reserveV5 = append(bytes.Clone(reserveV1), 4, 'a', 'c', 'm', 'e', 0x17, 0x97, 0x9c, 0xfe, 0x36, 0x2a, 0, 0, 1)

// Revision 5's op numbers for the two ops revision 6 changed: Trace
// (deleted) and Watch (renumbered).
const (
	opTraceV5 Op = 9
	opWatchV5 Op = 10
)

// watchV5 is revision 5's Watch subscribe body: an interval, here 250 ms,
// and a family mask, here every family.
var watchV5 = []byte{0, 0, 0, 0, 0x0e, 0xe6, 0xb2, 0x80, 0, 0, 0, 0x1f}

// untouched checks that a refused frame charged the default tenant
// nothing (refused itself checks that no shard took a turn).
func untouched(reg *tenant.Registry) func(t *testing.T) {
	return func(t *testing.T) {
		if u := reg.Usage(""); u.Used != 0 || u.Inflight != 0 || u.Rejected != 0 {
			t.Fatalf("default tenant after a refused frame = %+v", u)
		}
	}
}

// refused is the refusal contract, checked against a live server: a peer
// whose frame carries another version byte is hung up on without a byte in
// reply, well inside a caller's timeout; the journal holds exactly one
// record for it, a Warn naming the remote and the byte; frame_errors moves
// by one; no shard takes a turn; and a current client on its own
// connection is served before, during and after.
func refused(t *testing.T, cfg resd.Config, frame []byte) {
	t.Helper()
	const callTimeout = 10 * time.Second
	m := NewMetrics(obs.NewRegistry(), "server")
	j := flight.NewJournal(64, nil)
	addr, svc := startServer(t, cfg, func(s *Server) { s.SetMetrics(m); s.SetFlight(j) })
	good := dial(t, addr, Options{CallTimeout: callTimeout})
	served := func(when string) {
		t.Helper()
		if err := good.Ping(); err != nil {
			t.Fatalf("current client %s the refusal: %v", when, err)
		}
	}
	served("before")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	served("during")
	nc.SetReadDeadline(time.Now().Add(callTimeout / 4))
	var buf [64]byte
	if n, err := nc.Read(buf[:]); n != 0 || err != io.EOF {
		t.Fatalf("peer at version byte %d read %d bytes, err %v; want 0, EOF", frame[6], n, err)
	}
	served("after")

	// The EOF came after serveConn counted and journaled the refusal.
	events := j.Tail(0)
	if len(events) != 1 || events[0].Subsys != "reswire" || events[0].Sev != flight.Warn {
		t.Fatalf("journal = %+v, want one reswire Warn", events)
	}
	kv := map[string]string{}
	for _, e := range events[0].KV {
		kv[e.K] = e.V
	}
	if kv["remote"] != nc.LocalAddr().String() || !strings.Contains(kv["err"], fmt.Sprintf("got %d", frame[6])) {
		t.Fatalf("refusal record %+v does not name remote %s and byte %d", events[0], nc.LocalAddr(), frame[6])
	}
	if got := m.frame.Value(); got != 1 {
		t.Fatalf("frame_errors = %d, want 1", got)
	}
	for i, st := range svc.Stats() {
		if st.Ops != 0 || st.Batches != 0 {
			t.Fatalf("shard %d served %d ops in %d turns for a refused frame", i, st.Ops, st.Batches)
		}
	}
}

// TestOtherRevisionsRefused: every version byte but Version, whatever the
// frame behind it. The named rows are earlier revisions, each with a frame
// its clients sent: all are refused alike, and none reaches the service —
// a refused v1 or v5 Reserve charges nobody and takes no shard turn, and a
// v1 peer whose tenant is broke sees no quota code at all.
func TestOtherRevisionsRefused(t *testing.T) {
	reg := mustRegistry(t, 1<<30, tenant.Spec{})
	broke := mustRegistry(t, 100, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: tenant.DefaultTenant, Share: 0.01}}})
	type row struct {
		name  string
		cfg   resd.Config
		frame []byte
		after func(t *testing.T) // a further check once the refusal holds
	}
	rows := []row{
		{name: "v1-stats", cfg: resd.Config{Shards: 2, M: 8}, frame: frameAt(1, OpStats)},
		{name: "v1-stats-one-shard", cfg: resd.Config{M: 8}, frame: frameAt(1, OpStats)},
		{name: "v1-quota-get", cfg: resd.Config{M: 8}, frame: frameAt(1, OpQuotaGet, 0)},
		{name: "v1-reserve", cfg: resd.Config{M: 8, Quotas: reg}, frame: frameAt(1, OpReserve, reserveV1...),
			after: untouched(reg)},
		{name: "v1-reserve-over-quota", cfg: resd.Config{M: 8, Quotas: broke}, frame: frameAt(1, OpReserve, reserveV1...),
			after: func(t *testing.T) {
				reply := frameAt(1, OpReserve, byte(CodeRejectedQuota), 0, 0)
				if _, err := newFrameReader(bytes.NewReader(reply)).readResponse(); !errors.Is(err, ErrVersion) {
					t.Fatalf("v1 reply frame err = %v, want ErrVersion", err)
				}
			}},
		{name: "v2-reserve", cfg: resd.Config{Shards: 2, M: 8},
			frame: frameAt(2, OpReserve, append(bytes.Clone(reserveV1), 4, 'a', 'c', 'm', 'e')...)},
		{name: "v3-cancel", cfg: resd.Config{Shards: 2, M: 8}, frame: frameAt(3, OpCancel, 0, 0, 0, 0, 0, 0, 0, 1)},
		{name: "v4-trace", cfg: resd.Config{Shards: 2, M: 8, Obs: &resd.ObsConfig{TraceSample: 1}},
			frame: frameAt(4, opTraceV5, 0, 0, 0, 0)},
		{name: "v5-watch-mask", cfg: resd.Config{Shards: 2, M: 8, Quotas: reg}, frame: frameAt(5, opWatchV5, watchV5...),
			after: untouched(reg)},
		{name: "v5-trace", cfg: resd.Config{Shards: 2, M: 8, Quotas: reg, Obs: &resd.ObsConfig{TraceSample: 1}},
			frame: frameAt(5, opTraceV5, 0xff, 0xff, 0xff, 0xff), after: untouched(reg)},
		{name: "v5-reserve", cfg: resd.Config{Shards: 2, M: 8, Quotas: reg}, frame: frameAt(5, OpReserve, reserveV5...),
			after: untouched(reg)},
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 5, 7, 255} {
		rows = append(rows, row{name: fmt.Sprint(v), cfg: resd.Config{M: 8}, frame: frameAt(v, OpPing)})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			refused(t, r.cfg, r.frame)
			if r.after != nil {
				r.after(t)
			}
		})
	}
}

// TestHostileVersionsRejected is the same refusal at the decoder, both
// directions.
func TestHostileVersionsRejected(t *testing.T) {
	for _, v := range []byte{0, 1, 2, 3, 4, 5, 7, 0x7F, 0xFF} {
		if _, err := newFrameReader(bytes.NewReader(frameAt(v, OpPing))).readRequest(); !errors.Is(err, ErrVersion) {
			t.Errorf("request at version %d err = %v, want ErrVersion", v, err)
		}
		if _, err := newFrameReader(bytes.NewReader(frameAt(v, OpPing, byte(CodeOK)))).readResponse(); !errors.Is(err, ErrVersion) {
			t.Errorf("response at version %d err = %v, want ErrVersion", v, err)
		}
	}
}

// TestStatsLayoutPerVersion pins the one shard entry there is: 80 bytes
// in a Stats reply, and the same 80 behind each queue depth of a Watch
// frame.
func TestStatsLayoutPerVersion(t *testing.T) {
	stats := []resd.ShardStats{goldenShard, {Admitted: 1}}
	frame, err := AppendResponse(nil, Response{ID: 1, Op: OpStats, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 4 + headerLen + 1 + 4 // length prefix, header, code, count
	if shardEntryLen != 80 || len(frame) != fixed+2*80 {
		t.Fatalf("two-shard Stats frame is %d bytes, want %d", len(frame), fixed+2*80)
	}
	got, err := newFrameReader(bytes.NewReader(frame)).readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stats) != 2 || got.Stats[0] != stats[0] || got.Stats[1] != stats[1] {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", got.Stats, stats)
	}
	watch, err := AppendResponse(nil, Response{ID: 1, Op: OpWatch,
		Telemetry: &Telemetry{NodeSnapshot: resd.NodeSnapshot{M: 8, Queue: []int{7}, Shards: stats[:1]}}})
	if err != nil {
		t.Fatal(err)
	}
	// len, header, code, seq, dropped, M, floor, shard count, one entry,
	// tenant and WAL counts, two trace counters, SLO count.
	const entryOff = 4 + headerLen + 1 + 8 + 8 + 4 + 4 + 4 + 4
	entry := watch[entryOff : entryOff+80]
	if len(watch) != entryOff+80+4+4+8+8+4 || !bytes.Equal(entry, frame[fixed:fixed+80]) {
		t.Fatalf("watch shard entry differs from the Stats entry:\n%x\n%x", entry, frame[fixed:fixed+80])
	}
}
