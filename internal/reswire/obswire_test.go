package reswire

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/obs"
	"repro/internal/resd"
)

// TestWireMetrics scrapes both sides' instrumentation after live traffic:
// op latency summaries, byte counters in both directions, response-code
// counters, the in-flight gauge back at zero, and a server-side frame
// error from a junk connection.
func TestWireMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _ := startServer(t, resd.Config{M: 8}, func(s *Server) { s.SetMetrics(NewMetrics(reg, "server")) })
	c := dial(t, addr, Options{Pipeline: true, metrics: NewMetrics(reg, "client")})
	resv, err := c.Admit(resd.Request{Q: 4, Dur: 10, Deadline: resd.NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// 4 of 8 procs held over [0,10): a full-width request with deadline 0
	// must miss it.
	if _, err := c.Admit(resd.Request{Q: 8, Dur: 10, Deadline: 0}); !errors.Is(err, resd.ErrDeadline) {
		t.Fatalf("want a deadline rejection on the books, got %v", err)
	}
	if err := c.Cancel(resv.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// A junk frame must close the connection and count one frame error on
	// the server side.
	junk, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := junk.Write([]byte{0, 0, 0, 16, 'X', 'X', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := junk.Read(one[:]); err == nil {
		t.Fatal("junk connection survived a malformed frame")
	}
	junk.Close()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("wire metrics scrape does not parse: %v\n%s", err, buf.String())
	}
	for _, side := range []string{"server", "client"} {
		if v, ok := exp.Value("reswire_responses_total", map[string]string{"side": side, "code": "OK"}); !ok || v < 3 {
			t.Errorf("%s responses{OK} = %v, %v (want >= 3)", side, v, ok)
		}
		if v, ok := exp.Value("reswire_responses_total", map[string]string{"side": side, "code": "REJECTED_DEADLINE"}); !ok || v != 1 {
			t.Errorf("%s responses{REJECTED_DEADLINE} = %v, %v", side, v, ok)
		}
		for _, dir := range []string{"rx", "tx"} {
			if v, ok := exp.Value("reswire_bytes_total", map[string]string{"side": side, "dir": dir}); !ok || v <= 0 {
				t.Errorf("%s bytes{%s} = %v, %v", side, dir, v, ok)
			}
		}
		if v, ok := exp.Value("reswire_inflight", map[string]string{"side": side}); !ok || v != 0 {
			t.Errorf("%s inflight = %v, %v (want 0 at rest)", side, v, ok)
		}
		if _, ok := exp.Value("reswire_op_ns", map[string]string{"side": side, "op": "Reserve", "quantile": "0.99"}); !ok {
			t.Errorf("no %s Reserve latency summary", side)
		}
	}
	if v, ok := exp.Value("reswire_frame_errors_total", map[string]string{"side": "server"}); !ok || v != 1 {
		t.Errorf("server frame errors = %v, %v (want 1)", v, ok)
	}
}
