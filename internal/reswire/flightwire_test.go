package reswire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/flight"
	"repro/internal/resd"
)

// TestFlightJournalFrameError: hostile bytes that fail the frame decode
// journal a reswire warning before the server hangs up.
func TestFlightJournalFrameError(t *testing.T) {
	j := flight.NewJournal(64, nil)
	addr, _ := startServer(t, resd.Config{M: 8}, func(s *Server) { s.SetFlight(j) })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A well-formed length prefix framing garbage: decodes far enough to
	// fail on the magic, which is ErrFrame, not a closed socket.
	frame := binary.BigEndian.AppendUint32(nil, 4)
	frame = append(frame, 0xde, 0xad, 0xbe, 0xef)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection; the read observing EOF sequences
	// us after its serveConn loop exited and journaled.
	var buf [1]byte
	nc.Read(buf[:])
	if got := j.SubsysCount("reswire", flight.Warn); got != 1 {
		t.Fatalf("hostile frame journaled %d warnings, want 1: %+v", got, j.Tail(0))
	}
}

// TestFlightServesNewestTraces: the trace ring's remote reader is
// /debug/flight. Admissions sampled from the wire show there with stages,
// outcome, tenant and the client-send span intact, ?n= trims to the
// newest records, and a service without tracing serves none.
func TestFlightServesNewestTraces(t *testing.T) {
	traced := func(t *testing.T, oc *resd.ObsConfig) (*Client, string) {
		rec, err := flight.New(flight.Config{})
		if err != nil {
			t.Fatal(err)
		}
		oc.Flight = rec
		addr, _ := startServer(t, resd.Config{M: 8, Obs: oc})
		srv := httptest.NewServer(rec.Handler())
		t.Cleanup(srv.Close)
		return dial(t, addr, Options{Conns: 1, Pipeline: true}), srv.URL + "/debug/flight"
	}
	c, url := traced(t, &resd.ObsConfig{TraceSample: 1})
	r, err := c.Admit(resd.Request{Tenant: "acme", Ready: 5, Q: 4, Dur: 10, Deadline: resd.NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(resd.Request{Q: 8, Dur: 10, Deadline: 0}); !errors.Is(err, resd.ErrDeadline) {
		t.Fatalf("full-width deadline-0 request err = %v, want ErrDeadline", err)
	}

	traces := flightTraces(t, url)
	if len(traces) != 2 {
		t.Fatalf("/debug/flight serves %d traces, want 2", len(traces))
	}
	adm, rej := traces[0], traces[1]
	if adm.Outcome != resd.TraceAdmitted || adm.Tenant != "acme" || adm.Shard != 0 || adm.Start != r.Start {
		t.Errorf("admitted trace = %+v", adm)
	}
	if rej.Outcome != resd.TraceRejectedDeadline || rej.Seq != adm.Seq+1 {
		t.Errorf("rejected trace = %+v", rej)
	}
	for _, tr := range traces {
		if !(tr.Route >= 0 && tr.Enqueue >= tr.Route && tr.BatchStart >= tr.Enqueue && tr.Decision >= tr.BatchStart) {
			t.Errorf("stages not monotone: %+v", tr)
		}
		if tr.Arrival.UnixNano() <= 0 || tr.ClientSend <= 0 {
			t.Errorf("arrival or client-send span lost: %+v", tr)
		}
	}
	if newest := flightTraces(t, url+"?n=1"); len(newest) != 1 || newest[0].Seq != rej.Seq {
		t.Errorf("?n=1 serves %+v, want just the newest", newest)
	}

	c, url = traced(t, &resd.ObsConfig{})
	if _, err := c.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if got := flightTraces(t, url); len(got) != 0 {
		t.Errorf("untraced service serves traces %+v", got)
	}
}

// flightTraces fetches a /debug/flight status and returns its traces.
func flightTraces(t *testing.T, url string) []resd.TraceRecord {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Traces []resd.TraceRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status.Traces
}
