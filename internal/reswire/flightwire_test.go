package reswire

import (
	"encoding/binary"
	"net"
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
