package reswire

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/resd"
)

// blackHole accepts connections and reads them forever without ever
// responding — the pathological server a call timeout exists for.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := nc.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestCallTimeoutFiresAndFreesTheWindow(t *testing.T) {
	addr := blackHole(t)
	// Pipeline off forces a window of 1: if a timed-out call leaked its
	// window slot, the second call would fail on admission, not on the
	// response wait.
	c := dial(t, addr, Options{CallTimeout: 30 * time.Millisecond})
	for i := 0; i < 2; i++ {
		err := c.Ping()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d: err = %v, want ErrTimeout", i, err)
		}
	}
}

func TestCallTimeoutZeroMeansNoTimeout(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{}) // CallTimeout unset
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestCallTimeoutRejectsNegative(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{CallTimeout: -time.Second}); err == nil {
		t.Fatal("negative CallTimeout accepted")
	}
}

// TestCallTimeoutLateResponseKeepsConnection covers the stale-id path:
// a response arriving after its caller timed out must be discarded —
// not treated as a protocol violation that kills the connection — and
// later calls on the same connection must still work.
func TestCallTimeoutLateResponseKeepsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// A hand-rolled server: the first request's response is delayed past
	// the client's timeout, every later one is answered promptly.
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		first := true
		for {
			req, err := ReadRequest(br)
			if err != nil {
				return
			}
			if first {
				first = false
				time.Sleep(150 * time.Millisecond)
			}
			buf, err := AppendResponse(nil, Response{ID: req.ID, Op: req.Op, Code: CodeOK})
			if err != nil {
				return
			}
			if _, err := nc.Write(buf); err != nil {
				return
			}
		}
	}()

	c := dial(t, ln.Addr().String(), Options{Pipeline: true, CallTimeout: 40 * time.Millisecond})
	if err := c.Ping(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("delayed call: err = %v, want ErrTimeout", err)
	}
	// Let the late response land while no call is pending: the reader
	// must swallow it via the stale set.
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("call %d after a discarded late response: %v", i, err)
		}
	}
}

// TestClientClosedAfterClose pins the post-Close contract: every call
// fails with ErrClientClosed, consistently, no matter how it raced the
// teardown.
func TestClientClosedAfterClose(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c, err := Dial(addr, Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close: %v, want ErrClientClosed", err)
	}
	if _, err := c.Admit(resd.Request{Q: 1, Dur: 1, Deadline: resd.NoDeadline}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Admit after Close: %v, want ErrClientClosed", err)
	}
}
