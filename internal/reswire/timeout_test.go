package reswire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
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
	// A hand-rolled server: the first request's response waits until the
	// client has timed the call out, every later one is answered promptly.
	timedOut := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := newFrameReader(nc)
		first := true
		for {
			req, err := fr.readRequest()
			if err != nil {
				return
			}
			if first {
				first = false
				<-timedOut
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
	close(timedOut)
	// Let the late response land while no call is pending: the reader
	// must drop it, taking back the late response the sweeper counted on.
	// The drop signals nothing but that count, so it is polled.
	for deadline := time.Now().Add(10 * time.Second); late(c.conns[0]) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("late response not dropped after 10s")
		}
	}
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

// late counts the responses cc's reader still expects for timed-out calls.
func late(cc *clientConn) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := 0
	for _, s := range cc.slots {
		n += s.late
	}
	return n
}

// parked counts the calls parked on cc's slots. Parking sets a slot's flag
// and signals nothing else, so tests that wait for it poll.
func parked(cc *clientConn) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := 0
	for _, s := range cc.slots {
		if s.waiting {
			n++
		}
	}
	return n
}

// TestCloseWakesParkedCalls parks callers on a server that never answers
// and closes the client under them: close wakes every parked call, with or
// without a sweeper running. Then Close races calls that are just
// starting on its connections: each fails at once or is woken, and none
// is left parked.
func TestCloseWakesParkedCalls(t *testing.T) {
	addr := blackHole(t)
	timeouts := []time.Duration{0, time.Hour}
	for _, timeout := range timeouts {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			const callers = 64
			c := dial(t, addr, Options{Pipeline: true, CallTimeout: timeout})
			errs := make(chan error, callers)
			for range callers {
				go func() { errs <- c.Ping() }()
			}
			for deadline := time.Now().Add(10 * time.Second); parked(c.conns[0]) < callers; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d callers parked after 10s", parked(c.conns[0]), callers)
				}
			}
			c.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range callers {
					if err := <-errs; !errors.Is(err, ErrClientClosed) {
						t.Errorf("parked call after Close: %v, want ErrClientClosed", err)
					}
				}
			}()
			watchdog(t, done, time.Second, "parked calls after Close")
		})
	}
	t.Run("racing", func(t *testing.T) {
		for i := range 40 {
			c := dial(t, addr, Options{Conns: 2, Pipeline: true, CallTimeout: timeouts[i%2]})
			start := make(chan struct{})
			var wg sync.WaitGroup
			for k := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if _, err := c.conns[k%2].call(Request{Op: OpPing}, nil); !errors.Is(err, ErrClientClosed) {
						t.Errorf("call racing Close: %v, want ErrClientClosed", err)
					}
				}()
			}
			close(start)
			c.Close()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			watchdog(t, done, time.Second, "calls racing Close")
			for k, cc := range c.conns {
				if n := parked(cc); n != 0 {
					t.Fatalf("round %d: %d calls still parked on connection %d", i, n, k)
				}
			}
		}
	})
}

// TestCallTimeoutGranularity pins the sweeper's bound: against a server
// that never answers, every call fails with ErrTimeout no earlier than
// the timeout T and by T + T/8 plus scheduling, well before 2T. Close
// stops the sweeper with the connection's reader.
func TestCallTimeoutGranularity(t *testing.T) {
	const T = 40 * time.Millisecond
	addr := blackHole(t)
	base := runtime.NumGoroutine()
	c, err := Dial(addr, Options{Conns: 2, Pipeline: true, CallTimeout: T})
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				begin := time.Now()
				err := c.Ping()
				switch took := time.Since(begin); {
				case !errors.Is(err, ErrTimeout):
					t.Errorf("call against a server that never answers: %v, want ErrTimeout", err)
				case took < T || took >= 2*T:
					t.Errorf("call timed out after %v with CallTimeout %v, want [T, 2T)", took, T)
				}
			}()
		}
		wg.Wait()
	}
	c.Close()
	// Close does not wait for the reader and sweeper to return; their exit
	// shows only in the goroutine count, which is polled.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5s after Close, %d before Dial\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
