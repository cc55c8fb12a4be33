package reswire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// writeBufCap is where a connection's pending output stops growing:
// appenders wait while that much is pending, and a buffer a burst grew
// past it is dropped rather than kept.
const writeBufCap = 64 << 10

// A connection's read buffer, on both sides, starts at readBufStart and
// doubles up to readBufCap whenever one read fills it (frameReader). The
// requests one read delivers share a cork, so their replies leave in one
// write, and a burst split across reads is answered in as many writes. A
// burst up to the size the buffer has grown to is answered in one; growing
// costs one extra write per doubling, four in a connection's life.
const (
	readBufStart = 4 << 10
	readBufCap   = 64 << 10
)

// batch counts the replies still owed to the requests one socket read
// delivered (the cork, see doc.go). Guarded by the connWriter's mutex.
type batch struct{ owed int }

// connWriter is a connection's one write path, on both sides (doc.go,
// "Writing"): whoever produced a frame appends it, and the first appender
// to want a flush does the flushing. After a write error, reported once
// through fail, every put is a no-op.
type connWriter struct {
	nc      net.Conn
	watched bool        // stamp writeStart for a client's sweeper
	fail    func(error) // closes the connection; called outside the lock with what killed it

	// writeStart is when the socket write in progress began, as an offset
	// from epoch; 0 when none is (or the writer is not watched).
	writeStart atomic.Int64

	// pending is set when a frame lands in an empty buffer and cleared when
	// the flusher swaps the buffer out: frames are waiting for a write that
	// has not started. Read without the lock (Client.route).
	pending atomic.Bool

	mu       sync.Mutex
	drained  sync.Cond // the pending buffer was swapped out, or the writer died
	buf, alt []byte    // pending frames, and the other half of the double buffer
	want     bool      // a flush was asked for since the last swap
	flushing bool      // someone is in flush
	err      error
}

func newConnWriter(nc net.Conn, watched bool, fail func(error)) *connWriter {
	w := &connWriter{nc: nc, watched: watched, fail: fail}
	w.drained.L = &w.mu
	return w
}

// put appends the frame enc encodes (nil: none) and takes n off what b
// owes. The buffer is flushed when b is nil (nothing corks the frame),
// when that settles b, or at writeBufCap. An encode error is returned and
// leaves the buffer as it was.
func (w *connWriter) put(enc func([]byte) ([]byte, error), b *batch, n int) (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.buf) >= writeBufCap && w.err == nil {
		w.drained.Wait()
	}
	if enc != nil && w.err == nil {
		var out []byte
		if out, err = enc(w.buf); err == nil {
			if len(w.buf) == 0 {
				w.pending.Store(true)
			}
			w.buf = out
		}
	}
	if b != nil {
		b.owed -= n
	}
	w.want = w.want || b == nil || b.owed == 0 || len(w.buf) >= writeBufCap
	if !w.want || w.flushing {
		return err
	}
	w.flushing = true
	for w.want && w.err == nil {
		w.mu.Unlock()
		runtime.Gosched() // every runnable appender gets to join this write
		w.mu.Lock()
		out := w.buf
		w.buf, w.alt, w.want = w.alt[:0], nil, false
		w.pending.Store(false)
		w.drained.Broadcast()
		w.mu.Unlock()
		if w.watched {
			w.writeStart.Store(int64(time.Since(epoch)))
		}
		_, werr := w.nc.Write(out)
		if w.watched {
			w.writeStart.Store(0)
		}
		if werr != nil {
			w.fail(werr)
		}
		w.mu.Lock()
		if cap(out) <= writeBufCap {
			w.alt = out[:0]
		}
		if werr != nil {
			w.err, w.buf = werr, nil
			w.pending.Store(false)
			w.drained.Broadcast()
		}
	}
	w.flushing = false
	return err
}
