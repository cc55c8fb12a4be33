package resd

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/wal"
)

// walAppend buffers one record on the shard's log (durable at the
// batch's Commit). A no-op when the shard runs without a WAL or has
// degraded after a log failure.
func (sh *shard) walAppend(rec wal.Record) {
	if sh.wlog == nil {
		return
	}
	if err := sh.wlog.Append(rec); err != nil {
		sh.walFail("append", err)
	}
}

// walFail degrades the shard to non-durable after a log write failure:
// admissions keep flowing (availability over durability — the in-memory
// state is still correct), the log is sealed, and the failure is
// counted (resd_wal_failures_total) and reported once. Only the shard's
// owner calls it, inside a turn, like every other wlog access.
func (sh *shard) walFail(op string, err error) {
	sh.walFailed.Add(1)
	sh.report(flight.Error, "wal",
		fmt.Sprintf("wal %s failed, shard now non-durable: %v", op, err),
		flight.KV{K: "op", V: op})
	sh.snapWG.Wait()
	sh.wlog.Close()
	sh.dropLog()
}

// dropLog forgets a closed log: the shard is in-memory from here on.
func (sh *shard) dropLog() {
	sh.wlog = nil
	sh.syncs.Store(false)
}

// seal is the shard's last act (opClose): wait out any in-flight snapshot
// write, then close the log — which commits what the closing turn
// appended — so the final generation is complete.
func (sh *shard) seal() {
	sh.snapWG.Wait()
	if sh.wlog == nil {
		return
	}
	if err := sh.wlog.Close(); err != nil {
		sh.report(flight.Error, "wal", fmt.Sprintf("wal close: %v", err))
	}
	sh.dropLog()
}

// maybeSnapshot rotates the log and kicks off a background snapshot
// write once enough records have accumulated since the last one. The
// state capture and the rotation run inside the turn (cheap copies); only
// the file write gets a goroutine, and at most one write is in flight.
func (sh *shard) maybeSnapshot() {
	if sh.wlog == nil || sh.snapEvery <= 0 ||
		sh.wlog.SinceSnapshot() < sh.snapEvery || sh.snapBusy.Load() {
		return
	}
	gen, err := sh.wlog.Rotate()
	if err != nil {
		sh.walFail("rotate", err)
		return
	}
	logRotated(sh.journal, sh.id, gen)
	snap := sh.snapshot(gen)
	wl := sh.wlog
	sh.snapBusy.Store(true)
	sh.snapWG.Add(1)
	go func() {
		defer sh.snapWG.Done()
		defer sh.snapBusy.Store(false)
		if err := wl.WriteSnapshot(snap); err != nil {
			// Not fatal and not degrading: the rotated logs still hold
			// every record, so recovery just replays more. The next
			// trigger retries.
			sh.walFailed.Add(1)
			sh.report(flight.Error, "wal", fmt.Sprintf("wal snapshot failed: %v", err),
				flight.KV{K: "gen", V: fmt.Sprint(snap.Gen)})
			return
		}
		snapshotWritten(sh.journal, sh.id, snap.Gen, len(snap.Live))
	}()
}

// logRotated and snapshotWritten journal a shard's log lifecycle, after
// Rotate and after WriteSnapshot succeed.
func logRotated(j *flight.Journal, shard int, gen uint64) {
	j.Record(flight.Info, "wal", shard, "log rotated", flight.KV{K: "gen", V: fmt.Sprint(gen)})
}

func snapshotWritten(j *flight.Journal, shard int, gen uint64, live int) {
	j.Record(flight.Info, "wal", shard, "snapshot written",
		flight.KV{K: "gen", V: fmt.Sprint(gen)},
		flight.KV{K: "live", V: fmt.Sprint(live)})
}
