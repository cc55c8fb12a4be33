package resd

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// WALInfo summarises what recovery found and did. Zero-valued (Enabled
// false) when the service runs without a WAL.
type WALInfo struct {
	// Enabled reports whether the service writes a WAL; Dir is where.
	Enabled bool
	Dir     string
	// Syncs reports whether a turn's log commit fsyncs (wal.SyncBatch),
	// as the shards' logs say of themselves: the case in which requests
	// gain by sharing a turn, and a server by keeping several in flight.
	Syncs bool
	// Records is how many log records replay applied across all shards;
	// Snapshots counts shards whose replay was anchored by a snapshot.
	Records   int
	Snapshots int
	// Torn counts shards whose newest log ended in a truncated frame
	// (the normal crash signature); Corrupt counts shards with an
	// invalid frame before the tail (real damage — the suffix was
	// dropped). DroppedBytes totals both kinds of discarded bytes.
	Torn         int
	Corrupt      int
	DroppedBytes int64
	// Replay is how long recovery took, start of scan to boot snapshots
	// written: replay, index rebuild and quota re-charge included.
	Replay time.Duration
}

// seq extracts the shard-local sequence number an ID was minted with.
func (id ID) seq() uint64 { return uint64(id) & (1<<(64-shardBits) - 1) }

// shardErr wraps a recovery failure with its shard. For wal.ErrRetired
// the error already names the file (hence the generation) and what it
// holds; what is added is why this build will not read it.
func shardErr(shard int, err error) error {
	if errors.Is(err, wal.ErrRetired) {
		return fmt.Errorf("resd: shard %d: %w — written with the rebalancer, removed in this build; the directory is left as found", shard, err)
	}
	return fmt.Errorf("resd: shard %d: %w", shard, err)
}

// corruptState reports replay arriving at an impossible transition —
// the log itself was CRC-clean, so the records contradict each other.
func corruptState(shard int, format string, args ...any) error {
	return fmt.Errorf("resd: wal replay shard %d: %w: %s", shard, wal.ErrCorrupt, fmt.Sprintf(format, args...))
}

// recoverShards brings the built shards back to what cfg.WAL's directory
// holds and returns what it found with the logs it opened, one a shard.
// It runs in three phases, each on every shard at once (parallel): every
// shard reads its snapshot and log records, writing nothing, and replays
// them into its own book (replayDir); only then does each repair what its
// read dropped, open its boot generation and commit its survivors to its
// index (recommit); then each anchors a boot snapshot. The barrier after
// the first phase is what leaves a refused directory — migration state
// (wal.ErrRetired), a damaged snapshot, a log that contradicts itself —
// as found. Each phase leaves its findings as values, and after it they
// are folded in shard order into WALInfo, the journal and the error
// returned (the first failing shard's), so none of the three depends on
// how the phase was scheduled; the quota re-charge runs in that fold. A
// failure seals whatever logs are open. Does nothing when cfg.WAL is nil.
func recoverShards(cfg Config, shards []*shard, journal *flight.Journal) (info WALInfo, logs []*wal.Log, err error) {
	if cfg.WAL == nil {
		return info, nil, nil
	}
	defer func() {
		if err != nil {
			for _, sh := range shards {
				sh.seal()
			}
		}
	}()
	begin := time.Now()
	info.Enabled = true
	info.Dir = cfg.WAL.Dir
	n := len(shards)
	errs := make([]error, n)
	found := make([]wal.ReplayInfo, n)
	parallel(n, func(i int) { found[i], errs[i] = shards[i].replayDir(cfg.WAL.Dir) })
	for i, sh := range shards {
		info.fold(journal, i, found[i])
		if sh.overflow != nil {
			journal.RecordEvent(*sh.overflow)
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return info, nil, err
	}
	journal.Record(flight.Info, "resd", -1, "wal replay complete",
		flight.KV{K: "records", V: fmt.Sprint(info.Records)},
		flight.KV{K: "snapshots", V: fmt.Sprint(info.Snapshots)},
		flight.KV{K: "torn", V: fmt.Sprint(info.Torn)},
		flight.KV{K: "corrupt", V: fmt.Sprint(info.Corrupt)})

	logs = make([]*wal.Log, n)
	committed := make([]int, n)
	parallel(n, func(i int) {
		sh := shards[i]
		if errs[i] = wal.Repair(cfg.WAL.Dir, i, found[i]); errs[i] == nil {
			logs[i], errs[i] = wal.Open(i, *cfg.WAL)
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("resd: shard %d: %w", i, errs[i])
			return
		}
		sh.wlog, sh.snapEvery = logs[i], cfg.WAL.SnapEvery
		sh.syncs.Store(logs[i].Syncs())
		committed[i], errs[i] = sh.recommit()
	})
	// The quota accounts are shared between shards, so the re-charge runs
	// here, in shard and then id order: a quota that shrank under the
	// recovered load names the same reservation on every run. A shard's
	// charges stop where its index commits did, so its error is the first
	// in that order, whichever of the two refused.
	for i, sh := range shards {
		if logs[i] == nil {
			return info, nil, errs[i]
		}
		info.Syncs = logs[i].Syncs()
		if err := sh.recharge(committed[i]); err != nil {
			return info, nil, err
		}
		if errs[i] != nil {
			return info, nil, errs[i]
		}
	}

	// Anchor a snapshot of each recovered shard, so that the generations
	// replay just consumed can be deleted: written synchronously, so by the
	// time New returns the old logs are gone. Not for a state-free boot,
	// nor with snapshots off. rotated is the generation each shard rotated
	// to (0: none) and live what its snapshot holds.
	rotated := make([]uint64, n)
	live := make([]int, n)
	parallel(n, func(i int) {
		sh := shards[i]
		if sh.snapEvery <= 0 || len(sh.live.slab) == 0 && len(sh.cells) == 0 && sh.admitted.Load() == 0 {
			return
		}
		gen, err := sh.wlog.Rotate()
		if err == nil {
			rotated[i] = gen
			snap := sh.snapshot(gen)
			live[i] = len(snap.Live)
			err = sh.wlog.WriteSnapshot(snap)
		}
		if err != nil {
			errs[i] = fmt.Errorf("resd: shard %d: boot snapshot: %w", i, err)
		}
	})
	for i, gen := range rotated {
		if gen == 0 {
			continue
		}
		logRotated(journal, i, gen)
		if errs[i] == nil {
			snapshotWritten(journal, i, gen, live[i])
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return info, nil, err
	}
	info.Replay = time.Since(begin)
	return info, logs, nil
}

// fold adds one shard's read to the summary and journals the damage the
// read survived.
func (w *WALInfo) fold(j *flight.Journal, shard int, ri wal.ReplayInfo) {
	w.Records += ri.Records
	if ri.HasSnapshot {
		w.Snapshots++
	}
	if ri.Torn {
		// The normal crash signature: an fsync interrupted mid-frame.
		w.Torn++
		w.DroppedBytes += ri.TornBytes
		j.Record(flight.Warn, "resd", shard, "wal replay: torn tail dropped",
			flight.KV{K: "bytes", V: fmt.Sprint(ri.TornBytes)})
	}
	if ri.Corrupt {
		w.Corrupt++
		w.DroppedBytes += ri.DroppedBytes
		j.Record(flight.Error, "resd", shard, "wal replay: corrupt frame, suffix dropped",
			flight.KV{K: "bytes", V: fmt.Sprint(ri.DroppedBytes)})
	}
	if ri.BadSnapshots > 0 {
		// Replay is whole: the older anchor's logs were all there (a
		// crash between a snapshot's rename and the pruning). Without
		// them Recover has refused.
		j.Record(flight.Warn, "resd", shard, "wal replay: damaged snapshot skipped, older generations replayed",
			flight.KV{K: "snapshots", V: fmt.Sprint(ri.BadSnapshots)})
	}
}

// replayDir reads the shard's snapshot and log records from dir and
// replays them into its book, returning what the read found (nothing when
// the read failed).
func (sh *shard) replayDir(dir string) (wal.ReplayInfo, error) {
	snap, recs, found, err := wal.Recover(dir, sh.id)
	if err != nil {
		return wal.ReplayInfo{}, shardErr(sh.id, err)
	}
	return found, sh.replay(snap, recs)
}

// parallel calls f(0), …, f(n-1) on min(n, GOMAXPROCS) goroutines, the
// caller's among them, and returns once every call has. The calls must
// share nothing but their own index's state.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// replay loads the shard's snapshot, then applies the log records after
// it through the turn's own transitions, book for an admit and unbook for
// a cancel. It finds no slot, charges no quota, appends nothing and leaves
// the index to recommit. The table is reserved first at the largest live
// count replay reaches, so it is sized once, as a shard that admitted the
// same reservations would have sized it.
func (sh *shard) replay(snap *wal.Snapshot, recs []wal.Record) error {
	live := 0
	if snap != nil {
		live = len(snap.Live)
	}
	peak := live
	for _, rec := range recs {
		if rec.Type == wal.TAdmit {
			live++
			peak = max(peak, live)
		} else {
			live--
		}
	}
	sh.live.reserve(peak)
	if snap != nil {
		sh.nextSeq = snap.NextSeq
		sh.admitted.Store(snap.Admitted)
		sh.cancelled.Store(snap.Cancelled)
		for _, bk := range snap.Books {
			c := sh.addCell(bk.Tenant)
			c.stats = TenantStats{Active: int(bk.Active), Admitted: bk.Admitted, Cancelled: bk.Cancelled}
		}
		for _, lv := range snap.Live {
			// An id's shard bits are its home for life, and where Cancel
			// looks. One living elsewhere was migrated there.
			id := ID(lv.ID)
			if id.Shard() != sh.id {
				return shardErr(sh.id, fmt.Errorf("generation %d snapshot: %w: live id %#x was admitted by shard %d",
					snap.Gen, wal.ErrRetired, lv.ID, id.Shard()))
			}
			if sh.live.find(id) >= 0 {
				return corruptState(sh.id, "snapshot lists id %#x twice", lv.ID)
			}
			// A book's area is the sum of its live records', not the
			// snapshot's, which is saturated.
			sh.keep(id, core.Time(lv.Start), core.Time(lv.Dur), lv.Procs, tenant.Area(lv.Procs, lv.Dur), lv.Tenant, sh.cell(lv.Tenant))
		}
	}
	for _, rec := range recs {
		id := ID(rec.ID)
		switch rec.Type {
		case wal.TAdmit:
			if sh.live.find(id) >= 0 {
				return corruptState(sh.id, "admit of live id %#x", rec.ID)
			}
			sh.book(id, core.Time(rec.Start), core.Time(rec.Dur), rec.Procs, tenant.Area(rec.Procs, rec.Dur), rec.Tenant)
		case wal.TCancel:
			p := sh.live.find(id)
			if p < 0 {
				return corruptState(sh.id, "cancel of unknown id %#x", rec.ID)
			}
			sh.unbook(p)
		default:
			return corruptState(sh.id, "unknown record type %d", rec.Type)
		}
	}
	return nil
}

// recommit commits a replayed shard's survivors to its index in ascending
// id order, the order that fixes the recovered tree's shape, and returns
// how many it committed: all of them, or those before the one that failed.
// The pre-crash state was legal against the same Pre and M, so a failure
// means the configuration shrank under the recovered load: an error, not a
// panic.
func (sh *shard) recommit() (int, error) {
	sh.live.sortByID()
	for i, a := range sh.live.slab {
		if err := sh.idx.Commit(a.start, a.dur, int(a.q)); err != nil {
			return i, fmt.Errorf("resd: shard %d: recovered reservation %#x (start=%v dur=%v q=%d) no longer fits: %w",
				sh.id, uint64(a.id()), a.start, a.dur, a.q, err)
		}
	}
	sh.activeCount.Store(int64(len(sh.live.slab)))
	sh.committedArea.Store(sh.area.sat())
	return len(sh.live.slab), nil
}

// recharge re-charges the quota of the first n survivors recommit
// committed, in the same order. The accounts are shared between shards,
// so recoverShards calls it for one shard at a time.
func (sh *shard) recharge(n int) error {
	if sh.quotas == nil {
		return nil
	}
	for _, a := range sh.live.slab[:n] {
		acct := sh.account(a)
		var why tenant.QuotaError
		if !acct.TryAcquire(tenant.Area(int(a.q), int64(a.dur)), &why) {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x no longer fits tenant %q's quota: %w",
				sh.id, uint64(a.id()), sh.tenantOf(a), &why)
		}
		acct.Admit()
	}
	return nil
}
