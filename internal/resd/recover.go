package resd

import (
	"errors"
	"fmt"
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
// Each shard replays its snapshot and log records into its own book
// (replay); only then does each open its boot generation and commit its
// survivors to the index (recommit), so a directory refused for migration
// state (wal.ErrRetired) or for a log that contradicts itself gains no
// boot generation. A failure seals whatever logs are open. Does nothing
// when cfg.WAL is nil.
func recoverShards(cfg Config, shards []*shard) (info WALInfo, logs []*wal.Log, err error) {
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
	journal := cfg.WAL.Journal
	for i, sh := range shards {
		snap, recs, ri, err := wal.Recover(cfg.WAL.Dir, i)
		if err != nil {
			return info, nil, shardErr(i, err)
		}
		info.Records += ri.Records
		if ri.HasSnapshot {
			info.Snapshots++
		}
		if ri.Torn {
			info.Torn++
			info.DroppedBytes += ri.TornBytes
			// The normal crash signature: an fsync interrupted mid-frame.
			journal.Record(flight.Warn, "resd", i, "wal replay: torn tail dropped",
				flight.KV{K: "bytes", V: fmt.Sprint(ri.TornBytes)})
		}
		if ri.Corrupt {
			info.Corrupt++
			info.DroppedBytes += ri.DroppedBytes
			journal.Record(flight.Error, "resd", i, "wal replay: corrupt frame, suffix dropped",
				flight.KV{K: "bytes", V: fmt.Sprint(ri.DroppedBytes)})
		}
		if ri.BadSnapshots > 0 {
			// Replay is whole: the older anchor's logs were all there (a
			// crash between a snapshot's rename and the pruning). Without
			// them Recover has refused.
			journal.Record(flight.Warn, "resd", i, "wal replay: damaged snapshot skipped, older generations replayed",
				flight.KV{K: "snapshots", V: fmt.Sprint(ri.BadSnapshots)})
		}
		if err := sh.replay(snap, recs); err != nil {
			return info, nil, err
		}
	}
	journal.Record(flight.Info, "resd", -1, "wal replay complete",
		flight.KV{K: "records", V: fmt.Sprint(info.Records)},
		flight.KV{K: "snapshots", V: fmt.Sprint(info.Snapshots)},
		flight.KV{K: "torn", V: fmt.Sprint(info.Torn)},
		flight.KV{K: "corrupt", V: fmt.Sprint(info.Corrupt)})
	logs = make([]*wal.Log, len(shards))
	for i, sh := range shards {
		if logs[i], err = wal.Open(i, *cfg.WAL); err != nil {
			return info, nil, fmt.Errorf("resd: shard %d: %w", i, err)
		}
		sh.wlog, sh.snapEvery = logs[i], cfg.WAL.SnapEvery
		sh.syncs.Store(logs[i].Syncs())
		info.Syncs = logs[i].Syncs()
		if err = sh.recommit(); err != nil {
			return info, nil, err
		}
	}
	// Anchor a snapshot of each recovered shard, so that the generations
	// replay just consumed can be deleted: written synchronously, so by the
	// time New returns the old logs are gone. Not for a state-free boot,
	// nor with snapshots off.
	for _, sh := range shards {
		if sh.snapEvery <= 0 || len(sh.live.slab) == 0 && len(sh.cells) == 0 && sh.admitted.Load() == 0 {
			continue
		}
		gen, err := sh.wlog.Rotate()
		if err == nil {
			err = sh.wlog.WriteSnapshot(sh.snapshot(gen))
		}
		if err != nil {
			return info, nil, fmt.Errorf("resd: shard %d: boot snapshot: %w", sh.id, err)
		}
	}
	info.Replay = time.Since(begin)
	return info, logs, nil
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

// recommit commits a replayed shard's survivors to its index and
// re-charges their quota, in ascending id order: the order fixes the
// recovered tree's shape, and a failure names the same reservation on
// every run. The pre-crash state was legal against the same Pre, M and
// quotas, so a failure means the configuration shrank under the recovered
// load: an error, not a panic.
func (sh *shard) recommit() error {
	sh.live.sortByID()
	for _, a := range sh.live.slab {
		if err := sh.idx.Commit(a.start, a.dur, int(a.q)); err != nil {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x (start=%v dur=%v q=%d) no longer fits: %w",
				sh.id, uint64(a.id()), a.start, a.dur, a.q, err)
		}
		if sh.quotas == nil {
			continue
		}
		acct := sh.account(a)
		var why tenant.QuotaError
		if !acct.TryAcquire(tenant.Area(int(a.q), int64(a.dur)), &why) {
			return fmt.Errorf("resd: shard %d: recovered reservation %#x no longer fits tenant %q's quota: %w",
				sh.id, uint64(a.id()), sh.tenantOf(a), &why)
		}
		acct.Admit()
	}
	sh.activeCount.Store(int64(len(sh.live.slab)))
	sh.committedArea.Store(sh.area.sat())
	return nil
}
