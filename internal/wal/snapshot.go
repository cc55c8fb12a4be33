package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// snapMagic opens every snapshot file ("RSNP", little endian).
const snapMagic = 0x504e5352

// snapVersion is the current snapshot encoding version.
const snapVersion = 1

// The encoding was laid out for a service that could move reservations
// between shards. What held that state is reserved: the encoder writes
// zero there, and the decoder ignores a counter but answers a pending
// live entry or an open out — a move that never finished — ErrRetired.
// A book's first reserved counter held its quota refusals.

// TenantBook is one tenant's cumulative per-shard ledger, persisted so
// TenantStats survives a restart.
type TenantBook struct {
	Tenant              string
	Active              int64
	Area                int64
	Admitted, Cancelled uint64
}

// Live is one admitted reservation in a snapshot.
type Live struct {
	ID         uint64
	Start, Dur int64
	Procs      int
	Tenant     string
}

// Snapshot is one shard's full durable state at a generation boundary:
// replaying it plus every log generation >= Gen reproduces the shard.
type Snapshot struct {
	Shard   int
	Gen     uint64
	NextSeq uint64
	// Shard-lifetime operation counters (the process-local rejection
	// counters are deliberately not persisted; see resd's doc.go).
	Admitted, Cancelled uint64
	Books               []TenantBook
	Live                []Live
}

// encodeSnapshot renders s to its on-disk form (sorted, checksummed).
func encodeSnapshot(s *Snapshot) []byte {
	sort.Slice(s.Books, func(i, j int) bool { return s.Books[i].Tenant < s.Books[j].Tenant })
	sort.Slice(s.Live, func(i, j int) bool { return s.Live[i].ID < s.Live[j].ID })

	b := make([]byte, 0, 64+len(s.Live)*24+len(s.Books)*48)
	b = binary.LittleEndian.AppendUint32(b, snapMagic)
	b = append(b, snapVersion)
	b = appendUvarint(b, uint64(s.Shard))
	b = appendUvarint(b, s.Gen)
	b = appendUvarint(b, s.NextSeq)
	b = appendUvarint(b, s.Admitted)
	b = appendUvarint(b, s.Cancelled)
	b = append(b, 0, 0) // reserved: two counters
	b = appendUvarint(b, uint64(len(s.Books)))
	for _, bk := range s.Books {
		b = appendString(b, bk.Tenant)
		b = appendVarint(b, bk.Active)
		b = appendVarint(b, bk.Area)
		b = appendUvarint(b, bk.Admitted)
		b = appendUvarint(b, bk.Cancelled)
		b = append(b, 0, 0, 0) // reserved: three counters
	}
	b = appendUvarint(b, uint64(len(s.Live)))
	for _, lv := range s.Live {
		b = appendUvarint(b, lv.ID)
		b = appendVarint(b, lv.Start)
		b = appendVarint(b, lv.Dur)
		b = appendUvarint(b, uint64(lv.Procs))
		b = append(b, 0, 0) // reserved: pending flag, source shard
		b = appendString(b, lv.Tenant)
	}
	b = append(b, 0) // reserved: open-out count
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSnapshot parses and verifies one snapshot blob.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 4+1+4 {
		return nil, fmt.Errorf("%w: snapshot truncated (%d bytes)", ErrCorrupt, len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(body))
	}
	p := &payloadReader{b: body[4:]}
	if v := p.byte("version"); v != snapVersion && p.err == nil {
		return nil, fmt.Errorf("%w: snapshot version %d (want %d)", ErrCorrupt, v, snapVersion)
	}
	s := &Snapshot{}
	s.Shard = int(p.uvarint("shard"))
	s.Gen = p.uvarint("gen")
	s.NextSeq = p.uvarint("nextSeq")
	s.Admitted = p.uvarint("admitted")
	s.Cancelled = p.uvarint("cancelled")
	p.uvarint("reserved counter")
	p.uvarint("reserved counter")
	nBooks := p.uvarint("books count")
	if p.err == nil && nBooks > uint64(len(p.b)) { // each book is >= 1 byte
		return nil, fmt.Errorf("%w: %d books in %d bytes", ErrCorrupt, nBooks, len(p.b))
	}
	for i := uint64(0); i < nBooks && p.err == nil; i++ {
		var bk TenantBook
		bk.Tenant = p.str("book tenant")
		bk.Active = p.varint("book active")
		bk.Area = p.varint("book area")
		bk.Admitted = p.uvarint("book admitted")
		bk.Cancelled = p.uvarint("book cancelled")
		p.uvarint("book reserved counter")
		p.uvarint("book reserved counter")
		p.uvarint("book reserved counter")
		s.Books = append(s.Books, bk)
	}
	nLive := p.uvarint("live count")
	if p.err == nil && nLive > uint64(len(p.b)) {
		return nil, fmt.Errorf("%w: %d live entries in %d bytes", ErrCorrupt, nLive, len(p.b))
	}
	for i := uint64(0); i < nLive && p.err == nil; i++ {
		var lv Live
		lv.ID = p.uvarint("live id")
		lv.Start = p.varint("live start")
		lv.Dur = p.varint("live dur")
		lv.Procs = int(p.uvarint("live procs"))
		if p.byte("live reserved flag") != 0 && p.err == nil {
			return nil, fmt.Errorf("%w: snapshot holds a pending copy of %#x", ErrRetired, lv.ID)
		}
		p.uvarint("live reserved shard")
		lv.Tenant = p.str("live tenant")
		s.Live = append(s.Live, lv)
	}
	if n := p.uvarint("reserved count"); n != 0 && p.err == nil {
		return nil, fmt.Errorf("%w: snapshot holds %d open outs", ErrRetired, n)
	}
	if err := p.done("snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}
