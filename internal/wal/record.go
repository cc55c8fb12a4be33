package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Type discriminates log records. The values are the on-disk encoding
// and must never be renumbered.
type Type uint8

const (
	// TAdmit records one admission: the canonical serialization of the
	// resd.Request that was admitted, plus the assigned ID and start.
	TAdmit Type = 1
	// TCancel records the release of an admitted reservation.
	TCancel Type = 2

	// Types 3 through 7 were the two-phase move's records (migrate-in,
	// -out, -commit, -abort, -out-ack), written only while the removed
	// rebalancer was switched on. The numbers stay reserved — never
	// written, never reused — and a frame carrying one is refused with
	// ErrRetired.
	retiredFirst Type = 3
	retiredLast  Type = 7
)

func (t Type) retired() bool { return t >= retiredFirst && t <= retiredLast }

func (t Type) String() string {
	switch t {
	case TAdmit:
		return "admit"
	case TCancel:
		return "cancel"
	default:
		return fmt.Sprintf("wal.Type(%d)", uint8(t))
	}
}

// Record is one logged decision. Which fields are meaningful depends on
// Type (see the package documentation's record table); the rest stay
// zero and are not encoded.
type Record struct {
	Type Type
	// ID is the service-wide reservation identity.
	ID uint64
	// Start is the admitted start time (TAdmit).
	Start int64
	// Ready, Dur, Deadline and Procs echo the admission request (TAdmit).
	Ready, Dur, Deadline int64
	Procs                int
	// Tenant is the accounting identity (TAdmit).
	Tenant string
}

// Framing and decoding errors.
var (
	// ErrCorrupt reports a frame that is structurally present but
	// invalid: CRC mismatch, impossible length, or a malformed payload.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrRetired reports intact state that only the removed rebalancer
	// wrote: a CRC-clean record of type 3–7, or a snapshot holding a
	// pending copy or an open out. It is not damage — Recover returns it
	// as an error and repairs nothing, so the directory stays readable by
	// the build that wrote it.
	ErrRetired = errors.New("wal: retired migration state")
	// errShort reports a frame cut off mid-write — the torn-tail signal
	// recovery treats as the crash point, not as corruption. Internal:
	// Recover folds it into ReplayInfo.
	errShort = errors.New("wal: short frame")
)

// maxPayload bounds a single record payload. The largest legal record
// is an admit with a 255-byte tenant name — well under this; anything
// bigger is corruption, not data.
const maxPayload = 1 << 16

// frameHeader is the fixed prefix of every frame: payload length and
// payload CRC, both little-endian uint32.
const frameHeader = 8

// appendUvarint / appendVarint wrap binary's appenders for symmetry.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendRecord appends r's framed encoding to buf and returns the
// extended slice.
func AppendRecord(buf []byte, r Record) []byte {
	head := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = append(buf, byte(r.Type))
	buf = appendUvarint(buf, r.ID)
	if r.Type == TAdmit { // a cancel is its ID
		buf = appendString(buf, r.Tenant)
		buf = appendVarint(buf, r.Ready)
		buf = appendUvarint(buf, uint64(r.Procs))
		buf = appendVarint(buf, r.Dur)
		buf = appendVarint(buf, r.Deadline)
		buf = appendVarint(buf, r.Start)
	}
	payload := buf[head+frameHeader:]
	binary.LittleEndian.PutUint32(buf[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[head+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord reads one frame from b. It returns the record, the
// number of bytes consumed, and an error: errShort when b ends before
// the frame does (torn tail), ErrCorrupt when the frame is invalid.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, errShort
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if len(b) < frameHeader+int(n) {
		return Record{}, 0, errShort
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, frameHeader + int(n), nil
}

// payloadReader walks a checksummed payload; any decoding error poisons
// the rest so callers check once at the end.
type payloadReader struct {
	b   []byte
	err error
}

func (p *payloadReader) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
}

func (p *payloadReader) byte(what string) byte {
	if p.err != nil {
		return 0
	}
	if len(p.b) == 0 {
		p.fail(what)
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

func (p *payloadReader) uvarint(what string) uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail(what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) varint(what string) int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.b)
	if n <= 0 {
		p.fail(what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) str(what string) string {
	n := p.uvarint(what)
	if p.err != nil {
		return ""
	}
	if n > uint64(len(p.b)) {
		p.fail(what)
		return ""
	}
	v := string(p.b[:n])
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) done(what string) error {
	if p.err != nil {
		return p.err
	}
	if len(p.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s", ErrCorrupt, len(p.b), what)
	}
	return nil
}

func decodePayload(payload []byte) (Record, error) {
	p := &payloadReader{b: payload}
	var r Record
	r.Type = Type(p.byte("type"))
	r.ID = p.uvarint("id")
	switch {
	case r.Type == TAdmit:
		r.Tenant = p.str("tenant")
		r.Ready = p.varint("ready")
		r.Procs = int(p.uvarint("procs"))
		r.Dur = p.varint("dur")
		r.Deadline = p.varint("deadline")
		r.Start = p.varint("start")
	case r.Type == TCancel:
	case r.Type.retired():
		return Record{}, fmt.Errorf("%w: record type %d", ErrRetired, r.Type)
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, r.Type)
	}
	return r, p.done(r.Type.String())
}
