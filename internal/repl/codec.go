package repl

// Replication payload encodings. The repl.append / repl.snapshot /
// repl.status operations ride inside ordinary v2 frame items; this file
// defines the binary layout of those items' payloads, encoded from and
// decoded into the journal's own types (core.ReplRecord,
// core.RevocationEntry, SnapshotChunk) with no wire-side twin.
//
// All integers are big-endian, matching the rest of the v2 framing.
//
//	record        = epoch u64 | seq u64 | op u8 | idLen u16 | id |
//	                reasonLen u16 | reason | when i64 (unix nanos)
//	append        = leaderEpoch u64 | count u32 | count × record
//	status        = epoch u64 | lastSeq u64 | leader u8
//	snapshotChunk = epoch u64 | baseSeq u64 | total u32 | index u32 |
//	                chunks u32 | n u32 | n × entry
//	entry         = idLen u16 | id | reasonLen u16 | reason | when i64
//
// A record's op byte is 1 for "revoke" and 2 for "unrevoke"; times decode
// as time.Unix(0, when).UTC().
//
// One append payload carries a whole batch of records on purpose: the v2
// server fans the *items* of a batch frame across workers in parallel, so
// ordered replication must pack its ordered records inside a single item.
//
// leaderEpoch is the *sender's* current epoch, distinct from the epochs
// stamped on the records: a freshly promoted leader relays suffix records
// its predecessor sequenced (stamped with the old epoch), so the follower's
// fence must judge the sender, not the records.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// maxRecords caps how many records one append payload may carry, and
// maxEntries the entries in one snapshot chunk — both defend the decoder
// against a hostile count field, the same discipline as wire.V2MaxBatch.
const (
	maxRecords = 1 << 16
	maxEntries = 1 << 16
)

// Status is a daemon's replication position. Leader reports whether the
// answering daemon is the fleet's active (not deposed) replication leader
// — the probe signal ShardedClient uses to locate the fleet's revocation
// write path.
type Status struct {
	Epoch   uint64
	LastSeq uint64
	Leader  bool
}

const (
	recordFixed = 8 + 8 + 1 + 2 + 2 + 8 // epoch, seq, op, idLen, reasonLen, when
	entryFixed  = 2 + 2 + 8
	statusLen   = 8 + 8 + 1 // epoch, lastSeq, leader flag
	chunkHdrLen = 8 + 8 + 4 + 4 + 4 + 4
)

var (
	errTruncated = fmt.Errorf("%w: truncated replication payload", wire.ErrProtocol)
	errTrailing  = fmt.Errorf("%w: replication payload has trailing bytes", wire.ErrProtocol)
	errTooLong   = errors.New("id/reason exceeds 64 KiB")
)

// opBytes maps a journal op name to its wire byte; opNames is the inverse.
var (
	opBytes = map[string]byte{"revoke": 1, "unrevoke": 2}
	opNames = [...]string{1: "revoke", 2: "unrevoke"}
)

// AppendRecords appends the append-payload encoding of recs, sent by a
// leader at leaderEpoch, to dst and returns the extended slice.
func AppendRecords(dst []byte, leaderEpoch uint64, recs []core.ReplRecord) ([]byte, error) {
	if len(recs) > maxRecords {
		return nil, fmt.Errorf("repl: %d replication records exceeds limit %d", len(recs), maxRecords)
	}
	dst = binary.BigEndian.AppendUint64(dst, leaderEpoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		op, ok := opBytes[r.Op]
		if !ok {
			return nil, fmt.Errorf("repl: record %d has unknown replication op %q", i, r.Op)
		}
		dst = binary.BigEndian.AppendUint64(dst, r.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = append(dst, op)
		var err error
		if dst, err = appendEntry(dst, r.ID, r.Reason, r.When); err != nil {
			return nil, fmt.Errorf("repl: replication record %d: %w", i, err)
		}
	}
	return dst, nil
}

// ParseRecords decodes an append payload, returning the sender's epoch and
// the records. The returned records' string fields are copies — they do
// not alias data. An op byte other than revoke's or unrevoke's is refused
// once the rest of the payload has parsed.
func ParseRecords(data []byte) (uint64, []core.ReplRecord, error) {
	if len(data) < 12 {
		return 0, nil, errTruncated
	}
	leaderEpoch := binary.BigEndian.Uint64(data[:8])
	count := binary.BigEndian.Uint32(data[8:12])
	if count > maxRecords {
		return 0, nil, fmt.Errorf("%w: replication record count %d exceeds limit", wire.ErrProtocol, count)
	}
	off := 12
	// Capacity is what data can hold, not what count claims.
	recs := make([]core.ReplRecord, 0, min(int(count), (len(data)-off)/recordFixed))
	var badOp error
	for i := uint32(0); i < count; i++ {
		if len(data)-off < recordFixed {
			return 0, nil, errTruncated
		}
		r := core.ReplRecord{
			Epoch: binary.BigEndian.Uint64(data[off : off+8]),
			Seq:   binary.BigEndian.Uint64(data[off+8 : off+16]),
		}
		if op := data[off+16]; int(op) < len(opNames) && opNames[op] != "" {
			r.Op = opNames[op]
		} else if badOp == nil {
			badOp = fmt.Errorf("unknown replication op byte %#x", op)
		}
		var err error
		if r.ID, r.Reason, r.When, off, err = parseEntry(data, off+17); err != nil {
			return 0, nil, err
		}
		recs = append(recs, r)
	}
	if off != len(data) {
		return 0, nil, errTrailing
	}
	if badOp != nil {
		return 0, nil, badOp
	}
	return leaderEpoch, recs, nil
}

// appendEntry appends the id | reason | when fields a record and a
// snapshot entry share.
func appendEntry(dst []byte, id, reason string, when time.Time) ([]byte, error) {
	if len(id) > int(^uint16(0)) || len(reason) > int(^uint16(0)) {
		return nil, errTooLong
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(id)))
	dst = append(dst, id...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(reason)))
	dst = append(dst, reason...)
	return binary.BigEndian.AppendUint64(dst, uint64(when.UnixNano())), nil
}

// parseEntry reads the id | reason | when fields at off, returning copied
// strings and the new offset.
func parseEntry(data []byte, off int) (id, reason string, when time.Time, next int, err error) {
	if id, off, err = parseString(data, off); err != nil {
		return "", "", time.Time{}, 0, err
	}
	if reason, off, err = parseString(data, off); err != nil {
		return "", "", time.Time{}, 0, err
	}
	if len(data)-off < 8 {
		return "", "", time.Time{}, 0, errTruncated
	}
	when = time.Unix(0, int64(binary.BigEndian.Uint64(data[off:off+8]))).UTC()
	return id, reason, when, off + 8, nil
}

// parseString reads a u16-length-prefixed string at off, returning the
// copied string and the new offset.
func parseString(data []byte, off int) (string, int, error) {
	if len(data)-off < 2 {
		return "", 0, errTruncated
	}
	n := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2
	if len(data)-off < n {
		return "", 0, errTruncated
	}
	return string(data[off : off+n]), off + n, nil
}

// PackStatus encodes a daemon's replication position.
func PackStatus(st Status) []byte {
	buf := make([]byte, statusLen)
	binary.BigEndian.PutUint64(buf[0:8], st.Epoch)
	binary.BigEndian.PutUint64(buf[8:16], st.LastSeq)
	if st.Leader {
		buf[16] = 1
	}
	return buf
}

// ParseStatus decodes a status payload; the leader flag is 0 or 1.
func ParseStatus(data []byte) (Status, error) {
	if len(data) != statusLen {
		return Status{}, fmt.Errorf("%w: replication status is %d bytes, want %d", wire.ErrProtocol, len(data), statusLen)
	}
	if data[16] > 1 {
		return Status{}, fmt.Errorf("%w: replication status leader flag %#x", wire.ErrProtocol, data[16])
	}
	return Status{
		Epoch:   binary.BigEndian.Uint64(data[0:8]),
		LastSeq: binary.BigEndian.Uint64(data[8:16]),
		Leader:  data[16] == 1,
	}, nil
}

// MarshalSnapshotChunk encodes one snapshot chunk.
func MarshalSnapshotChunk(c *SnapshotChunk) ([]byte, error) {
	if len(c.Entries) > maxEntries {
		return nil, fmt.Errorf("repl: %d snapshot entries exceeds limit %d", len(c.Entries), maxEntries)
	}
	if c.Chunks <= 0 || c.Index < 0 || c.Index >= c.Chunks {
		return nil, fmt.Errorf("repl: snapshot chunk index %d outside 0..%d", c.Index, c.Chunks)
	}
	size := chunkHdrLen
	for i := range c.Entries {
		size += entryFixed + len(c.Entries[i].ID) + len(c.Entries[i].Reason)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, c.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, c.BaseSeq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.Total))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.Index))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.Chunks))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Entries)))
	for i := range c.Entries {
		e := &c.Entries[i]
		var err error
		if buf, err = appendEntry(buf, e.ID, e.Reason, e.When); err != nil {
			return nil, fmt.Errorf("repl: snapshot entry %d: %w", i, err)
		}
	}
	return buf, nil
}

// ParseSnapshotChunk decodes one snapshot chunk. Entry strings are copies
// — they do not alias data.
func ParseSnapshotChunk(data []byte) (*SnapshotChunk, error) {
	if len(data) < chunkHdrLen {
		return nil, errTruncated
	}
	c := &SnapshotChunk{
		Epoch:   binary.BigEndian.Uint64(data[0:8]),
		BaseSeq: binary.BigEndian.Uint64(data[8:16]),
		Total:   int(binary.BigEndian.Uint32(data[16:20])),
		Index:   int(binary.BigEndian.Uint32(data[20:24])),
		Chunks:  int(binary.BigEndian.Uint32(data[24:28])),
	}
	n := binary.BigEndian.Uint32(data[28:32])
	if n > maxEntries {
		return nil, fmt.Errorf("%w: snapshot entry count %d exceeds limit", wire.ErrProtocol, n)
	}
	if c.Chunks == 0 || c.Index >= c.Chunks {
		return nil, fmt.Errorf("%w: snapshot chunk index %d outside 0..%d", wire.ErrProtocol, c.Index, c.Chunks)
	}
	off := chunkHdrLen
	c.Entries = make([]core.RevocationEntry, 0, min(int(n), (len(data)-off)/entryFixed))
	for i := uint32(0); i < n; i++ {
		var e core.RevocationEntry
		var err error
		if e.ID, e.Reason, e.When, off, err = parseEntry(data, off); err != nil {
			return nil, err
		}
		c.Entries = append(c.Entries, e)
	}
	if off != len(data) {
		return nil, errTrailing
	}
	return c, nil
}
