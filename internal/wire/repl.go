package wire

// Replication payload encodings. The repl.append / repl.snapshot /
// repl.status operations ride inside ordinary v2 frame items; what this
// file defines is the binary layout of those items' payloads. The
// encodings use only primitive types — wire sits below core in the import
// graph, so the replication subsystem converts to and from its own record
// types at the boundary.
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
	"fmt"
)

// Replication record op codes.
const (
	ReplOpRevoke   byte = 1
	ReplOpUnrevoke byte = 2
)

// MaxReplRecords caps how many records one append payload may carry, and
// MaxReplEntries the entries in one snapshot chunk — both defend the
// decoder against a hostile count field, the same discipline as
// V2MaxBatch.
const (
	MaxReplRecords = 1 << 16
	MaxReplEntries = 1 << 16
)

// ReplRecord is one sequenced revocation mutation in wire form.
type ReplRecord struct {
	Epoch        uint64
	Seq          uint64
	Op           byte // ReplOpRevoke | ReplOpUnrevoke
	ID           string
	Reason       string
	WhenUnixNano int64
}

// ReplStatus is a daemon's replication position. Leader reports whether
// the answering daemon is the fleet's active (not deposed) replication
// leader — the probe signal ShardedClient uses to locate the real write
// path when a ring rebalance has moved the leader designation away from
// the daemon actually started with -repl-leader.
type ReplStatus struct {
	Epoch   uint64
	LastSeq uint64
	Leader  bool
}

// ReplSnapshotChunk is one slice of a full-state transfer. Entries across
// all Chunks chunks of the same (Epoch, BaseSeq) snapshot concatenate to
// the complete revocation set as of BaseSeq; Total is that full count so
// the receiver can pre-size and sanity-check.
type ReplSnapshotChunk struct {
	Epoch   uint64
	BaseSeq uint64
	Total   uint32
	Index   uint32
	Chunks  uint32
	Entries []ReplEntry
}

// ReplEntry is one revocation-list entry in wire form.
type ReplEntry struct {
	ID           string
	Reason       string
	WhenUnixNano int64
}

const (
	replRecordFixed = 8 + 8 + 1 + 2 + 2 + 8 // epoch, seq, op, idLen, reasonLen, when
	replEntryFixed  = 2 + 2 + 8
	replStatusLen   = 8 + 8 + 1 // epoch, lastSeq, leader flag
	replChunkHdrLen = 8 + 8 + 4 + 4 + 4 + 4
)

var (
	errReplTruncated = fmt.Errorf("%w: truncated replication payload", ErrProtocol)
	errReplTrailing  = fmt.Errorf("%w: replication payload has trailing bytes", ErrProtocol)
)

// AppendReplRecords appends the append-payload encoding of recs, sent by a
// leader at leaderEpoch, to dst and returns the extended slice.
func AppendReplRecords(dst []byte, leaderEpoch uint64, recs []ReplRecord) ([]byte, error) {
	if len(recs) > MaxReplRecords {
		return nil, fmt.Errorf("wire: %d replication records exceeds limit %d", len(recs), MaxReplRecords)
	}
	dst = binary.BigEndian.AppendUint64(dst, leaderEpoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		if len(r.ID) > int(^uint16(0)) || len(r.Reason) > int(^uint16(0)) {
			return nil, fmt.Errorf("wire: replication record %d id/reason exceeds 64 KiB", i)
		}
		dst = binary.BigEndian.AppendUint64(dst, r.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = append(dst, r.Op)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.ID)))
		dst = append(dst, r.ID...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Reason)))
		dst = append(dst, r.Reason...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.WhenUnixNano))
	}
	return dst, nil
}

// ParseReplRecords decodes an append payload, returning the sender's epoch
// and the records. The returned records' string fields are copies — they
// do not alias data.
func ParseReplRecords(data []byte) (uint64, []ReplRecord, error) {
	if len(data) < 12 {
		return 0, nil, errReplTruncated
	}
	leaderEpoch := binary.BigEndian.Uint64(data[:8])
	count := binary.BigEndian.Uint32(data[8:12])
	if count > MaxReplRecords {
		return 0, nil, fmt.Errorf("%w: replication record count %d exceeds limit", ErrProtocol, count)
	}
	off := 12
	recs := make([]ReplRecord, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(data)-off < replRecordFixed {
			return 0, nil, errReplTruncated
		}
		var r ReplRecord
		r.Epoch = binary.BigEndian.Uint64(data[off : off+8])
		r.Seq = binary.BigEndian.Uint64(data[off+8 : off+16])
		r.Op = data[off+16]
		off += 17
		var err error
		r.ID, off, err = replString(data, off)
		if err != nil {
			return 0, nil, err
		}
		r.Reason, off, err = replString(data, off)
		if err != nil {
			return 0, nil, err
		}
		if len(data)-off < 8 {
			return 0, nil, errReplTruncated
		}
		r.WhenUnixNano = int64(binary.BigEndian.Uint64(data[off : off+8]))
		off += 8
		recs = append(recs, r)
	}
	if off != len(data) {
		return 0, nil, errReplTrailing
	}
	return leaderEpoch, recs, nil
}

// replString reads a u16-length-prefixed string at off, returning the
// copied string and the new offset.
func replString(data []byte, off int) (string, int, error) {
	if len(data)-off < 2 {
		return "", 0, errReplTruncated
	}
	n := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2
	if len(data)-off < n {
		return "", 0, errReplTruncated
	}
	s := string(data[off : off+n])
	return s, off + n, nil
}

// PackReplStatus encodes a daemon's replication position.
func PackReplStatus(st ReplStatus) []byte {
	buf := make([]byte, replStatusLen)
	binary.BigEndian.PutUint64(buf[0:8], st.Epoch)
	binary.BigEndian.PutUint64(buf[8:16], st.LastSeq)
	if st.Leader {
		buf[16] = 1
	}
	return buf
}

// ParseReplStatus decodes a status payload.
func ParseReplStatus(data []byte) (ReplStatus, error) {
	if len(data) != replStatusLen {
		return ReplStatus{}, fmt.Errorf("%w: replication status is %d bytes, want %d", ErrProtocol, len(data), replStatusLen)
	}
	return ReplStatus{
		Epoch:   binary.BigEndian.Uint64(data[0:8]),
		LastSeq: binary.BigEndian.Uint64(data[8:16]),
		Leader:  data[16] == 1,
	}, nil
}

// MarshalReplSnapshotChunk encodes one snapshot chunk.
func MarshalReplSnapshotChunk(c *ReplSnapshotChunk) ([]byte, error) {
	if len(c.Entries) > MaxReplEntries {
		return nil, fmt.Errorf("wire: %d snapshot entries exceeds limit %d", len(c.Entries), MaxReplEntries)
	}
	if c.Chunks == 0 || c.Index >= c.Chunks {
		return nil, fmt.Errorf("wire: snapshot chunk index %d outside 0..%d", c.Index, c.Chunks)
	}
	size := replChunkHdrLen
	for i := range c.Entries {
		e := &c.Entries[i]
		if len(e.ID) > int(^uint16(0)) || len(e.Reason) > int(^uint16(0)) {
			return nil, fmt.Errorf("wire: snapshot entry %d id/reason exceeds 64 KiB", i)
		}
		size += replEntryFixed + len(e.ID) + len(e.Reason)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, c.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, c.BaseSeq)
	buf = binary.BigEndian.AppendUint32(buf, c.Total)
	buf = binary.BigEndian.AppendUint32(buf, c.Index)
	buf = binary.BigEndian.AppendUint32(buf, c.Chunks)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Entries)))
	for i := range c.Entries {
		e := &c.Entries[i]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.ID)))
		buf = append(buf, e.ID...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Reason)))
		buf = append(buf, e.Reason...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.WhenUnixNano))
	}
	return buf, nil
}

// ParseReplSnapshotChunk decodes one snapshot chunk. Entry strings are
// copies — they do not alias data.
func ParseReplSnapshotChunk(data []byte) (*ReplSnapshotChunk, error) {
	if len(data) < replChunkHdrLen {
		return nil, errReplTruncated
	}
	c := &ReplSnapshotChunk{
		Epoch:   binary.BigEndian.Uint64(data[0:8]),
		BaseSeq: binary.BigEndian.Uint64(data[8:16]),
		Total:   binary.BigEndian.Uint32(data[16:20]),
		Index:   binary.BigEndian.Uint32(data[20:24]),
		Chunks:  binary.BigEndian.Uint32(data[24:28]),
	}
	n := binary.BigEndian.Uint32(data[28:32])
	if n > MaxReplEntries {
		return nil, fmt.Errorf("%w: snapshot entry count %d exceeds limit", ErrProtocol, n)
	}
	if c.Chunks == 0 || c.Index >= c.Chunks {
		return nil, fmt.Errorf("%w: snapshot chunk index %d outside 0..%d", ErrProtocol, c.Index, c.Chunks)
	}
	off := replChunkHdrLen
	c.Entries = make([]ReplEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		var e ReplEntry
		var err error
		e.ID, off, err = replString(data, off)
		if err != nil {
			return nil, err
		}
		e.Reason, off, err = replString(data, off)
		if err != nil {
			return nil, err
		}
		if len(data)-off < 8 {
			return nil, errReplTruncated
		}
		e.WhenUnixNano = int64(binary.BigEndian.Uint64(data[off : off+8]))
		off += 8
		c.Entries = append(c.Entries, e)
	}
	if off != len(data) {
		return nil, errReplTrailing
	}
	return c, nil
}
