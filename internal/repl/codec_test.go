package repl

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

func at(n int64) time.Time { return time.Unix(0, n).UTC() }

// The codec tests' good payloads, which FuzzReplPayloads also seeds from.
var (
	testRecords = []core.ReplRecord{
		{Epoch: 3, Seq: 41, Op: "revoke", ID: "alice@example.com", Reason: "compromised", When: at(1700000000000000001)},
		{Epoch: 3, Seq: 42, Op: "unrevoke", ID: "bob@example.com", When: at(-5)}, // pre-epoch times must survive
		{Epoch: 4, Seq: 43, Op: "revoke", ID: "", Reason: "", When: at(0)},       // empty strings are legal
	}
	testChunk = SnapshotChunk{
		Epoch: 2, BaseSeq: 99, Total: 5, Index: 1, Chunks: 3,
		Entries: []core.RevocationEntry{
			{ID: "a@x", Reason: "one", When: at(111)},
			{ID: "b@x", Reason: "", When: at(222)},
		},
	}
	testStatuses = []Status{
		{Epoch: 12, LastSeq: 1 << 40},
		{Epoch: 3, LastSeq: 7, Leader: true},
	}
)

// malformedRecords derives the refused append payloads from a good one
// carrying one revoke record with id "a@x".
func malformedRecords(good []byte) map[string][]byte {
	edit := func(f func(b []byte)) []byte { b := bytes.Clone(good); f(b); return b }
	return map[string][]byte{
		"empty":       {},
		"short hdr":   good[:8],
		"truncated":   good[:len(good)-3],
		"trailing":    append(bytes.Clone(good), 0xff),
		"count lies":  append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9}, good[12:]...),
		"string runs": edit(func(b []byte) { b[12+17], b[12+18] = 0xff, 0xff }),
		"op byte 0":   edit(func(b []byte) { b[12+16] = 0 }),
		"op byte 9":   edit(func(b []byte) { b[12+16] = 9 }),
	}
}

// malformedChunks derives the refused snapshot chunks from a good one.
func malformedChunks(good []byte) map[string][]byte {
	return map[string][]byte{
		"empty":     {},
		"short hdr": good[:20],
		"truncated": good[:len(good)-1],
		"trailing":  append(bytes.Clone(good), 1),
		"chunks 0":  append(append(bytes.Clone(good[:24]), 0, 0, 0, 0), good[28:]...),
	}
}

func goodRecord(t testing.TB) []byte {
	t.Helper()
	b, err := AppendRecords(nil, 1, []core.ReplRecord{{Epoch: 1, Seq: 1, Op: "revoke", ID: "a@x", Reason: "r", When: at(1)}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goodChunk(t testing.TB) []byte {
	t.Helper()
	b, err := MarshalSnapshotChunk(&SnapshotChunk{
		Epoch: 1, Chunks: 1, Total: 1,
		Entries: []core.RevocationEntry{{ID: "a@x", Reason: "r", When: at(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecordsRoundTrip(t *testing.T) {
	payload, err := AppendRecords(nil, 7, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	leaderEpoch, got, err := ParseRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	if leaderEpoch != 7 {
		t.Errorf("leaderEpoch = %d, want 7", leaderEpoch)
	}
	if len(got) != len(testRecords) {
		t.Fatalf("decoded %d records, want %d", len(got), len(testRecords))
	}
	for i := range testRecords {
		if got[i] != testRecords[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], testRecords[i])
		}
	}
	// An empty batch is legal (a heartbeat-shaped append).
	empty, err := AppendRecords(nil, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e, rs, err := ParseRecords(empty); err != nil || e != 9 || len(rs) != 0 {
		t.Errorf("empty batch: epoch %d, %d recs, %v", e, len(rs), err)
	}
}

func TestRecordsMalformed(t *testing.T) {
	for name, data := range malformedRecords(goodRecord(t)) {
		_, _, err := ParseRecords(data)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", name)
		case strings.HasPrefix(name, "op byte"):
			// The server answers this text as it stands (golden frame
			// err_repl_bad_op): not wrapped in ErrProtocol.
			if want := "unknown replication op byte 0x" + name[len(name)-1:]; err.Error() != want {
				t.Errorf("%s: error %q, want %q", name, err, want)
			}
		case !errors.Is(err, wire.ErrProtocol):
			t.Errorf("%s: error %v does not wrap ErrProtocol", name, err)
		}
	}
	// An unknown op is refused only once the whole payload has parsed: a
	// payload that is also truncated reports the truncation.
	bad := malformedRecords(goodRecord(t))["op byte 9"]
	if _, _, err := ParseRecords(bad[:len(bad)-1]); !errors.Is(err, wire.ErrProtocol) {
		t.Errorf("truncated payload with op byte 9: err = %v, want the truncation", err)
	}
	// Oversized batch, oversized id and unknown op refused at encode time.
	if _, err := AppendRecords(nil, 1, make([]core.ReplRecord, maxRecords+1)); err == nil {
		t.Error("oversized batch encoded")
	}
	if _, err := AppendRecords(nil, 1, []core.ReplRecord{{Op: "revoke", ID: strings.Repeat("x", 1<<16)}}); err == nil {
		t.Error("oversized id encoded")
	}
	if _, err := AppendRecords(nil, 1, []core.ReplRecord{{Op: "snapshot", ID: "a@x"}}); err == nil {
		t.Error("unknown op encoded")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	for _, st := range testStatuses {
		got, err := ParseStatus(PackStatus(st))
		if err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Errorf("status = %+v, want %+v", got, st)
		}
	}
	// Exactly one encoding exists: the 16-byte form without the leader flag
	// is refused like any other wrong length, and so is a flag other than
	// 0 or 1.
	for _, n := range []int{0, 15, 16, 18} {
		if _, err := ParseStatus(make([]byte, n)); !errors.Is(err, wire.ErrProtocol) {
			t.Errorf("%d-byte status: err = %v, want ErrProtocol", n, err)
		}
	}
	flag2 := PackStatus(testStatuses[1])
	flag2[16] = 2
	if _, err := ParseStatus(flag2); !errors.Is(err, wire.ErrProtocol) {
		t.Errorf("leader flag 2: err = %v, want ErrProtocol", err)
	}
}

func TestSnapshotChunkRoundTrip(t *testing.T) {
	payload, err := MarshalSnapshotChunk(&testChunk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshotChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	c := &testChunk
	if got.Epoch != c.Epoch || got.BaseSeq != c.BaseSeq || got.Total != c.Total ||
		got.Index != c.Index || got.Chunks != c.Chunks || len(got.Entries) != len(c.Entries) {
		t.Fatalf("chunk = %+v, want %+v", got, c)
	}
	for i := range c.Entries {
		if got.Entries[i] != c.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Entries[i], c.Entries[i])
		}
	}
	// An empty chunk (empty fleet state) still carries its header.
	ec := &SnapshotChunk{Epoch: 1, BaseSeq: 0, Chunks: 1}
	if b, err := MarshalSnapshotChunk(ec); err != nil {
		t.Fatal(err)
	} else if got, err := ParseSnapshotChunk(b); err != nil || len(got.Entries) != 0 {
		t.Errorf("empty chunk: %+v, %v", got, err)
	}
}

func TestSnapshotChunkMalformed(t *testing.T) {
	for name, data := range malformedChunks(goodChunk(t)) {
		if _, err := ParseSnapshotChunk(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, wire.ErrProtocol) {
			t.Errorf("%s: error %v does not wrap ErrProtocol", name, err)
		}
	}
	// Index outside Chunks refused at encode time too.
	if _, err := MarshalSnapshotChunk(&SnapshotChunk{Chunks: 2, Index: 2}); err == nil {
		t.Error("bad index encoded")
	}
}

// FuzzReplPayloads holds the three decoders a peer's bytes reach to two
// rules: no input panics, and every payload that parses re-encodes byte
// for byte (one encoding per value, so a follower applies what the leader
// meant and nothing a second reading could differ on).
func FuzzReplPayloads(f *testing.F) {
	records, err := AppendRecords(nil, 7, testRecords)
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := MarshalSnapshotChunk(&testChunk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(records)
	f.Add(chunk)
	for _, st := range testStatuses {
		f.Add(PackStatus(st))
	}
	for _, data := range malformedRecords(goodRecord(f)) {
		f.Add(data)
	}
	for _, data := range malformedChunks(goodChunk(f)) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, recs, err := ParseRecords(data); err == nil {
			if back, err := AppendRecords(nil, epoch, recs); err != nil || !bytes.Equal(back, data) {
				t.Fatalf("records %x re-encode as %x (%v)", data, back, err)
			}
		}
		if c, err := ParseSnapshotChunk(data); err == nil {
			if back, err := MarshalSnapshotChunk(c); err != nil || !bytes.Equal(back, data) {
				t.Fatalf("chunk %x re-encodes as %x (%v)", data, back, err)
			}
		}
		if st, err := ParseStatus(data); err == nil {
			if back := PackStatus(st); !bytes.Equal(back, data) {
				t.Fatalf("status %x re-encodes as %x", data, back)
			}
		}
	})
}
