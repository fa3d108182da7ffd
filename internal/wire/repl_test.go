package wire

import (
	"errors"
	"strings"
	"testing"
)

func TestReplRecordsRoundTrip(t *testing.T) {
	recs := []ReplRecord{
		{Epoch: 3, Seq: 41, Op: ReplOpRevoke, ID: "alice@example.com", Reason: "compromised", WhenUnixNano: 1700000000000000001},
		{Epoch: 3, Seq: 42, Op: ReplOpUnrevoke, ID: "bob@example.com", WhenUnixNano: -5}, // pre-epoch times must survive
		{Epoch: 4, Seq: 43, Op: ReplOpRevoke, ID: "", Reason: ""},                        // empty strings are legal
	}
	payload, err := AppendReplRecords(nil, 7, recs)
	if err != nil {
		t.Fatal(err)
	}
	leaderEpoch, got, err := ParseReplRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	if leaderEpoch != 7 {
		t.Errorf("leaderEpoch = %d, want 7", leaderEpoch)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// An empty batch is legal (a heartbeat-shaped append).
	empty, err := AppendReplRecords(nil, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e, rs, err := ParseReplRecords(empty); err != nil || e != 9 || len(rs) != 0 {
		t.Errorf("empty batch: epoch %d, %d recs, %v", e, len(rs), err)
	}
}

func TestReplRecordsMalformed(t *testing.T) {
	good, err := AppendReplRecords(nil, 1, []ReplRecord{{Epoch: 1, Seq: 1, Op: ReplOpRevoke, ID: "a@x", Reason: "r"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short hdr":   good[:8],
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xff),
		"count lies":  append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9}, good[12:]...),
		"string runs": func() []byte { b := append([]byte{}, good...); b[12+17] = 0xff; b[12+18] = 0xff; return b }(),
	}
	for name, data := range cases {
		if _, _, err := ParseReplRecords(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: error %v does not wrap ErrProtocol", name, err)
		}
	}
	// Oversized batch refused at encode time.
	if _, err := AppendReplRecords(nil, 1, make([]ReplRecord, MaxReplRecords+1)); err == nil {
		t.Error("oversized batch encoded")
	}
	// Oversized id refused at encode time.
	if _, err := AppendReplRecords(nil, 1, []ReplRecord{{ID: strings.Repeat("x", 1<<16)}}); err == nil {
		t.Error("oversized id encoded")
	}
}

func TestReplStatusRoundTrip(t *testing.T) {
	for _, st := range []ReplStatus{
		{Epoch: 12, LastSeq: 1 << 40},
		{Epoch: 3, LastSeq: 7, Leader: true},
	} {
		got, err := ParseReplStatus(PackReplStatus(st))
		if err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Errorf("status = %+v, want %+v", got, st)
		}
	}
	// Exactly one encoding exists: the 16-byte form without the leader flag
	// is refused like any other wrong length.
	for _, n := range []int{0, 15, 16, 18} {
		if _, err := ParseReplStatus(make([]byte, n)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%d-byte status: err = %v, want ErrProtocol", n, err)
		}
	}
}

func TestReplSnapshotChunkRoundTrip(t *testing.T) {
	c := &ReplSnapshotChunk{
		Epoch:   2,
		BaseSeq: 99,
		Total:   5,
		Index:   1,
		Chunks:  3,
		Entries: []ReplEntry{
			{ID: "a@x", Reason: "one", WhenUnixNano: 111},
			{ID: "b@x", Reason: "", WhenUnixNano: 222},
		},
	}
	payload, err := MarshalReplSnapshotChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReplSnapshotChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
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
	ec := &ReplSnapshotChunk{Epoch: 1, BaseSeq: 0, Chunks: 1}
	if b, err := MarshalReplSnapshotChunk(ec); err != nil {
		t.Fatal(err)
	} else if got, err := ParseReplSnapshotChunk(b); err != nil || len(got.Entries) != 0 {
		t.Errorf("empty chunk: %+v, %v", got, err)
	}
}

func TestReplSnapshotChunkMalformed(t *testing.T) {
	good, err := MarshalReplSnapshotChunk(&ReplSnapshotChunk{
		Epoch: 1, Chunks: 1, Total: 1,
		Entries: []ReplEntry{{ID: "a@x", Reason: "r", WhenUnixNano: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short hdr": good[:20],
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 1),
	}
	for name, data := range cases {
		if _, err := ParseReplSnapshotChunk(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: error %v does not wrap ErrProtocol", name, err)
		}
	}
	// Index outside Chunks refused both ways.
	if _, err := MarshalReplSnapshotChunk(&ReplSnapshotChunk{Chunks: 2, Index: 2}); err == nil {
		t.Error("bad index encoded")
	}
	bad := append([]byte{}, good...)
	bad[24], bad[25], bad[26], bad[27] = 0, 0, 0, 0 // chunks = 0
	if _, err := ParseReplSnapshotChunk(bad); !errors.Is(err, ErrProtocol) {
		t.Errorf("chunks=0: err = %v, want ErrProtocol", err)
	}
}
