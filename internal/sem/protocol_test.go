package sem

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/wire"
)

// The frame tests exercise the protocol's one framing through this
// package's own vocabulary — op bytes, status bytes and the re-exported
// error sentinels callers match on.

func TestFrameRoundTrip(t *testing.T) {
	var enc wire.FrameEncoder
	var dec wire.FrameDecoder
	frame, err := enc.EncodeRequest(opIBEToken, []wire.ReqItem{{ID: []byte(testID), Payload: []byte{1, 2, 3}}}, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	op, items, n, err := dec.ReadRequest(bytes.NewReader(frame), DefaultMaxFrame, DefaultMaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("read %d bytes, wrote %d", n, len(frame))
	}
	if op != opIBEToken || len(items) != 1 || string(items[0].ID) != testID || !bytes.Equal(items[0].Payload, []byte{1, 2, 3}) {
		t.Fatalf("request round trip mismatch: op=%d items=%+v", op, items)
	}

	frame, err = enc.EncodeResponse(opIBEToken, []wire.RespItem{{Status: statusRevoked, Data: []byte("why")}}, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	op, resp, n, err := dec.ReadResponse(bytes.NewReader(frame), DefaultMaxFrame, DefaultMaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) || op != opIBEToken || len(resp) != 1 || resp[0].Status != statusRevoked || string(resp[0].Data) != "why" {
		t.Fatalf("response round trip mismatch: n=%d op=%d items=%+v", n, op, resp)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var enc wire.FrameEncoder
	huge := []wire.ReqItem{{Payload: make([]byte, DefaultMaxFrame)}}
	if _, err := enc.EncodeRequest(opRSASign, huge, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write accepted: %v", err)
	}
	// Oversized announced length on read.
	var dec wire.FrameDecoder
	if _, _, _, err := dec.ReadRequest(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), DefaultMaxFrame, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read accepted: %v", err)
	}
	// More items than the connection negotiated.
	frame, err := enc.EncodeRequest(opPing, make([]wire.ReqItem, 3), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dec.ReadRequest(bytes.NewReader(frame), DefaultMaxFrame, 2); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("over-batch read accepted: %v", err)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	var dec wire.FrameDecoder
	// Truncated body.
	if _, _, _, err := dec.ReadRequest(bytes.NewReader([]byte{0, 0, 0, 10, 'x'}), 0, 0); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated body accepted: %v", err)
	}
	// An item that overruns its frame.
	if _, _, _, err := dec.ReadRequest(bytes.NewReader([]byte{0, 0, 0, 5, opPing, 0, 1, 0xFF, 0xFF}), 0, 0); !errors.Is(err, ErrProtocol) {
		t.Fatalf("overrunning item accepted: %v", err)
	}
	// Empty reader → io error, not ErrProtocol (the server treats it as EOF).
	if _, _, _, err := dec.ReadRequest(bytes.NewReader(nil), 0, 0); err == nil || errors.Is(err, ErrProtocol) {
		t.Fatalf("empty reader: %v", err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	property := func(op byte, id string, payload []byte) bool {
		if len(id) > 1000 || len(payload) > 10000 {
			return true // stay under the frame cap
		}
		var enc wire.FrameEncoder
		var dec wire.FrameDecoder
		frame, err := enc.EncodeRequest(op, []wire.ReqItem{{ID: []byte(id), Payload: payload}}, 0)
		if err != nil {
			return false
		}
		gotOp, items, _, err := dec.ReadRequest(bytes.NewReader(frame), 0, 0)
		if err != nil || len(items) != 1 {
			return false
		}
		return gotOp == op && string(items[0].ID) == id && bytes.Equal(items[0].Payload, payload)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOpAndStatusTables pins the two tables the protocol dispatches from:
// every op byte has a distinct name and a handler, every failure class a
// distinct code, and the server's error → status mapping inverts through
// the client's status → error mapping.
func TestOpAndStatusTables(t *testing.T) {
	names := make(map[Op]bool)
	for op := 1; op < numOps; op++ {
		row := opTable[op]
		if row.name == "" || row.handle == nil || names[row.name] {
			t.Errorf("op byte %d: name %q (duplicate %v), handler set %v", op, row.name, names[row.name], row.handle != nil)
		}
		names[row.name] = true
	}
	if opName(0) != "" || opName(byte(numOps)) != "" || opName(255) != "" {
		t.Error("bytes outside the table must have no name")
	}

	for _, tc := range []struct {
		err  error
		want byte
	}{
		{nil, statusOK},
		{core.ErrRevoked, statusRevoked},
		{core.ErrUnknownIdentity, statusUnknownIdentity},
		{errors.New("operand refused"), statusBadRequest},
		{badRequest("x"), statusBadRequest},
		{unsupported("x"), statusUnsupported},
		{internal(errors.New("disk")), statusInternal},
		{internal(repl.ErrStaleEpoch), statusStaleEpoch}, // a sentinel outranks the path's class
		{repl.ErrSeqGap, statusSeqGap},
		{repl.ErrNotLeader, statusNotLeader},
		{internal(repl.ErrNotReplicated), statusNotReplicated},
	} {
		got := statusFor(tc.err)
		if got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		back := remoteErr(got, []byte(tc.err.Error()))
		if !errors.Is(back, ErrRemote) || (statusTable[got].sentinel != nil && statusFor(back) != got) {
			t.Errorf("status %d does not survive the client mapping: %v", got, back)
		}
	}
	if internal(nil) != nil {
		t.Error("internal(nil) must stay nil")
	}
	if err := remoteErr(200, []byte("future")); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown status byte: %v", err)
	}
}

func TestQuickPackIntsRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	property := func(raw [][]byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		xs := make([]*big.Int, len(raw))
		for i, b := range raw {
			if len(b) > 1000 {
				b = b[:1000]
			}
			xs[i] = new(big.Int).SetBytes(b)
		}
		packed, err := wire.PackInts(xs)
		if err != nil {
			return false
		}
		back, err := wire.UnpackInts(packed)
		if err != nil {
			return false
		}
		if len(back) != len(xs) {
			return false
		}
		for i := range xs {
			if xs[i].Cmp(back[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
