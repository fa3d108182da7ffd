package sem

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/mrsa"
	"repro/internal/wire"
)

func TestV2Negotiated(t *testing.T) {
	f := newFixture(t)
	_, maxBatch, maxFrame := rawConn(t, f.addr, wire.V2Version) // asserts the acked version
	if maxBatch != DefaultMaxBatch || maxFrame != DefaultMaxFrame {
		t.Fatalf("negotiated limits %d/%d, want %d/%d", maxBatch, maxFrame, DefaultMaxBatch, DefaultMaxFrame)
	}
}

// randomPoints returns n distinct order-q subgroup points for batch
// payloads (hashed, so they pass the server's subgroup screening).
func randomPoints(t *testing.T, f *fixture, n int) []*curve.Point {
	t.Helper()
	pts := make([]*curve.Point, n)
	for i := range pts {
		var err error
		pts[i], err = f.pp.Curve().HashToPoint("semv2-test", []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestTokenBatchMatchesSingleOps(t *testing.T) {
	f := newFixture(t)
	const k = 5
	us := randomPoints(t, f, k)
	ids := make([]string, k)
	for i := range ids {
		ids[i] = testID
	}
	tokens, errs, err := f.client.TokenBatch(ids, us)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d failed: %v", i, errs[i])
		}
		single, err := f.client.IBEToken(testID, us[i])
		if err != nil {
			t.Fatal(err)
		}
		if !tokens[i].Equal(single) {
			t.Fatalf("batch token %d differs from the single-op token", i)
		}
	}
}

func TestTokenBatchPartialFailures(t *testing.T) {
	f := newFixture(t)
	us := randomPoints(t, f, 4)
	ids := []string{testID, "nobody@example.com", testID, "nobody@example.com"}
	tokens, errs, err := f.client.TokenBatch(ids, us)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id == testID {
			if errs[i] != nil || tokens[i] == nil {
				t.Fatalf("valid item %d failed: %v", i, errs[i])
			}
			continue
		}
		if !errors.Is(errs[i], core.ErrUnknownIdentity) {
			t.Fatalf("item %d: want ErrUnknownIdentity, got %v", i, errs[i])
		}
		if tokens[i] != nil {
			t.Fatalf("failed item %d still has a token", i)
		}
	}
}

func TestTokenBatchSplitsOverMaxBatch(t *testing.T) {
	f := newFixture(t)
	// Force several chunks through the negotiated limit.
	k := DefaultMaxBatch*2 + 3
	us := randomPoints(t, f, k)
	ids := make([]string, k)
	for i := range ids {
		ids[i] = testID
	}
	tokens, errs, err := f.client.TokenBatch(ids, us)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tokens {
		if errs[i] != nil || tokens[i] == nil {
			t.Fatalf("item %d of a chunked batch failed: %v", i, errs[i])
		}
	}
}

func TestGDHHalfSignBatch(t *testing.T) {
	f := newFixture(t)
	hs := randomPoints(t, f, 3)
	ids := []string{testID, testID, testID}
	halves, errs, err := f.client.GDHHalfSignBatch(ids, hs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range halves {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		single, err := f.client.GDHHalfSign(testID, hs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !halves[i].Equal(single) {
			t.Fatalf("batch half %d differs from the single-op half", i)
		}
	}
}

func TestRSAHalfDecryptBatch(t *testing.T) {
	f := newFixture(t)
	const k = 3
	ids := make([]string, k)
	cts := make([]*big.Int, k)
	msgs := make([][]byte, k)
	for i := 0; i < k; i++ {
		ids[i] = testID
		msgs[i] = []byte(fmt.Sprintf("batch message %d", i))
		raw, err := f.rsaPub.EncryptOAEP(rand.Reader, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i], err = wire.UnmarshalScalar(raw, f.rsaPub.N)
		if err != nil {
			t.Fatal(err)
		}
	}
	halves, errs, err := f.client.RSAHalfDecryptBatch(f.rsaPub, ids, cts)
	if err != nil {
		t.Fatal(err)
	}
	// Combine each SEM half with the local user half and finish the OAEP
	// decryption, matching what DecryptRSA does per item.
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		combined := mrsa.Combine(f.rsaPub.N, f.rsaUser.Op(cts[i]), halves[i])
		got, err := mrsa.FinishDecrypt(f.rsaPub, combined)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msgs[i]) {
			t.Fatalf("batch-decrypted %q, want %q", got, msgs[i])
		}
	}
}

// rawConn dials addr and completes the handshake manually, for
// protocol-level misbehavior tests.
func rawConn(t *testing.T, addr string, proposeVersion byte) (net.Conn, int, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.WriteV2Hello(conn, proposeVersion); err != nil {
		t.Fatal(err)
	}
	version, maxBatch, maxFrame, err := wire.ReadV2Ack(conn)
	if err != nil {
		t.Fatal(err)
	}
	if version != wire.V2Version {
		t.Fatalf("ack version %d, want %d", version, wire.V2Version)
	}
	return conn, maxBatch, maxFrame
}

func TestV2UnknownVersionDowngrades(t *testing.T) {
	f := newFixture(t)
	conn, _, _ := rawConn(t, f.server.Addr().String(), 9) // proposes a future version
	// The ack names version 2 whatever was proposed, and the connection
	// speaks it.
	var enc wire.FrameEncoder
	frame, err := enc.EncodeRequest(opPing, []wire.ReqItem{{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var dec wire.FrameDecoder
	op, items, _, err := dec.ReadResponse(conn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != opPing || len(items) != 1 || items[0].Status != statusOK {
		t.Fatalf("ping after downgrade: op=%d items=%+v", op, items)
	}
}

func TestV2OverBatchGetsTypedRefusal(t *testing.T) {
	_, addr := newFixtureWithLimits(t, 4096, 2)
	conn, maxBatch, _ := rawConn(t, addr, wire.V2Version)
	if maxBatch != 2 {
		t.Fatalf("announced max batch %d, want 2", maxBatch)
	}
	var enc wire.FrameEncoder
	items := []wire.ReqItem{{}, {}, {}} // 3 > 2
	frame, err := enc.EncodeRequest(opPing, items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var dec wire.FrameDecoder
	op, resp, _, err := dec.ReadResponse(conn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != opPing || len(resp) != 1 || resp[0].Status != statusBadRequest {
		t.Fatalf("over-batch refusal: op=%d resp=%+v", op, resp)
	}
	// The stream stays synchronized: a conforming frame still works.
	frame, err = enc.EncodeRequest(opPing, items[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, resp, _, err = dec.ReadResponse(conn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 || resp[0].Status != statusOK {
		t.Fatalf("conforming frame after refusal: %+v", resp)
	}
}

func TestV2OversizeFrameGetsTypedRefusal(t *testing.T) {
	_, addr := newFixtureWithLimits(t, 4096, 8)
	conn, _, maxFrame := rawConn(t, addr, wire.V2Version)
	if maxFrame != 4096 {
		t.Fatalf("announced max frame %d, want 4096", maxFrame)
	}
	var enc wire.FrameEncoder
	oversize := []wire.ReqItem{{ID: []byte(testID), Payload: make([]byte, 8192)}}
	frame, err := enc.EncodeRequest(opRSADecrypt, oversize, 0) // beyond server cap, below wire default
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var dec wire.FrameDecoder
	_, resp, _, err := dec.ReadResponse(conn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].Status != statusBadRequest {
		t.Fatalf("oversize refusal: %+v", resp)
	}
	// An unsynchronizable stream: the server hangs up afterwards.
	if _, _, _, err := dec.ReadResponse(conn, 0, 0); err == nil {
		t.Fatal("connection survived an unsynchronizable oversize frame")
	}
}

// newFixtureWithLimits spins up a bare server (no crypto backends — the
// limit tests never reach dispatch) with explicit frame/batch caps and
// returns its address.
func newFixtureWithLimits(t *testing.T, maxFrame, maxBatch int) (*Server, string) {
	t.Helper()
	srv, err := NewServer(Config{
		Registry: core.NewRegistry(),
		MaxFrame: maxFrame,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// fakeSEM is a loopback listener speaking just enough of the protocol for
// a test to script the server's side frame by frame: it acks every
// connection with the given limits, then hands the connection to serve.
func fakeSEM(t *testing.T, maxBatch int, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				var first [1]byte
				if _, err := io.ReadFull(conn, first[:]); err != nil {
					return
				}
				if _, err := wire.ReadV2HelloTail(conn); err != nil {
					return
				}
				if err := wire.WriteV2Ack(conn, wire.V2Version, maxBatch, wire.MaxFrame); err != nil {
					return
				}
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// answerFrames reads request frames off conn and answers each with
// respond's items until the peer hangs up or respond returns nil.
func answerFrames(conn net.Conn, respond func(op byte, items []wire.ReqItem) []wire.RespItem) {
	var dec wire.FrameDecoder
	var enc wire.FrameEncoder
	for {
		op, items, _, err := dec.ReadRequest(conn, 0, 0)
		if err != nil {
			return
		}
		resp := respond(op, items)
		if resp == nil {
			return
		}
		frame, err := enc.EncodeResponse(op, resp, 0)
		if err != nil {
			return
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

// TestListRevokedPartialEntries is the regression test for the hardened
// ListRevoked: one malformed element in the server's response must not
// void the whole call.
func TestListRevokedPartialEntries(t *testing.T) {
	addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
		answerFrames(conn, func(byte, []wire.ReqItem) []wire.RespItem {
			good1 := core.RevocationEntry{ID: "alice@example.com", Reason: "lost key", When: time.Now()}
			good2 := core.RevocationEntry{ID: "carol@example.com", Reason: "left org", When: time.Now()}
			payload, _ := json.Marshal([]any{good1, 42, map[string]string{"reason": "no id"}, good2})
			return []wire.RespItem{{Status: statusOK, Data: payload}}
		})
	})
	c, err := Dial(addr, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	entries, err := c.ListRevoked()
	if !errors.Is(err, ErrPartialList) {
		t.Fatalf("want ErrPartialList, got %v", err)
	}
	if len(entries) != 2 || entries[0].ID != "alice@example.com" || entries[1].ID != "carol@example.com" {
		t.Fatalf("valid entries not preserved: %+v", entries)
	}
}

// TestBatchCallKeepsCompletedChunks is the regression test for mid-batch
// transport failures: results from chunks the server already answered must
// survive a later chunk's connection error, with the voided slots carrying
// that error, instead of the whole call collapsing to nil.
func TestBatchCallKeepsCompletedChunks(t *testing.T) {
	// maxBatch 2 splits four items into two chunks. Only the very first
	// frame is ever answered: the second chunk dies on its connection and
	// again on the pool's one replay.
	var frames atomic.Int64
	addr := fakeSEM(t, 2, func(conn net.Conn) {
		answerFrames(conn, func(_ byte, items []wire.ReqItem) []wire.RespItem {
			if frames.Add(1) > 1 {
				return nil // hang up without answering
			}
			resp := make([]wire.RespItem, len(items))
			for i := range items {
				resp[i] = wire.RespItem{Status: statusOK, Data: []byte{byte(i + 1)}}
			}
			return resp
		})
	})
	c := NewPool(addr, nil, PoolConfig{Size: 1, OpTimeout: 2 * time.Second, HealthInterval: -1})
	defer func() { _ = c.Close() }()
	ids := []string{"a", "b", "c", "d"}
	payloads := [][]byte{{1}, {2}, {3}, {4}}
	results, errs, err := c.many(opRSADecrypt, ids, payloads)
	if err == nil || errors.Is(err, ErrRemote) {
		t.Fatalf("want a transport error for the dead second chunk, got %v", err)
	}
	if len(results) != 4 || len(errs) != 4 {
		t.Fatalf("lengths: %d results, %d errs", len(results), len(errs))
	}
	if errs[0] != nil || errs[1] != nil || !bytes.Equal(results[0], []byte{1}) || !bytes.Equal(results[1], []byte{2}) {
		t.Fatalf("completed chunk lost: results=%v errs=%v", results, errs)
	}
	for i := 2; i < 4; i++ {
		if errs[i] == nil || results[i] != nil {
			t.Fatalf("voided slot %d: result=%v err=%v", i, results[i], errs[i])
		}
	}
	if r := c.met.retries.Value(); r != 1 {
		t.Fatalf("retries = %d, want exactly one replay of the dead chunk", r)
	}
}

// TestMalformedResponsesFailTheConnection scripts the protocol breaks a
// client must treat as transport failures (never as server answers): a
// response for the wrong op, and a response with the wrong item count.
func TestMalformedResponsesFailTheConnection(t *testing.T) {
	for name, respond := range map[string]func(op byte, items []wire.ReqItem) (byte, []wire.RespItem){
		"wrong op": func(op byte, items []wire.ReqItem) (byte, []wire.RespItem) {
			return op + 1, make([]wire.RespItem, len(items))
		},
		"extra item": func(op byte, items []wire.ReqItem) (byte, []wire.RespItem) {
			return op, make([]wire.RespItem, len(items)+1)
		},
		"ok for many": func(op byte, items []wire.ReqItem) (byte, []wire.RespItem) { return op, make([]wire.RespItem, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
				var dec wire.FrameDecoder
				var enc wire.FrameEncoder
				for {
					op, items, _, err := dec.ReadRequest(conn, 0, 0)
					if err != nil {
						return
					}
					respOp, resp := respond(op, items)
					frame, err := enc.EncodeResponse(respOp, resp, 0)
					if err != nil {
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			})
			c := NewPool(addr, nil, PoolConfig{Size: 1, OpTimeout: 2 * time.Second, HealthInterval: -1})
			defer func() { _ = c.Close() }()
			_, _, err := c.many(opRSADecrypt, []string{"a", "b"}, [][]byte{{1}, {2}})
			if !errors.Is(err, ErrProtocol) || errors.Is(err, ErrRemote) {
				t.Fatalf("err = %v, want a protocol (transport) error", err)
			}
			if ev := c.met.evictions.Value(); ev != 2 {
				t.Fatalf("evictions = %d, want the first connection and its replay both dropped", ev)
			}
		})
	}
}

// TestFanWidthBounded pins the batch-fan permit accounting: concurrent
// batches share the configured parallelism instead of multiplying it
// (each fan gets 1 plus whatever free permits remain, never Workers each).
func TestFanWidthBounded(t *testing.T) {
	srv, err := NewServer(Config{Registry: core.NewRegistry(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := srv.acquireFanWidth(16); w != 4 {
		t.Fatalf("first fan width = %d, want Workers (4)", w)
	}
	// All permits are held: a concurrent batch must run inline, width 1.
	if w := srv.acquireFanWidth(16); w != 1 {
		t.Fatalf("fan width under load = %d, want 1", w)
	}
	srv.releaseFanWidth(4)
	srv.releaseFanWidth(1)
	// Width also derates to the batch size.
	if w := srv.acquireFanWidth(2); w != 2 {
		t.Fatalf("small-batch fan width = %d, want 2", w)
	}
	srv.releaseFanWidth(2)

	solo, err := NewServer(Config{Registry: core.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w := solo.acquireFanWidth(8); w != 1 {
		t.Fatalf("single-worker fan width = %d, want 1", w)
	}
	solo.releaseFanWidth(1)
}

// TestListRevokedCleanStaysErrorFree pins the happy path: a fully valid
// list returns no error at all.
func TestListRevokedCleanStaysErrorFree(t *testing.T) {
	f := newFixture(t)
	if err := f.client.Revoke(testID, "test"); err != nil {
		t.Fatal(err)
	}
	entries, err := f.client.ListRevoked()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != testID {
		t.Fatalf("entries = %+v", entries)
	}
}
