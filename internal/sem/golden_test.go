package sem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/repl"
	"repro/internal/wire"
)

// The golden-frame test pins the SEM wire protocol byte for byte: one
// request/response pair per op byte and per failure class, recorded once
// and replayed against a live server. It speaks raw TCP and the wire codec
// only — no client type, no server internals — so the same file passes
// unchanged on both sides of any refactor that claims "same wire bytes".

// regenerateGolden re-records testdata/golden_frames.txt from the live
// server instead of comparing against it. Flip it locally, never commit it
// set: a re-record is a protocol change and belongs in review.
const regenerateGolden = false

const goldenFile = "testdata/golden_frames.txt"

// goldenStep is one exchange: raw request bytes written to the named
// server's connection, and how many response frames to read back.
type goldenStep struct {
	name   string
	server string
	req    []byte
	hello  bool // the response is the 11-byte negotiation ack, not a frame
	hangup bool // after the response the server must close the connection
}

// goldenFrame encodes one request frame. The sender-side cap is the wire
// ceiling so over-limit frames can be built for the refusal steps.
func goldenFrame(t testing.TB, op byte, items ...wire.ReqItem) []byte {
	t.Helper()
	var enc wire.FrameEncoder
	frame, err := enc.EncodeRequest(op, items, wire.V2MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(frame)
}

func goldenItem(id string, payload []byte) wire.ReqItem {
	return wire.ReqItem{ID: []byte(id), Payload: payload}
}

// goldenFullConfig is the deterministic "full" daemon: every backend with
// fixed key halves, enrollment on, a journal and its follower.
func goldenFullConfig(tb testing.TB, pp *pairing.Params) Config {
	tb.Helper()
	j, err := core.OpenJournal(filepath.Join(tb.TempDir(), "golden.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = j.Close() })
	reg := j.Registry()

	d, err := pp.Curve().HashToPoint("golden", []byte("alice d_sem"))
	if err != nil {
		tb.Fatal(err)
	}
	ibe := core.NewIBESEM(&bf.PublicParams{Pairing: pp, MsgLen: msgLen}, reg)
	ibe.Register(&core.SEMKeyHalf{ID: testID, D: d})
	gdh := core.NewGDHSEM(pp, reg)
	gdh.Register(&core.GDHSEMKey{ID: testID, X: big.NewInt(0x5eed)})
	ibpkg, err := mrsa.FixedTestPKG()
	if err != nil {
		tb.Fatal(err)
	}
	n := ibpkg.IdentityPublicKey(testID).N
	rsa := core.NewRSASEM(reg)
	rsa.Register(testID, &mrsa.HalfKey{N: n, Half: big.NewInt(0x10001)})
	gmSEM := core.NewGMSEM(reg)
	gmSEM.Register(testID, &gm.HalfKey{N: n, Half: big.NewInt(0x2f)})
	return Config{
		Registry: reg, IBE: ibe, GDH: gdh, RSA: rsa, GM: gmSEM,
		Threshold: goldenPlayer(tb, pp),
		Journal:   j, Repl: repl.NewFollower(j),
		Pairing: pp, AllowRegister: true,
	}
}

// goldenPlayer is player 1 of a (2, 3) threshold system dealt from a fixed
// seed, holding testID's key share. A share's proof draws a fresh nonce, so
// to make the recorded bytes repeatable the byzantine hook swaps every
// answer for the share of the script's U computed under a fixed nonce.
func goldenPlayer(tb testing.TB, pp *pairing.Params) *core.ThresholdPlayer {
	tb.Helper()
	pkg, err := core.SetupThreshold(mrand.New(mrand.NewSource(2003)), pp, msgLen, 2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	player, err := core.NewThresholdPlayer(pkg.Params(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	ks, err := pkg.ExtractShare(testID, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := player.Install(ks); err != nil {
		tb.Fatal(err)
	}
	u, err := pp.Curve().HashToPoint("golden", []byte("U"))
	if err != nil {
		tb.Fatal(err)
	}
	fixed, err := pkg.Params().ComputeShareWithProof(mrand.New(mrand.NewSource(42)), ks, u)
	if err != nil {
		tb.Fatal(err)
	}
	player.SetMisbehaviour(func(*core.DecryptionShare) *core.DecryptionShare { return fixed })
	return player
}

// goldenServers starts the three daemons the steps address: "full"
// (goldenFullConfig), "bare" (registry only) and "tight" (registry only,
// 4 KiB frames, 2-item batches).
func goldenServers(t *testing.T, pp *pairing.Params) map[string]string {
	t.Helper()
	serve := func(cfg Config) string {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		return ln.Addr().String()
	}
	return map[string]string{
		"full":  serve(goldenFullConfig(t, pp)),
		"bare":  serve(Config{Registry: core.NewRegistry()}),
		"tight": serve(Config{Registry: core.NewRegistry(), MaxFrame: 4096, MaxBatch: 2}),
	}
}

// goldenSteps builds the scripted exchanges. Order matters on "full": the
// journal's epoch and sequence advance as the script runs.
func goldenSteps(t testing.TB, pp *pairing.Params) []goldenStep {
	t.Helper()
	point := func(label string) []byte {
		p, err := pp.Curve().HashToPoint("golden", []byte(label))
		if err != nil {
			t.Fatal(err)
		}
		return p.Marshal()
	}
	u, h := point("U"), point("h(M)")
	when := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC).UnixNano()
	records := func(leaderEpoch uint64, recs ...wire.ReplRecord) []byte {
		b, err := wire.AppendReplRecords(nil, leaderEpoch, recs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	chunk := func(c wire.ReplSnapshotChunk) []byte {
		b, err := wire.MarshalReplSnapshotChunk(&c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	gmCT, err := wire.PackInts([]*big.Int{big.NewInt(12345), big.NewInt(67890), big.NewInt(4242)})
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{'S', 'E', 'M', '2', wire.V2Version}
	const nobody, mallory, bob = "nobody@example.com", "mallory@example.com", "bob@example.com"

	var steps []goldenStep
	add := func(server, name string, op byte, items ...wire.ReqItem) {
		steps = append(steps, goldenStep{name: name, server: server, req: goldenFrame(t, op, items...)})
	}

	// Every op byte, answered OK.
	steps = append(steps, goldenStep{name: "hello", server: "full", req: hello, hello: true})
	add("full", "ping", 10, wire.ReqItem{})
	add("full", "ibe_token", 1, goldenItem(testID, u))
	add("full", "gdh_half_sign", 2, goldenItem(testID, h))
	add("full", "rsa_half_dec", 3, goldenItem(testID, []byte("golden rsa ciphertext")))
	add("full", "rsa_half_sig", 4, goldenItem(testID, []byte("golden rsa message")))
	add("full", "gm_half_dec", 5, goldenItem(testID, gmCT))
	add("full", "status_clear", 8, goldenItem(testID, nil))
	add("full", "list_empty", 9, wire.ReqItem{})
	add("full", "register_ibe", 11, goldenItem(bob, point("bob d_sem")))
	add("full", "register_gdh", 12, goldenItem(bob, big.NewInt(0xb0b).Bytes()))
	add("full", "ibe_token_registered", 1, goldenItem(bob, u))
	add("full", "repl_status_fresh", 15, wire.ReqItem{})
	add("full", "revoke", 6, goldenItem(mallory, []byte("golden reason")))
	add("full", "status_revoked", 8, goldenItem(mallory, nil))
	// Failure classes.
	add("full", "err_revoked", 1, goldenItem(mallory, u))
	add("full", "batch_mixed", 1, goldenItem(testID, u), goldenItem(nobody, u), goldenItem(mallory, u), goldenItem(testID, h))
	add("full", "unrevoke", 7, goldenItem(mallory, nil))
	add("full", "err_unknown_identity", 2, goldenItem(nobody, h))
	add("full", "err_bad_point", 1, goldenItem(testID, []byte{1, 2, 3}))
	add("full", "err_rsa_out_of_range", 3, goldenItem(testID, bytes.Repeat([]byte{0xff}, 65)))
	add("full", "err_gm_malformed", 5, goldenItem(testID, []byte{0, 0}))
	add("full", "err_register_no_id", 11, goldenItem("", point("bob d_sem")))
	add("full", "err_register_zero_scalar", 12, goldenItem(bob, nil))
	add("full", "err_unknown_op", 200, wire.ReqItem{})
	add("full", "repl_append", 13, goldenItem("", records(2,
		wire.ReplRecord{Epoch: 2, Seq: 3, Op: wire.ReplOpRevoke, ID: "a@x", Reason: "first", WhenUnixNano: when},
		wire.ReplRecord{Epoch: 2, Seq: 4, Op: wire.ReplOpUnrevoke, ID: "a@x", WhenUnixNano: when})))
	add("full", "err_stale_epoch", 13, goldenItem("", records(1,
		wire.ReplRecord{Epoch: 1, Seq: 5, Op: wire.ReplOpRevoke, ID: "z@x", WhenUnixNano: when})))
	add("full", "err_seq_gap", 13, goldenItem("", records(2,
		wire.ReplRecord{Epoch: 2, Seq: 99, Op: wire.ReplOpRevoke, ID: "z@x", WhenUnixNano: when})))
	add("full", "err_repl_bad_payload", 13, goldenItem("", []byte("junk")))
	add("full", "err_repl_bad_op", 13, goldenItem("", records(2,
		wire.ReplRecord{Epoch: 2, Seq: 5, Op: 9, ID: "z@x", WhenUnixNano: when})))
	add("full", "err_not_leader_revoke", 6, goldenItem("direct@x", []byte("forbidden")))
	add("full", "err_not_leader_unrevoke", 7, goldenItem("direct@x", nil))
	add("full", "err_internal", 14, goldenItem("", chunk(wire.ReplSnapshotChunk{Epoch: 3, BaseSeq: 50, Total: 2, Index: 1, Chunks: 2})))
	add("full", "repl_snapshot", 14, goldenItem("", chunk(wire.ReplSnapshotChunk{Epoch: 3, BaseSeq: 50, Total: 1, Index: 0, Chunks: 1,
		Entries: []wire.ReplEntry{{ID: "snap@x", Reason: "installed", WhenUnixNano: when}}})))
	add("full", "list_one", 9, wire.ReqItem{})
	add("full", "repl_status_after", 15, wire.ReqItem{})

	// Unsupported: a daemon without the backend, enrollment or journal.
	steps = append(steps, goldenStep{name: "bare_hello", server: "bare", req: hello, hello: true})
	add("bare", "err_unsupported_ibe", 1, goldenItem(testID, u))
	add("bare", "err_unsupported_gdh", 2, goldenItem(testID, h))
	add("bare", "err_unsupported_rsa_dec", 3, goldenItem(testID, []byte{1}))
	add("bare", "err_unsupported_rsa_sig", 4, goldenItem(testID, []byte{1}))
	add("bare", "err_unsupported_gm", 5, goldenItem(testID, gmCT))
	add("bare", "err_unsupported_register_ibe", 11, goldenItem(bob, u))
	add("bare", "err_unsupported_register_gdh", 12, goldenItem(bob, []byte{1}))
	add("bare", "err_unsupported_repl_append", 13, goldenItem("", records(1)))
	add("bare", "err_unsupported_repl_snapshot", 14, goldenItem("", chunk(wire.ReplSnapshotChunk{Chunks: 1})))
	add("bare", "err_unsupported_repl_status", 15, wire.ReqItem{})
	add("bare", "revoke_registry_only", 6, goldenItem(mallory, []byte("no journal")))
	add("bare", "unrevoke_registry_only", 7, goldenItem(mallory, nil))

	// Frame-level refusals under tight negotiated limits.
	steps = append(steps, goldenStep{name: "tight_hello", server: "tight", req: hello, hello: true})
	add("tight", "err_over_batch", 10, wire.ReqItem{}, wire.ReqItem{}, wire.ReqItem{})
	add("tight", "ping_pair_after_refusal", 10, wire.ReqItem{}, wire.ReqItem{})
	add("tight", "err_over_frame", 3, goldenItem(testID, make([]byte, 8192)))
	steps[len(steps)-1].hangup = true

	// threshold_share: a player's answer, its failure classes, a batch with
	// one bad slot, and a daemon that is no player.
	add("full", "threshold_share", 16, goldenItem(testID, u))
	add("full", "err_threshold_unknown_identity", 16, goldenItem(nobody, u))
	add("full", "err_threshold_bad_point", 16, goldenItem(testID, []byte{1, 2, 3}))
	add("full", "threshold_share_batch_mixed", 16, goldenItem(testID, u), goldenItem(testID, []byte{1, 2, 3}), goldenItem(testID, u))
	add("bare", "err_unsupported_threshold", 16, goldenItem(testID, u))
	return steps
}

// goldenExchange writes req and reads the one response it draws.
func goldenExchange(t *testing.T, conn net.Conn, st goldenStep) []byte {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(st.req); err != nil {
		t.Fatalf("%s: write: %v", st.name, err)
	}
	if st.hello {
		ack := make([]byte, 11)
		if _, err := io.ReadFull(conn, ack); err != nil {
			t.Fatalf("%s: read ack: %v", st.name, err)
		}
		return ack
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("%s: read frame header: %v", st.name, err)
	}
	resp := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
	copy(resp, hdr[:])
	if _, err := io.ReadFull(conn, resp[4:]); err != nil {
		t.Fatalf("%s: read frame body: %v", st.name, err)
	}
	if st.hangup {
		if n, err := conn.Read(hdr[:]); err == nil {
			t.Fatalf("%s: connection survived (%d more bytes)", st.name, n)
		}
	}
	return resp
}

type goldenPair struct{ req, resp []byte }

func loadGolden(t *testing.T) map[string]goldenPair {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	out := make(map[string]goldenPair)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		req, err1 := hex.DecodeString(fields[1])
		resp, err2 := hex.DecodeString(fields[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: bad hex in %q", goldenFile, fields[0])
		}
		out[fields[0]] = goldenPair{req: req, resp: resp}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenFrames(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	addrs := goldenServers(t, pp)
	steps := goldenSteps(t, pp)
	var want map[string]goldenPair
	if !regenerateGolden {
		want = loadGolden(t)
		if len(want) != len(steps) {
			t.Errorf("%s holds %d exchanges, the script has %d", goldenFile, len(want), len(steps))
		}
	}

	conns := make(map[string]net.Conn)
	var record strings.Builder
	record.WriteString("# SEM protocol golden frames: name <TAB> hex(request bytes) <TAB> hex(response bytes).\n")
	record.WriteString("# Replayed by TestGoldenFrames; re-record only for a deliberate protocol change.\n")
	for _, st := range steps {
		conn := conns[st.server]
		if conn == nil {
			if conn, err = net.Dial("tcp", addrs[st.server]); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			conns[st.server] = conn
		}
		got := goldenExchange(t, conn, st)
		fmt.Fprintf(&record, "%s\t%x\t%x\n", st.name, st.req, got)
		if regenerateGolden {
			continue
		}
		g, ok := want[st.name]
		switch {
		case !ok:
			t.Errorf("%s: no golden record", st.name)
		case !bytes.Equal(g.req, st.req):
			t.Errorf("%s: request bytes drifted\n got %x\nwant %x", st.name, st.req, g.req)
		case !bytes.Equal(g.resp, got):
			t.Errorf("%s: response bytes drifted\n got %x\nwant %x", st.name, got, g.resp)
		}
	}
	if regenerateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(record.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("re-recorded %s; set regenerateGolden back to false", goldenFile)
	}
}

// The two threshold_share responses as recorded before PR 20, when a proof
// committed with R = r·P. PR 20 commits with R = r·d_IDi and re-recorded
// exactly these two records, on purpose.
const (
	parentThresholdShareResp      = "00000061100001000000005960b92f3364e323961d8ecee5689ab0f1a3b99c18ad6ae52950500297f4d37dbe349ed8e40471c81564ab5b93ad9a32aa2f3c016f12c938a241eb71a23c5ff6e292f7ef9b77eaaaa403b7d0d0e443f7200449d26c34dcb0ff2f"
	parentThresholdShareBatchResp = "00000109100003000000005960b92f3364e323961d8ecee5689ab0f1a3b99c18ad6ae52950500297f4d37dbe349ed8e40471c81564ab5b93ad9a32aa2f3c016f12c938a241eb71a23c5ff6e292f7ef9b77eaaaa403b7d0d0e443f7200449d26c34dcb0ff2f0300000045776972653a2070726f746f636f6c206572726f723a2063757276653a20636f6d7072657373656420706f696e74206d7573742062652031332062797465732c20676f742033000000005960b92f3364e323961d8ecee5689ab0f1a3b99c18ad6ae52950500297f4d37dbe349ed8e40471c81564ab5b93ad9a32aa2f3c016f12c938a241eb71a23c5ff6e292f7ef9b77eaaaa403b7d0d0e443f7200449d26c34dcb0ff2f"
)

// TestThresholdShareFramesRerecordedInShapeOnly holds the re-recorded
// threshold_share frames to the ones they replaced: the same lengths, the
// same framing, the same share value G, and nothing different but the
// W1‖W2‖V‖E of the one fixed share both frames carry — swap the new proof
// bytes for the old and the old frames come back, byte for byte.
func TestThresholdShareFramesRerecordedInShapeOnly(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	golden := loadGolden(t)
	gt, point, scalar := shareWidths(pp)
	const header = 12 // frame length, op, item count, status, data length
	single := golden["threshold_share"].resp
	old, err := hex.DecodeString(parentThresholdShareResp)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != header+3*gt+point+scalar || len(single) != len(old) {
		t.Fatalf("threshold_share response is %d bytes, was %d", len(single), len(old))
	}
	if !bytes.Equal(single[:header+gt], old[:header+gt]) {
		t.Error("threshold_share: framing or G differs from the record it replaced")
	}
	newProof, oldProof := single[header+gt:], old[header+gt:]
	if bytes.Equal(newProof, oldProof) {
		t.Error("threshold_share: the proof bytes did not change; why was it re-recorded?")
	}
	for name, parent := range map[string]string{"threshold_share": parentThresholdShareResp, "threshold_share_batch_mixed": parentThresholdShareBatchResp} {
		old, err := hex.DecodeString(parent)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.ReplaceAll(golden[name].resp, newProof, oldProof); !bytes.Equal(got, old) {
			t.Errorf("%s: differs from the record it replaced outside W1‖W2‖V‖E", name)
		}
	}
}
