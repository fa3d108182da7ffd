package cluster

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/sem"
	"repro/internal/wire"
)

const (
	msgLen = 32
	tt     = 3
	nn     = 5
	ident  = "cluster@example.com"
)

// deployment spins up a full (t, n) cluster on loopback listeners.
type deployment struct {
	params  *core.ThresholdParams
	players []*PlayerServer
	addrs   []string
	keys    []*core.KeyShare // keys[i-1] is player i's share of ident's key
	regs    []*obs.Registry  // regs[i-1] holds player i's sem_* series
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, tt, nn)
	if err != nil {
		t.Fatal(err)
	}
	params := pkg.Params()
	d := &deployment{params: params, addrs: make([]string, nn)}
	for i := 1; i <= nn; i++ {
		srv, err := NewPlayerServer(params, i)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := pkg.ExtractShare(ident, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Install(ks); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		go func() { _ = srv.Serve(ln) }()
		d.players = append(d.players, srv)
		d.keys = append(d.keys, ks)
		d.regs = append(d.regs, reg)
		d.addrs[i-1] = ln.Addr().String()
	}
	t.Cleanup(func() {
		for _, p := range d.players {
			_ = p.Close()
		}
	})
	return d
}

func (d *deployment) recombiner(t *testing.T) *Recombiner {
	t.Helper()
	return d.recombinerWithTimeout(t, 2*time.Second)
}

func (d *deployment) recombinerWithTimeout(t *testing.T, timeout time.Duration) *Recombiner {
	t.Helper()
	r, err := NewRecombiner(d.params, d.addrs, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// startAt pins the rotation: the next decryption prefers players first,
// first+1, … (cyclically). Tests reach the counter directly; there is no
// option for it.
func (r *Recombiner) startAt(first int) { r.next.Store(uint64(first - 1)) }

// fetched is how many times the recombiner has asked player i.
func (r *Recombiner) fetched(i int) uint64 { return r.met.fetch[i-1].Snapshot().Count }

// rounds is how many fetch rounds the recombiner has run.
func (r *Recombiner) rounds() uint64 { return r.met.quorumWait.Snapshot().Count }

// served is how many share requests player i's server has dispatched.
func (d *deployment) served(i int) uint64 {
	return d.regs[i-1].Counter("sem_requests_total", "", obs.Label{Key: "op", Value: "threshold_share"}).Value()
}

// crash stops player i's server; its address refuses connections.
func (d *deployment) crash(i int) { _ = d.players[i-1].Close() }

// lieAlways makes player i answer every request with a share value that is
// not ê(U, d_IDi), under the honest share's (now stale) proof.
func (d *deployment) lieAlways(i int) {
	d.players[i-1].SetMisbehaviour(func(ds *core.DecryptionShare) *core.DecryptionShare {
		return &core.DecryptionShare{Index: ds.Index, G: ds.G.Mul(ds.G), Proof: ds.Proof}
	})
}

// hang replaces player i with a listener that accepts, shakes hands, reads
// every request and answers none. Call before building the recombiner.
func (d *deployment) hang(t *testing.T, i int) {
	t.Helper()
	d.crash(i)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				hello := make([]byte, 5)
				if _, err := io.ReadFull(conn, hello); err != nil {
					return
				}
				if err := wire.WriteV2Ack(conn, wire.V2Version, sem.DefaultMaxBatch, sem.DefaultMaxFrame); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	d.addrs[i-1] = ln.Addr().String()
}

// restart brings a crashed player i back on its old address with the same
// key share (and fresh serving counters).
func (d *deployment) restart(t *testing.T, i int) {
	t.Helper()
	reborn, err := NewPlayerServer(d.params, i)
	if err != nil {
		t.Fatal(err)
	}
	if err := reborn.Install(d.keys[i-1]); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", d.addrs[i-1])
	if err != nil {
		t.Fatal(err)
	}
	d.regs[i-1] = obs.NewRegistry()
	reborn.Instrument(d.regs[i-1])
	go func() { _ = reborn.Serve(ln) }()
	d.players[i-1] = reborn // closed with the deployment
}

func TestClusterDecryption(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msg := bytes.Repeat([]byte{0xCA}, msgLen)
	c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, rejected, err := r.Decrypt(ident, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 {
		t.Fatalf("rejected = %v with all players honest", rejected)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %x, want %x", got, msg)
	}
}

// corruptions are a byzantine player's ways to lie. Each gets the player's
// own honest share-with-proof and player 1's for the same ciphertext. The
// first five tamper with one component of the tuple in turn, keeping every
// element inside its group (so it survives wire validation and reaches the
// NIZK check) and leaving the rest stale; the next two send a V with no
// order-q part at all — which decodes, V being only an evaluation point to
// the recombiner, and claims V_q = O; the last answers with another player's
// share, index and proof intact — which the share protocol lets anyone
// obtain by asking.
var corruptions = []struct {
	part  string
	apply func(tb testing.TB, own, player1 *core.DecryptionShare) *core.DecryptionShare
}{
	{"G", func(_ testing.TB, ds, _ *core.DecryptionShare) *core.DecryptionShare {
		return &core.DecryptionShare{Index: ds.Index, G: ds.G.Mul(ds.G), Proof: ds.Proof}
	}},
	{"W1", corruptProof(func(_ testing.TB, pr *core.ShareProof) { pr.W1 = pr.W1.Mul(pr.W1) })},
	{"W2", corruptProof(func(_ testing.TB, pr *core.ShareProof) { pr.W2 = pr.W2.Mul(pr.W2) })},
	{"E", corruptProof(func(_ testing.TB, pr *core.ShareProof) {
		e := new(big.Int).Add(pr.E, big.NewInt(1))
		pr.E = e.Mod(e, toyCurve().Q())
	})},
	{"V", corruptProof(func(tb testing.TB, pr *core.ShareProof) { pr.V = curve.EvalPointOf(openV(tb, pr).Double()) })},
	{"V = T", corruptProof(func(_ testing.TB, pr *core.ShareProof) {
		pr.V = curve.EvalPointOf(curvetest.RandomCofactorPoint(toyCurve()))
	})},
	{"V = (0,0)", corruptProof(func(_ testing.TB, pr *core.ShareProof) {
		v, _ := toyCurve().NewPoint(new(big.Int), new(big.Int))
		pr.V = curve.EvalPointOf(v)
	})},
	{"relays player 1's share", func(_ testing.TB, _, player1 *core.DecryptionShare) *core.DecryptionShare { return player1 }},
}

// corruptProof returns a corruption that edits a copy of the proof and
// leaves the share value alone.
func corruptProof(edit func(tb testing.TB, pr *core.ShareProof)) func(tb testing.TB, own, player1 *core.DecryptionShare) *core.DecryptionShare {
	return func(tb testing.TB, ds, _ *core.DecryptionShare) *core.DecryptionShare {
		pr := *ds.Proof
		edit(tb, &pr)
		return &core.DecryptionShare{Index: ds.Index, G: ds.G, Proof: &pr}
	}
}

// toyCurve is the curve of every test deployment (deploy's pairing.Toy).
func toyCurve() *curve.Curve {
	pp, _ := pairing.Toy()
	return pp.Curve()
}

// openV returns a proof's V as a point, to build a lying one from.
func openV(tb testing.TB, pr *core.ShareProof) *curve.Point {
	return curvetest.Open(tb, toyCurve(), pr.V)
}

// lie makes player liar answer requests for cs with apply's corruption. The
// hook sees only its own share, so it finds the ciphertext that share
// belongs to by checking the (still honest) proof, then computes what
// player 1 would answer for it.
func (d *deployment) lie(t *testing.T, liar int, cs []*bf.BasicCiphertext, apply func(tb testing.TB, own, player1 *core.DecryptionShare) *core.DecryptionShare) {
	t.Helper()
	qid, err := bf.HashIdentityArg(d.params.Public.Pairing, ident)
	if err != nil {
		t.Fatal(err)
	}
	d.players[liar-1].SetMisbehaviour(func(own *core.DecryptionShare) *core.DecryptionShare {
		for _, c := range cs {
			if d.params.VerifyShareProofFor(qid, c.U, own) != nil {
				continue
			}
			player1, err := d.params.ComputeShareWithProof(nil, d.keys[0], c.U)
			if err != nil {
				t.Error(err)
				return own
			}
			return apply(t, own, player1)
		}
		t.Error("share requested for a ciphertext outside the test's batch")
		return own
	})
}

func TestClusterToleratesByzantinePlayer(t *testing.T) {
	for _, corrupt := range corruptions {
		t.Run(corrupt.part, func(t *testing.T) {
			d := deploy(t)
			r := d.recombiner(t)
			msg := bytes.Repeat([]byte{0x11}, msgLen)
			c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
			d.lie(t, 2, []*bf.BasicCiphertext{c}, corrupt.apply)
			got, rejected, err := r.Decrypt(ident, c)
			if err != nil {
				t.Fatal(err)
			}
			if len(rejected) != 1 || rejected[0] != 2 {
				t.Fatalf("rejected = %v, want [2]", rejected)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("byzantine-tolerant decryption failed")
			}
		})
	}
}

// TestClusterToleratesCrashedPlayers: a crashed player costs a rejection
// only where it was asked. With players 1 and 5 down, a decryption whose
// first choices are 1, 2, 3 loses player 1, asks 4 and 5 together, loses 5
// and recombines from 2, 3, 4; one whose first choices are 2, 3, 4 never
// learns that anyone is down.
func TestClusterToleratesCrashedPlayers(t *testing.T) {
	d := deploy(t)
	// Crash two players: 5 − 2 = 3 = t still suffices.
	d.crash(1)
	d.crash(5)
	msg := bytes.Repeat([]byte{0x22}, msgLen)
	c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)

	r := d.recombiner(t) // a new recombiner starts at player 1
	got, rejected, err := r.Decrypt(ident, c)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rejected, []int{1, 5}) {
		t.Fatalf("rejected = %v, want both crashed players [1 5]", rejected)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("decryption with crashed players failed")
	}
	if r.rounds() != 2 {
		t.Fatalf("%d fetch rounds, want 2", r.rounds())
	}

	r = d.recombiner(t)
	r.startAt(2)
	got, rejected, err = r.Decrypt(ident, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 || r.fetched(1) != 0 || r.fetched(5) != 0 || r.rounds() != 1 {
		t.Fatalf("first choices 2, 3, 4 all up: rejected %v, asked player 1 %d times and player 5 %d times in %d rounds",
			rejected, r.fetched(1), r.fetched(5), r.rounds())
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("decryption from the three live first choices failed")
	}
}

func TestClusterFailsBelowThreshold(t *testing.T) {
	d := deploy(t)
	// Crash three of five: only 2 < t = 3 remain.
	for _, i := range []int{0, 1, 2} {
		_ = d.players[i].Close()
	}
	r := d.recombiner(t)
	msg := bytes.Repeat([]byte{0x33}, msgLen)
	c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if _, _, err := r.Decrypt(ident, c); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("sub-threshold cluster decrypted: %v", err)
	}
}

func TestClusterUnknownIdentity(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msg := bytes.Repeat([]byte{0x44}, msgLen)
	c, _ := d.params.Public.EncryptBasic(rand.Reader, "ghost@example.com", msg)
	_, rejected, err := r.Decrypt("ghost@example.com", c)
	if !errors.Is(err, ErrNotEnoughShares) || !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("unknown identity: %v, want ErrNotEnoughShares and ErrUnknownIdentity", err)
	}
	if !slices.Equal(rejected, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("rejected = %v, want every player (all were asked, all refused)", rejected)
	}
	// One player unreachable among the refusals: the typed reason would no
	// longer be the whole story, so it is not given.
	d.crash(4)
	if _, _, err := d.recombiner(t).Decrypt("ghost@example.com", c); !errors.Is(err, ErrNotEnoughShares) || errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("refusals mixed with a transport failure: %v, want plain ErrNotEnoughShares", err)
	}
	// Asked directly, a player names the reason with the typed sentinel.
	player, err := sem.Dial(d.addrs[0], d.params.Public.Pairing, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()
	if _, err := player.ThresholdShare("ghost@example.com", c.U); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("share for an unknown identity: %v, want ErrUnknownIdentity", err)
	}
}

func TestPlayerInstallValidation(t *testing.T) {
	d := deploy(t)
	pp, _ := pairing.Toy()
	otherPKG, err := core.SetupThreshold(rand.Reader, pp, msgLen, tt, nn)
	if err != nil {
		t.Fatal(err)
	}
	// Share from a different system fails the pairing check.
	foreign, _ := otherPKG.ExtractShare(ident, 1)
	if err := d.players[0].Install(foreign); err == nil {
		t.Error("foreign key share accepted")
	}
	// Share for the wrong player index.
	own, _ := otherPKG.ExtractShare(ident, 2)
	if err := d.players[0].Install(own); err == nil {
		t.Error("misindexed key share accepted")
	}
	// Server constructor validation.
	if _, err := NewPlayerServer(d.params, 0); err == nil {
		t.Error("player index 0 accepted")
	}
	if _, err := NewPlayerServer(d.params, nn+1); err == nil {
		t.Error("player index n+1 accepted")
	}
}

func TestRecombinerValidation(t *testing.T) {
	d := deploy(t)
	if _, err := NewRecombiner(d.params, d.addrs[:2], time.Second); err == nil {
		t.Error("address/player count mismatch accepted")
	}
}

// Wire constants of the sem protocol the raw-frame tests below speak (op
// and status bytes are fixed by internal/sem's golden frames).
const (
	opIBEToken        = 1
	opPing            = 10
	opThresholdShare  = 16
	statusOK          = 0
	statusBadRequest  = 3
	statusUnsupported = 4
)

// exchange opens a raw connection to a player, completes the handshake and
// trades one request frame for its response items.
func exchange(t *testing.T, addr string, op byte, items ...wire.ReqItem) []wire.RespItem {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteV2Hello(conn, wire.V2Version); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wire.ReadV2Ack(conn); err != nil {
		t.Fatal(err)
	}
	var enc wire.FrameEncoder
	frame, err := enc.EncodeRequest(op, items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var dec wire.FrameDecoder
	gotOp, resp, _, err := dec.ReadResponse(conn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotOp != op || len(resp) != len(items) {
		t.Fatalf("op %d with %d items answered by op %d with %d items", op, len(items), gotOp, len(resp))
	}
	return resp
}

func TestClusterRejectsMalformedPoint(t *testing.T) {
	d := deploy(t)
	resp := exchange(t, d.addrs[0], opThresholdShare, wire.ReqItem{ID: []byte(ident), Payload: []byte{1, 2}})
	if resp[0].Status != statusBadRequest {
		t.Fatalf("malformed point answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
}

// TestBadCiphertextIsNobodysLie: players answer a U with a cofactor
// component (it is only their pairing's evaluation point), the recombiner's
// check — which walks U — then fails for every honest proof, and the
// decryption must say the ciphertext is bad instead of rejecting and
// demoting the t honest players it asked.
func TestBadCiphertextIsNobodysLie(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 2)
	tors := curvetest.RandomCofactorPoint(d.params.Public.Pairing.Curve())
	bad := &bf.BasicCiphertext{U: cs[1].U.Add(tors), V: cs[1].V}

	r.startAt(1)
	out, rejected, err := r.DecryptBatch(ident, []*bf.BasicCiphertext{cs[0], bad})
	if !errors.Is(err, ErrBadCiphertext) || !strings.Contains(err.Error(), "ciphertext 1") || out != nil {
		t.Fatalf("U = U_q + T: plaintexts %v, err %v; want ErrBadCiphertext naming ciphertext 1", out, err)
	}
	if rejected != nil {
		t.Fatalf("honest players %v rejected over a bad ciphertext", rejected)
	}
	for i := 1; i <= tt; i++ {
		if d.served(i) != 2 { // one item per ciphertext
			t.Fatalf("player %d served %d requests; the first choices were 1..%d", i, d.served(i), tt)
		}
	}

	// Nobody was demoted: the next decryption asks the same first choices
	// (and only them), and an honest ciphertext still opens.
	r.startAt(1)
	got, rejected, err := r.Decrypt(ident, cs[0])
	if err != nil || rejected != nil || !bytes.Equal(got, msgs[0]) {
		t.Fatalf("after a bad ciphertext: plaintext %x, rejected %v, err %v", got, rejected, err)
	}
	for i := 1; i <= nn; i++ {
		if want := uint64(3); i <= tt && d.served(i) != want || i > tt && d.served(i) != 0 {
			t.Fatalf("player %d served %d requests after the second decryption", i, d.served(i))
		}
	}
	if r.rounds() != 2 {
		t.Fatalf("%d fetch rounds for two decryptions", r.rounds())
	}
}

func TestClusterPing(t *testing.T) {
	d := deploy(t)
	if resp := exchange(t, d.addrs[2], opPing, wire.ReqItem{}); resp[0].Status != statusOK {
		t.Fatalf("ping answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
	// An op byte nobody serves is refused, and so is one whose backend a
	// player does not have.
	if resp := exchange(t, d.addrs[2], 200, wire.ReqItem{}); resp[0].Status != statusBadRequest {
		t.Fatalf("unknown op answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
	if resp := exchange(t, d.addrs[2], opIBEToken, wire.ReqItem{ID: []byte(ident)}); resp[0].Status != statusUnsupported {
		t.Fatalf("ibe_token on a player answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
}

// TestRecombinerMetrics drives instrumented decryptions, first with every
// player honest and then with a byzantine one among the first choices, and
// checks the exported series: t players asked per honest decryption and no
// escalation; then the identification pass, the second round, the players
// it added, and the verification-failure and rejected-share counters naming
// one player. The players' own registries carry the other end: after two
// decryptions of one identity by the same first choices, each of them has
// served the second from its cached Miller program.
func TestRecombinerMetrics(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	reg := obs.NewRegistry()
	r.Instrument(reg)
	expect := func(stage string, wants ...string) {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(sb.String(), want+"\n") {
				t.Fatalf("%s: recombiner metrics missing %q:\n%s", stage, want, sb.String())
			}
		}
	}

	msgs, cs := encryptBatch(t, d, 3)
	if _, rejected, err := r.Decrypt(ident, cs[0]); err != nil || len(rejected) != 0 {
		t.Fatalf("honest decryption: rejected %v, err %v", rejected, err)
	}
	expect("all honest",
		`cluster_decrypts_total 1`,
		`cluster_players_asked_total 3`, // = t · decrypts
		`cluster_escalations_total 0`,
		`cluster_quorum_wait_seconds_count 1`,
		`cluster_verify_seconds_count 1`,
		`cluster_verify_fallbacks_total 0`,
		`cluster_verify_failures_total 0`,
		`cluster_rejected_shares_total 0`,
	)

	r.startAt(1)
	if _, rejected, err := r.Decrypt(ident, cs[1]); err != nil || len(rejected) != 0 {
		t.Fatalf("second honest decryption: rejected %v, err %v", rejected, err)
	}
	for i := 1; i <= tt; i++ {
		var sb strings.Builder
		if err := d.regs[i-1].WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`sem_requests_total{op="threshold_share"} 2`,
			`lru_hits_total{cache="player_pairers"} 1`,
			`lru_misses_total{cache="player_pairers"} 1`,
			`lru_evictions_total{cache="player_pairers"} 0`,
			`lru_rejected_total{cache="player_pairers"} 0`,
			`lru_entries{cache="player_pairers"} 1`,
		} {
			if !strings.Contains(sb.String(), want+"\n") {
				t.Fatalf("player %d metrics missing %q:\n%s", i, want, sb.String())
			}
		}
	}

	// Player 2 lies about every share of a three-ciphertext batch whose
	// first choices are 1, 2, 3: each ciphertext's check falls back, one
	// player is named, and players 4 and 5 are asked for all three.
	d.lieAlways(2)
	r.startAt(1)
	got, rejected, err := r.DecryptBatch(ident, cs)
	if err != nil || !slices.Equal(rejected, []int{2}) {
		t.Fatalf("byzantine batch: rejected %v, err %v", rejected, err)
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("byzantine batch: ciphertext %d decrypted wrongly", i)
		}
	}
	expect("one liar",
		`cluster_decrypts_total 5`,
		`cluster_players_asked_total 21`, // 3 + 3 + (3 + 2) players x 3 ciphertexts
		`cluster_escalations_total 3`,
		`cluster_quorum_wait_seconds_count 4`,
		`cluster_verify_seconds_count 8`, // 1 + 1 + 3 ciphertexts x 2 rounds
		`cluster_verify_fallbacks_total 3`,
		`cluster_verify_failures_total 1`,
		`cluster_rejected_shares_total 1`,
		`cluster_fetch_seconds_count{player="1"} 3`,
		`cluster_fetch_seconds_count{player="2"} 3`,
		`cluster_fetch_seconds_count{player="4"} 1`,
	)
}

// encryptBatch produces k distinct ciphertexts for ident.
func encryptBatch(t *testing.T, d *deployment, k int) ([][]byte, []*bf.BasicCiphertext) {
	t.Helper()
	msgs := make([][]byte, k)
	cs := make([]*bf.BasicCiphertext, k)
	for i := 0; i < k; i++ {
		msgs[i] = bytes.Repeat([]byte{byte(0x50 + i)}, msgLen)
		c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return msgs, cs
}

func TestClusterBatchDecryption(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 4)
	got, rejected, err := r.DecryptBatch(ident, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 {
		t.Fatalf("rejected = %v with all players honest", rejected)
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("ciphertext %d: decrypted %x, want %x", i, got[i], msgs[i])
		}
	}
	// The empty batch is a no-op.
	if got, rejected, err := r.DecryptBatch(ident, nil); got != nil || rejected != nil || err != nil {
		t.Fatalf("empty batch: %v %v %v", got, rejected, err)
	}
}

func TestClusterBatchToleratesByzantinePlayer(t *testing.T) {
	for _, corrupt := range corruptions {
		t.Run(corrupt.part, func(t *testing.T) {
			d := deploy(t)
			r := d.recombiner(t)
			msgs, cs := encryptBatch(t, d, 3)
			d.lie(t, 3, cs, corrupt.apply) // player 3 corrupts every share in the batch
			got, rejected, err := r.DecryptBatch(ident, cs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rejected) != 1 || rejected[0] != 3 {
				t.Fatalf("rejected = %v, want [3]", rejected)
			}
			for i := range msgs {
				if !bytes.Equal(got[i], msgs[i]) {
					t.Fatalf("byzantine-tolerant batch decryption failed at %d", i)
				}
			}
		})
	}
}

func TestClusterBatchFailsBelowThreshold(t *testing.T) {
	d := deploy(t)
	for _, i := range []int{0, 1, 2} {
		_ = d.players[i].Close()
	}
	r := d.recombiner(t)
	_, cs := encryptBatch(t, d, 2)
	if _, _, err := r.DecryptBatch(ident, cs); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("sub-threshold batch decrypted: %v", err)
	}
}

// TestClusterSharesOpPartialMalformed drives a raw multi-item frame: one
// malformed ciphertext point fails only its own slot.
func TestClusterSharesOpPartialMalformed(t *testing.T) {
	d := deploy(t)
	_, cs := encryptBatch(t, d, 2)
	item := func(u []byte) wire.ReqItem { return wire.ReqItem{ID: []byte(ident), Payload: u} }
	resp := exchange(t, d.addrs[0], opThresholdShare, item(cs[0].U.Marshal()), item([]byte{1, 2}), item(cs[1].U.Marshal()))
	if resp[0].Status != statusOK || resp[2].Status != statusOK {
		t.Fatalf("valid slots failed: %d %q, %d %q", resp[0].Status, resp[0].Data, resp[2].Status, resp[2].Data)
	}
	if resp[1].Status != statusBadRequest || !strings.Contains(string(resp[1].Data), "compressed point") {
		t.Fatalf("malformed slot = %d %q", resp[1].Status, resp[1].Data)
	}
}

// poolCounter reads one of the recombiner pools' sempool_* counters (the
// pools share the registry, so it is the sum over players).
func poolCounter(reg *obs.Registry, name string) uint64 { return reg.Counter(name, "").Value() }

// TestRecombinerConnPool checks the pooled-connection path on the pools'
// own series: a stream of decryptions rides a bounded set of connections,
// a player that was restarted on its address is served again without the
// caller seeing a rejected share, a player that did fail is kept out of the
// first choices for timeout and is one again afterwards, and Close is
// terminal.
func TestRecombinerConnPool(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	reg := obs.NewRegistry()
	r.Instrument(reg)

	msg := bytes.Repeat([]byte{0xD0}, msgLen)
	c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if err != nil {
		t.Fatal(err)
	}
	// decrypt runs one decryption whose first choices start at player 3.
	decrypt := func(stage string, wantRejected ...int) {
		t.Helper()
		r.startAt(3)
		got, rejected, err := r.Decrypt(ident, c)
		if err != nil || !slices.Equal(rejected, wantRejected) {
			t.Fatalf("%s: rejected=%v err=%v, want rejected=%v", stage, rejected, err, wantRejected)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s: decrypted %x, want %x", stage, got, msg)
		}
	}
	const rounds = 10
	for range rounds {
		if _, rejected, err := r.Decrypt(ident, c); err != nil || len(rejected) != 0 {
			t.Fatalf("steady state: rejected=%v err=%v", rejected, err)
		}
	}
	if frames := poolCounter(reg, "sempool_frames_total"); frames != rounds*tt {
		t.Fatalf("frames = %d after %d honest decryptions, want %d (t players asked each time)", frames, rounds, rounds*tt)
	}
	if dials := poolCounter(reg, "sempool_dials_total"); dials != nn*playerConns {
		t.Fatalf("dials = %d after %d decryptions, want %d (the rotation reaches every player, connections are reused)", dials, rounds, nn*playerConns)
	}

	// Restart player 3 on its address: its pooled connection is dead, and
	// the next decryption that asks it must reach the new server by itself.
	d.crash(3)
	d.restart(t, 3)
	before := poolCounter(reg, "sempool_dials_total")
	decrypt("after player 3 restarted")
	if poolCounter(reg, "sempool_dials_total") == before {
		t.Fatal("no fresh dial after a player restart")
	}

	// Player 3 down for good: the decryption that asks it first pays a
	// second round once; the following ones keep it for last and never get
	// that far — until timeout has passed since the failure.
	d.crash(3)
	decrypt("player 3 down", 3)
	asked, escalated := r.fetched(3), r.met.escalations.Value()
	decrypt("player 3 down, demoted")
	if r.fetched(3) != asked || r.met.escalations.Value() != escalated {
		t.Fatalf("a player rejected within the last timeout was asked again (fetches %d → %d, escalations %d → %d)",
			asked, r.fetched(3), escalated, r.met.escalations.Value())
	}
	d.restart(t, 3)
	r.failedAt[2].Add(-int64(r.timeout)) // timeout has passed since the rejection
	decrypt("player 3 back, demotion expired")
	if r.fetched(3) != asked+1 {
		t.Fatalf("player 3 was asked %d times after its demotion expired, want %d", r.fetched(3), asked+1)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Decrypt(ident, c); !errors.Is(err, sem.ErrClientClosed) {
		t.Fatalf("decrypt after Close: %v, want ErrClientClosed", err)
	}
}

// TestClusterToleratesHungPlayer: a player that accepts, shakes hands,
// reads and never answers is rejected once the recombiner's timeout (and
// the pool's one replay) ran out, and the others still decrypt. The second
// leg is the stated worst case: a hung player among the first choices and
// another among the rest make two rounds of at most 2·timeout each.
func TestClusterToleratesHungPlayer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	msg := bytes.Repeat([]byte{0x66}, msgLen)
	for _, leg := range []struct {
		name     string
		hung     []int
		first    int
		min, max time.Duration
	}{
		{"one hung first choice", []int{4}, 4, timeout, 2*timeout + 2*time.Second},
		{"hung players in both rounds", []int{1, 4}, 1, 2 * timeout, 4*timeout + 2*time.Second},
	} {
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel() // the legs wait rather than compute
			d := deploy(t)
			for _, i := range leg.hung {
				d.hang(t, i)
			}
			r := d.recombinerWithTimeout(t, timeout)
			r.startAt(leg.first)
			c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
			start := time.Now()
			got, rejected, err := r.Decrypt(ident, c)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < leg.min || elapsed > leg.max {
				t.Fatalf("decryption took %v with hung players %v and a %v timeout, want %v..%v", elapsed, leg.hung, timeout, leg.min, leg.max)
			}
			if !slices.Equal(rejected, leg.hung) {
				t.Fatalf("rejected = %v, want %v", rejected, leg.hung)
			}
			if r.rounds() != 2 {
				t.Fatalf("%d fetch rounds, want 2", r.rounds())
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("decryption with hung players failed")
			}
		})
	}
}

// TestDecryptHashesIdentityOnce counts hash-to-G1 evaluations (players and
// recombiner share the process, so the counter sees both sides): Q_ID and
// ê(P_pub^(i), Q_ID) are per-identity constants, so a decryption costs the
// recombiner exactly one identity hash — not one per share verified — and
// players whose key shares were verified at Install none at all.
func TestDecryptHashesIdentityOnce(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 3) // BF encryption hashes too: encrypt before counting

	before := curve.HashToPointCalls()
	got, rejected, err := r.Decrypt(ident, cs[0])
	if err != nil || len(rejected) != 0 || !bytes.Equal(got, msgs[0]) {
		t.Fatalf("Decrypt = %x, rejected %v, err %v", got, rejected, err)
	}
	if n := curve.HashToPointCalls() - before; n != 1 {
		t.Fatalf("one Decrypt over %d installed players hashed to G1 %d times, want 1", nn, n)
	}

	before = curve.HashToPointCalls()
	if _, rejected, err := r.DecryptBatch(ident, cs); err != nil || len(rejected) != 0 {
		t.Fatalf("DecryptBatch rejected %v, err %v", rejected, err)
	}
	if n := curve.HashToPointCalls() - before; n != 1 {
		t.Fatalf("one DecryptBatch of %d ciphertexts hashed to G1 %d times, want 1", len(cs), n)
	}
}

// TestWarmDecryptionRunsNoClearingAndNoSubgroupLadder counts, process-wide
// (players and recombiner share the process), the three ladders a decryption
// could be made to pay per request: once the verification keys' programs
// exist, a decryption hashes the identity once, never clears that hash's
// cofactor — Q_ID is only the evaluation point of those programs — and runs
// no [q]· ladder: U at the players and V at the recombiner are evaluation
// points, decoded as such. The same holds when a first choice is down and
// when one lies (the ciphertext's own G1 check, made when a proof fails, is
// memoized on its U after the first such decryption).
func TestWarmDecryptionRunsNoClearingAndNoSubgroupLadder(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 1)
	counted := func(what string, wantRejected []int) {
		t.Helper()
		r.startAt(1)
		hashes, clears, checks := curve.HashToPointCalls(), curve.CofactorClears(), curve.SubgroupChecks()
		got, rejected, err := r.Decrypt(ident, cs[0])
		if err != nil || !slices.Equal(rejected, wantRejected) || !bytes.Equal(got, msgs[0]) {
			t.Fatalf("%s: Decrypt = %x, rejected %v, err %v", what, got, rejected, err)
		}
		hashes, clears, checks = curve.HashToPointCalls()-hashes, curve.CofactorClears()-clears, curve.SubgroupChecks()-checks
		if hashes != 1 || clears != 0 || checks != 0 {
			t.Fatalf("%s: a warm (%d, %d) decryption ran %d hashes, %d cofactor clearings and %d subgroup ladders, want 1, 0, 0", what, tt, nn, hashes, clears, checks)
		}
	}
	// Cold: the first decryptions build (and subgroup-check) the keys of the
	// players they ask; 1..3 here, 4 and 5 with the escalation below.
	r.startAt(1)
	if _, _, err := r.Decrypt(ident, cs[0]); err != nil {
		t.Fatal(err)
	}
	counted("honest", nil)

	d.lieAlways(2)
	r.startAt(1)
	if _, rejected, err := r.Decrypt(ident, cs[0]); err != nil || !slices.Equal(rejected, []int{2}) {
		t.Fatalf("warming the escalated path: rejected %v, err %v", rejected, err)
	}
	r.failedAt[1].Store(0) // ask the liar first again
	counted("escalated by a liar", []int{2})

	d.crash(2)
	r.failedAt[1].Store(0)
	counted("escalated by a crash", []int{2})
}
