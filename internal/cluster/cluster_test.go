package cluster

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
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
	"repro/internal/memnet"
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

// deployment is a full (t, n) cluster on an in-memory network: player i
// serves under addrs[i-1], and a recombiner dials from "recombiner".
type deployment struct {
	params  *core.ThresholdParams
	net     *memnet.Network
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
	return deployOn(t, pp)
}

// deployOn is deploy over the parameter set pp. A player whose Serve fails
// unasked is reported when the test ends.
func deployOn(t *testing.T, pp *pairing.Params) *deployment {
	t.Helper()
	pkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, tt, nn)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{
		params: pkg.Params(), net: memnet.New(),
		players: make([]*PlayerServer, nn), regs: make([]*obs.Registry, nn),
	}
	t.Cleanup(func() {
		if err := d.net.Close(); err != nil {
			t.Error(err)
		}
	})
	for i := 1; i <= nn; i++ {
		ks, err := pkg.ExtractShare(ident, i)
		if err != nil {
			t.Fatal(err)
		}
		d.keys = append(d.keys, ks)
		d.addrs = append(d.addrs, fmt.Sprintf("player-%d", i))
		d.start(t, i)
	}
	return d
}

// start serves player i from a fresh server holding its key share, with
// fresh serving counters, under its name: a restart reuses it.
func (d *deployment) start(t *testing.T, i int) {
	t.Helper()
	p, err := NewPlayerServer(d.params, i)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Install(d.keys[i-1]); err != nil {
		t.Fatal(err)
	}
	d.regs[i-1] = obs.NewRegistry()
	p.Instrument(d.regs[i-1])
	if err := d.net.Serve(d.addrs[i-1], p); err != nil {
		t.Fatal(err)
	}
	d.players[i-1] = p
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
	r.dial = d.net.Dialer("recombiner")
	r.Instrument(nil)
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// pool is a client of player i, closed with the test.
func (d *deployment) pool(t *testing.T, i int) *sem.Pool {
	p := sem.NewPool(d.addrs[i-1], d.params.Public.Pairing, sem.PoolConfig{Size: 1, Dial: d.net.Dialer("client")})
	t.Cleanup(func() { _ = p.Close() })
	return p
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

// crash stops player i's server; its name refuses connections.
func (d *deployment) crash(i int) { d.net.Crash(d.addrs[i-1]) }

// lieAlways makes player i answer every request with a share value that is
// not ê(U, d_IDi) — its W2 = G^r, which resolves into GT as G does — under
// the honest share's (now stale) proof.
func (d *deployment) lieAlways(i int) {
	d.players[i-1].SetMisbehaviour(func(sx *core.ShareX) *core.ShareX {
		lie := *sx
		lie.G = sx.W2
		return &lie
	})
}

// TestPlayerThatCannotStartClosesListener: a player whose server cannot be
// built closes its listener, so a recombiner's dial is refused at once
// instead of waiting out a handshake on a port nobody accepts on.
func TestPlayerThatCannotStartClosesListener(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, tt, nn)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlayerServer(pkg.Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.params = &core.ThresholdParams{Public: &bf.PublicParams{}} // no pairing: sem.NewServer refuses
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := p.Serve(ln); err == nil {
		t.Fatal("Serve without pairing parameters returned nil")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		_ = conn.Close()
		t.Fatal("the listener of a player that cannot start still accepts dials")
	}
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
	pp := d.params.Public.Pairing
	d.players[liar-1].SetMisbehaviour(func(sent *core.ShareX) *core.ShareX {
		for _, c := range cs {
			own := core.ResolveShare(sent, c.U)
			if d.params.VerifyShareProofFor(qid, c.U, own) != nil {
				continue
			}
			player1, err := d.params.ComputeShareWithProof(nil, d.keys[0], c.U)
			if err != nil {
				t.Error(err)
				return sent
			}
			// What the player sends is the lie in U's ring, as it holds it.
			lie := apply(t, own, player1)
			xs := pp.UnresolveX(c.U, lie.G, lie.Proof.W2)
			return &core.ShareX{Index: lie.Index, G: xs[0], W1: lie.Proof.W1, W2: xs[1], E: lie.Proof.E, V: openV(t, lie.Proof)}
		}
		t.Error("share requested for a ciphertext outside the test's batch")
		return sent
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
	for _, i := range []int{1, 2, 3} {
		d.crash(i)
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
	if _, err := d.pool(t, 1).ThresholdShare("ghost@example.com", c.U); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("share for an unknown identity: %v, want ErrUnknownIdentity", err)
	}
}

// TestClusterRevokedEverywhere: a revoke each player acknowledges over its
// own revoke op is enforced on its shares. Decrypt then returns no
// plaintext and a typed error, rejects every player asked and demotes none
// (a refusal is an honest answer); after unrevoke at every player it
// decrypts again.
func TestClusterRevokedEverywhere(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msg := bytes.Repeat([]byte{0x5A}, msgLen)
	c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if err != nil {
		t.Fatal(err)
	}
	each := func(op func(*sem.Pool) error) {
		t.Helper()
		for i := 1; i <= nn; i++ {
			if err := op(d.pool(t, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	each(func(p *sem.Pool) error { return p.Revoke(ident, "key lost") })
	each(func(p *sem.Pool) error {
		if revoked, err := p.Status(ident); err != nil || !revoked {
			return fmt.Errorf("status = %v, %v; want revoked", revoked, err)
		}
		return nil
	})

	got, rejected, err := r.Decrypt(ident, c)
	if !errors.Is(err, ErrNotEnoughShares) || !errors.Is(err, core.ErrRevoked) || got != nil {
		t.Fatalf("revoked everywhere: plaintext %x, err %v; want ErrNotEnoughShares and core.ErrRevoked", got, err)
	}
	if !slices.Equal(rejected, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("rejected = %v, want every player (all were asked, all refused)", rejected)
	}
	for i := range r.failedAt {
		if r.failedAt[i].Load() != 0 {
			t.Fatalf("player %d demoted for refusing a revoked identity", i+1)
		}
	}

	each(func(p *sem.Pool) error { return p.Unrevoke(ident) })
	got, rejected, err = r.Decrypt(ident, c)
	if err != nil || rejected != nil || !bytes.Equal(got, msg) {
		t.Fatalf("after unrevoke: plaintext %x, rejected %v, err %v", got, rejected, err)
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

// exchange opens a raw connection to player i, completes the handshake and
// trades one request frame for its response items.
func (d *deployment) exchange(t *testing.T, i int, op byte, items ...wire.ReqItem) []wire.RespItem {
	t.Helper()
	conn, err := d.net.Dialer("client")(d.addrs[i-1], time.Second)
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
	resp := d.exchange(t, 1, opThresholdShare, wire.ReqItem{ID: []byte(ident), Payload: []byte{1, 2}})
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

// TestNoAbscissaAsksNoPlayer: a ciphertext whose U is O or (0, 0) — no
// point of G1, and no abscissa a player reads — is ErrBadCiphertext before
// any player is asked, so nobody is rejected or demoted over it.
func TestNoAbscissaAsksNoPlayer(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	_, cs := encryptBatch(t, d, 1)
	c := d.params.Public.Pairing.Curve()
	two, err := c.NewPoint(new(big.Int), new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*curve.Point{"O": c.Infinity(), "(0, 0)": two} {
		bad := &bf.BasicCiphertext{U: u, V: cs[0].V}
		out, rejected, err := r.DecryptBatch(ident, []*bf.BasicCiphertext{cs[0], bad})
		if !errors.Is(err, ErrBadCiphertext) || !strings.Contains(err.Error(), "ciphertext 1") || out != nil || rejected != nil {
			t.Fatalf("U = %s: plaintexts %v, rejected %v, err %v; want ErrBadCiphertext naming ciphertext 1", name, out, rejected, err)
		}
	}
	for i := 1; i <= nn; i++ {
		if n := d.served(i); n != 0 {
			t.Fatalf("player %d served %d requests", i, n)
		}
	}
}

func TestClusterPing(t *testing.T) {
	d := deploy(t)
	if resp := d.exchange(t, 3, opPing, wire.ReqItem{}); resp[0].Status != statusOK {
		t.Fatalf("ping answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
	// An op byte nobody serves is refused, and so is one whose backend a
	// player does not have.
	if resp := d.exchange(t, 3, 200, wire.ReqItem{}); resp[0].Status != statusBadRequest {
		t.Fatalf("unknown op answered with status %d: %s", resp[0].Status, resp[0].Data)
	}
	if resp := d.exchange(t, 3, opIBEToken, wire.ReqItem{ID: []byte(ident)}); resp[0].Status != statusUnsupported {
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
// TestShortBodyAsksNoPlayer: a ciphertext whose body is not MsgLen bytes is
// refused with bf.ErrMessageLength before any player is asked, as the full
// key's DecryptBasic refuses it.
func TestShortBodyAsksNoPlayer(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	_, cs := encryptBatch(t, d, 2)
	short := &bf.BasicCiphertext{U: cs[1].U, V: cs[1].V[:msgLen-1]}
	out, rejected, err := r.DecryptBatch(ident, []*bf.BasicCiphertext{cs[0], short})
	if !errors.Is(err, bf.ErrMessageLength) || out != nil || rejected != nil {
		t.Fatalf("short body: plaintexts %v, rejected %v, err %v; want bf.ErrMessageLength", out, rejected, err)
	}
	for i := 1; i <= nn; i++ {
		if r.fetched(i) != 0 || d.served(i) != 0 {
			t.Fatalf("player %d asked %d times (served %d) over a malformed ciphertext", i, r.fetched(i), d.served(i))
		}
	}
	if r.met.asked.Value() != 0 || r.rounds() != 0 {
		t.Fatalf("%d players asked in %d rounds over a malformed ciphertext", r.met.asked.Value(), r.rounds())
	}
}

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
	for _, i := range []int{1, 2, 3} {
		d.crash(i)
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
	resp := d.exchange(t, 1, opThresholdShare, item(cs[0].U.Marshal()), item([]byte{1, 2}), item(cs[1].U.Marshal()))
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
	d.start(t, 3)
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
	d.start(t, 3)
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
			r := d.recombinerWithTimeout(t, timeout)
			for _, i := range leg.hung {
				// Connected, then every byte player i sends r is held: a
				// request waits out the timeout, and the pool's replay on a
				// fresh connection waits out the handshake.
				if err := r.pools[i-1].Ping(); err != nil {
					t.Fatal(err)
				}
				d.net.Hold(d.addrs[i-1], "recombiner")
			}
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
// (players and recombiner share the process), the ladders a decryption
// could be made to pay per request: once the verification keys' programs
// exist, a decryption hashes the identity once, never clears that hash's
// cofactor — Q_ID is only the evaluation point of those programs — and runs
// no [q]· ladder: U at the players and V at the recombiner are evaluation
// points, decoded as such. Its square roots are the hash's and one per
// share received, the recombiner's V's: the players read U's abscissa
// alone. The same holds when a first choice is down and when one lies (the
// ciphertext's own G1 check, made when a proof fails, is memoized on its U
// after the first such decryption).
func TestWarmDecryptionRunsNoClearingAndNoSubgroupLadder(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 1)
	counted := func(what string, wantRejected []int, received uint64) {
		t.Helper()
		r.startAt(1)
		hashes, clears, checks, roots := curve.HashToPointCalls(), curve.CofactorClears(), curve.SubgroupChecks(), curve.SquareRoots()
		got, rejected, err := r.Decrypt(ident, cs[0])
		if err != nil || !slices.Equal(rejected, wantRejected) || !bytes.Equal(got, msgs[0]) {
			t.Fatalf("%s: Decrypt = %x, rejected %v, err %v", what, got, rejected, err)
		}
		hashes, clears, checks = curve.HashToPointCalls()-hashes, curve.CofactorClears()-clears, curve.SubgroupChecks()-checks
		if hashes != 1 || clears != 0 || checks != 0 {
			t.Fatalf("%s: a warm (%d, %d) decryption ran %d hashes, %d cofactor clearings and %d subgroup ladders, want 1, 0, 0", what, tt, nn, hashes, clears, checks)
		}
		if roots = curve.SquareRoots() - roots; roots != 1+received {
			t.Fatalf("%s: a warm decryption receiving %d shares took %d square roots, want %d", what, received, roots, 1+received)
		}
	}
	// Cold: the first decryptions build (and subgroup-check) the keys of the
	// players they ask; 1..3 here, 4 and 5 with the escalation below.
	r.startAt(1)
	if _, _, err := r.Decrypt(ident, cs[0]); err != nil {
		t.Fatal(err)
	}
	counted("honest", nil, tt)

	d.lieAlways(2)
	r.startAt(1)
	if _, rejected, err := r.Decrypt(ident, cs[0]); err != nil || !slices.Equal(rejected, []int{2}) {
		t.Fatalf("warming the escalated path: rejected %v, err %v", rejected, err)
	}
	r.failedAt[1].Store(0) // ask the liar first again
	counted("escalated by a liar", []int{2}, nn)

	d.crash(2)
	r.failedAt[1].Store(0)
	counted("escalated by a crash", []int{2}, nn-1)
}

// offCurveV relays the recombiner's connections to player i frame by
// frame and rewrites the proof point V of each threshold_share answer to an
// encoding that is no curve point: an x whose x³ + x is not a square. Call
// before the recombiner's first decryption.
func (d *deployment) offCurveV(i int) {
	pp := d.params.Public.Pairing
	c := pp.Curve()
	x := big.NewInt(1)
	for {
		s := new(big.Int).Exp(x, big.NewInt(3), c.P())
		if big.Jacobi(s.Add(s, x).Mod(s, c.P()), c.P()) == -1 {
			break
		}
		x.Add(x, big.NewInt(1))
	}
	gt, point := 2*c.CoordinateSize(), 1+c.CoordinateSize()
	bad := make([]byte, point)
	bad[0] = 2
	x.FillBytes(bad[1:])
	d.net.Intercept("recombiner", d.addrs[i-1], func(conn, up net.Conn) {
		hello := make([]byte, 5)
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		if _, err := up.Write(hello); err != nil {
			return
		}
		version, maxBatch, maxFrame, err := wire.ReadV2Ack(up)
		if err != nil || wire.WriteV2Ack(conn, version, maxBatch, maxFrame) != nil {
			return
		}
		var enc wire.FrameEncoder
		var dec wire.FrameDecoder
		for {
			op, items, _, err := dec.ReadRequest(conn, 0, 0)
			if err != nil {
				return
			}
			frame, err := enc.EncodeRequest(op, items, 0)
			if err != nil {
				return
			}
			if _, err := up.Write(frame); err != nil {
				return
			}
			op, resp, _, err := dec.ReadResponse(up, 0, 0)
			if err != nil {
				return
			}
			for k := range resp {
				if op == opThresholdShare && resp[k].Status == statusOK {
					data := bytes.Clone(resp[k].Data)
					copy(data[3*gt:], bad)
					resp[k].Data = data
				}
			}
			if frame, err = enc.EncodeResponse(op, resp, 0); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	})
}

// TestOffCurveVRejectsOnlyItsPlayer: a round's proof points are decoded in
// one call (at paper size one walk of the square-root exponent on the lane
// engine for all three), each with its own verdict. A player whose V is no
// curve point is rejected alone; the two shares decoded beside it in that
// call are accepted, and the round after asks only the two players left.
func TestOffCurveVRejectsOnlyItsPlayer(t *testing.T) {
	for _, name := range []string{"toy", "paper"} {
		t.Run(name, func(t *testing.T) {
			pp, err := pairing.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d := deployOn(t, pp)
			d.offCurveV(2)
			r := d.recombiner(t)
			r.startAt(1)
			msg := bytes.Repeat([]byte{0x2c}, msgLen)
			c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, rejected, err := r.Decrypt(ident, c)
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("Decrypt = %x, %v", got, err)
			}
			if !slices.Equal(rejected, []int{2}) {
				t.Fatalf("rejected %v, want [2]", rejected)
			}
			if n := r.met.verifyFail.Value(); n != 0 {
				t.Fatalf("%d players failed the proof check; player 2's V must be refused by its decoder", n)
			}
			for i, want := range []uint64{1, 1, 1, 1, 1} {
				if n := r.fetched(i + 1); n != want {
					t.Errorf("player %d asked %d times, want %d", i+1, n, want)
				}
			}
		})
	}
}
