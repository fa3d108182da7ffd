package cluster

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pairing"
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
		go func() { _ = srv.Serve(ln) }()
		d.players = append(d.players, srv)
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
	r, err := NewRecombiner(d.params, d.addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return r
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

// corruptions tampers with each component of a share-with-proof in turn,
// keeping every element inside its group (so it survives wire validation
// and reaches the NIZK check) and leaving the rest of the tuple stale.
var corruptions = []struct {
	part  string
	apply func(ds *core.DecryptionShare) *core.DecryptionShare
}{
	{"G", func(ds *core.DecryptionShare) *core.DecryptionShare {
		return &core.DecryptionShare{Index: ds.Index, G: ds.G.Mul(ds.G), Proof: ds.Proof}
	}},
	{"W1", corruptProof(func(pr *core.ShareProof) { pr.W1 = pr.W1.Mul(pr.W1) })},
	{"W2", corruptProof(func(pr *core.ShareProof) { pr.W2 = pr.W2.Mul(pr.W2) })},
	{"E", corruptProof(func(pr *core.ShareProof) {
		e := new(big.Int).Add(pr.E, big.NewInt(1))
		pr.E = e.Mod(e, pr.V.Curve().Q())
	})},
	{"V", corruptProof(func(pr *core.ShareProof) { pr.V = pr.V.Double() })},
}

// corruptProof returns a misbehaviour that edits a copy of the proof and
// leaves the share value alone.
func corruptProof(edit func(pr *core.ShareProof)) func(*core.DecryptionShare) *core.DecryptionShare {
	return func(ds *core.DecryptionShare) *core.DecryptionShare {
		pr := *ds.Proof
		edit(&pr)
		return &core.DecryptionShare{Index: ds.Index, G: ds.G, Proof: &pr}
	}
}

func TestClusterToleratesByzantinePlayer(t *testing.T) {
	for _, corrupt := range corruptions {
		t.Run(corrupt.part, func(t *testing.T) {
			d := deploy(t)
			d.players[1].SetMisbehaviour(corrupt.apply) // player 2 lies
			r := d.recombiner(t)
			msg := bytes.Repeat([]byte{0x11}, msgLen)
			c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
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

func TestClusterToleratesCrashedPlayers(t *testing.T) {
	d := deploy(t)
	// Crash two players: 5 − 2 = 3 = t still suffices.
	_ = d.players[0].Close()
	_ = d.players[4].Close()
	r := d.recombiner(t)
	msg := bytes.Repeat([]byte{0x22}, msgLen)
	c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	got, rejected, err := r.Decrypt(ident, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 2 {
		t.Fatalf("rejected = %v, want two crashed players", rejected)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("decryption with crashed players failed")
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
	if _, _, err := r.Decrypt("ghost@example.com", c); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("unknown identity decrypted: %v", err)
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

func TestClusterRejectsMalformedPoint(t *testing.T) {
	d := deploy(t)
	conn, err := net.Dial("tcp", d.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrameForTest(conn, &request{Op: "share", ID: ident, U: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if _, err := readFrameForTest(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("malformed point accepted")
	}
}

func TestClusterPing(t *testing.T) {
	d := deploy(t)
	conn, err := net.Dial("tcp", d.addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrameForTest(conn, &request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if _, err := readFrameForTest(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Index != 3 {
		t.Fatalf("ping response = %+v", resp)
	}
	// Unknown op is rejected.
	if _, err := writeFrameForTest(conn, &request{Op: "nonsense"}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameForTest(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unknown op accepted")
	}
}

// Test-only frame helpers delegating to the shared wire package.
func writeFrameForTest(conn net.Conn, v any) (int, error) { return wireWrite(conn, v) }
func readFrameForTest(conn net.Conn, v any) (int, error)  { return wireRead(conn, v) }

// TestRecombinerMetrics drives an instrumented decryption past a byzantine
// player and checks the exported series: per-player fetch timings, the
// verification-failure and rejected-share counters, and quorum wait.
func TestRecombinerMetrics(t *testing.T) {
	d := deploy(t)
	d.players[1].SetMisbehaviour(func(ds *core.DecryptionShare) *core.DecryptionShare {
		return &core.DecryptionShare{Index: ds.Index, G: ds.G.Mul(ds.G), Proof: ds.Proof}
	})
	r := d.recombiner(t)
	reg := obs.NewRegistry()
	r.Instrument(reg)

	msg := bytes.Repeat([]byte{0x33}, msgLen)
	c, _ := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if _, _, err := r.Decrypt(ident, c); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cluster_decrypts_total 1`,
		`cluster_verify_failures_total 1`,
		`cluster_rejected_shares_total 1`,
		`cluster_quorum_wait_seconds_count 1`,
		`cluster_fetch_seconds_count{player="1"} 1`,
		`cluster_fetch_seconds_count{player="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("recombiner metrics missing %q:\n%s", want, out)
		}
	}
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
			d.players[2].SetMisbehaviour(corrupt.apply) // player 3 corrupts every share in the batch
			r := d.recombiner(t)
			msgs, cs := encryptBatch(t, d, 3)
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

// TestClusterSharesOpPartialMalformed drives the raw batched op: one
// malformed ciphertext point fails only its own slot.
func TestClusterSharesOpPartialMalformed(t *testing.T) {
	d := deploy(t)
	msgs, cs := encryptBatch(t, d, 2)
	_ = msgs
	conn, err := net.Dial("tcp", d.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	us := [][]byte{cs[0].U.Marshal(), {1, 2}, cs[1].U.Marshal()}
	if _, err := writeFrameForTest(conn, &request{Op: "shares", ID: ident, Us: us}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if _, err := readFrameForTest(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Shares) != 3 {
		t.Fatalf("shares response = %+v", resp)
	}
	if !resp.Shares[0].OK || !resp.Shares[2].OK {
		t.Fatal("valid slots failed")
	}
	if resp.Shares[1].OK || !strings.Contains(resp.Shares[1].Error, "bad ciphertext point") {
		t.Fatalf("malformed slot = %+v", resp.Shares[1])
	}
}

// TestRecombinerConnPool checks the pooled-connection path: the first
// decryption dials every player, the second rides the cached connections,
// and a cache full of dead sockets is absorbed by the stale-retry replay
// without the caller seeing an error.
func TestRecombinerConnPool(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	defer func() { _ = r.Close() }()
	reg := obs.NewRegistry()
	r.Instrument(reg)

	msg := bytes.Repeat([]byte{0xD0}, msgLen)
	c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, rejected, err := r.Decrypt(ident, c)
		if err != nil || len(rejected) != 0 {
			t.Fatalf("round %d: rejected=%v err=%v", round, rejected, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: decrypted %x, want %x", round, got, msg)
		}
	}
	if dials := r.met.poolDials.Value(); dials != nn {
		t.Fatalf("dials = %d, want %d (second round must reuse)", dials, nn)
	}
	if reuses := r.met.poolReuses.Value(); reuses != nn {
		t.Fatalf("reuses = %d, want %d", reuses, nn)
	}

	// Poison the cache: close every pooled socket out from under the
	// recombiner, as a player's idle timeout would. The next decryption must
	// detect the stale connections and replay on fresh dials.
	r.pool.mu.Lock()
	for _, conns := range r.pool.idle {
		for _, pc := range conns {
			_ = pc.Close()
		}
	}
	r.pool.mu.Unlock()
	got, rejected, err := r.Decrypt(ident, c)
	if err != nil || len(rejected) != 0 {
		t.Fatalf("post-poison decrypt: rejected=%v err=%v", rejected, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("post-poison decrypted %x, want %x", got, msg)
	}
	if retries := r.met.poolRetry.Value(); retries != nn {
		t.Fatalf("stale retries = %d, want %d", retries, nn)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster_pool_dials_total", "cluster_pool_reuses_total", "cluster_pool_stale_retries_total", "cluster_pool_idle"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Close drains the cache; decryption still works by dialing fresh.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := r.pool.size(); n != 0 {
		t.Fatalf("idle conns after Close = %d", n)
	}
	if _, _, err := r.Decrypt(ident, c); err != nil {
		t.Fatalf("decrypt after Close: %v", err)
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
