package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	mrand "math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/mathx"
	"repro/internal/pairing"
)

// update rewrites testdata/share_proof.json from the code under test. The
// committed file was re-recorded deliberately in PR 20, when the commitment
// became R = r·d_IDi (it was R = r·P since PR 12): W1, W2, V and E changed,
// G and every width did not — TestShareProofGolden holds the new file to
// that against the old one's G digests and widths. Leave it alone unless
// proofs are meant to change again.
var update = flag.Bool("update", false, "rewrite testdata/share_proof.json")

// proofFixture is a deterministic (3, 5) system, identity, ciphertext point
// and player-2 key share over the named parameter set, plus the seed the
// proof nonce is drawn from.
type proofFixture struct {
	pp        *pairing.Params
	params    *ThresholdParams
	id        string
	share     *KeyShare
	u         *curve.Point
	nonceSeed int64
}

func newProofFixture(t *testing.T, name string) *proofFixture {
	t.Helper()
	pp, err := pairing.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(20030713))
	pkg, err := SetupThreshold(rng, pp, msgLen, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := &proofFixture{pp: pp, params: pkg.Params(), id: "proof@example.com", nonceSeed: 42}
	if f.share, err = pkg.ExtractShare(f.id, 2); err != nil {
		t.Fatal(err)
	}
	c, err := f.params.Public.EncryptBasic(rng, f.id, bytes.Repeat([]byte{0x5a}, msgLen))
	if err != nil {
		t.Fatal(err)
	}
	f.u = c.U
	return f
}

// prove runs the implementation under test with the fixture's nonce stream.
func (f *proofFixture) prove(t *testing.T) *DecryptionShare {
	t.Helper()
	ds, err := f.params.ComputeShareWithProof(mrand.New(mrand.NewSource(f.nonceSeed)), f.share, f.u)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// proofBytes flattens (G, W1, W2, E, V) for comparison.
func proofBytes(ds *DecryptionShare) map[string]string {
	return map[string]string{
		"G":  hex.EncodeToString(ds.G.Bytes()),
		"W1": hex.EncodeToString(ds.Proof.W1.Bytes()),
		"W2": hex.EncodeToString(ds.Proof.W2.Bytes()),
		"E":  hex.EncodeToString(ds.Proof.E.Bytes()),
		"V":  hex.EncodeToString(ds.Proof.V.Marshal()),
	}
}

// referenceProof is Section 3.2 with the commitment R = r·d_IDi, on the slow
// generic primitives only: five plain pairings, the affine double-and-add
// ladder and the affine group law.
//
//	R ← r·d_IDi,  g = ê(U, d_IDi),  W1 = ê(P, R),  W2 = ê(U, R),
//	e = H(g, ê(P_pub^(i), Q_ID), W1, W2),  V = R + e·d_IDi
func referenceProof(t *testing.T, f *proofFixture) *DecryptionShare {
	t.Helper()
	pp := f.pp
	pair := func(a, b *curve.Point) *pairing.GT {
		g, err := pp.Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	r, err := mathx.RandomFieldElement(mrand.New(mrand.NewSource(f.nonceSeed)), pp.Q())
	if err != nil {
		t.Fatal(err)
	}
	P := pp.Generator()
	R := curvetest.ScalarMulBinary(f.share.D, r)
	qid, err := bf.HashIdentity(pp, f.id)
	if err != nil {
		t.Fatal(err)
	}
	g := pair(f.u, f.share.D)
	w1 := pair(P, R)
	w2 := pair(f.u, R)
	pub := pair(f.params.VerificationKeys[f.share.Index-1], qid)

	h := sha256.New()
	h.Write([]byte("THIBE-PROOF"))
	for _, x := range []*pairing.GT{g, pub, w1, w2} {
		h.Write(x.Bytes())
	}
	e := mathx.BytesToIntMod(h.Sum(nil), pp.Q())
	v := R.Add(curvetest.ScalarMulBinary(f.share.D, e))
	return &DecryptionShare{Index: f.share.Index, G: g, Proof: &ShareProof{W1: w1, W2: w2, E: e, V: curve.EvalPointOf(v)}}
}

// TestShareProofMatchesReference: for a fixed nonce, ComputeShareWithProof
// emits exactly the tuple Section 3.2 defines for R = r·d_IDi — the walked
// key share, the cached per-share constant and the two GT powers standing in
// for the commitment pairings are shortcuts to the same group elements, not
// a different proof.
func TestShareProofMatchesReference(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		f := newProofFixture(t, name)
		want := proofBytes(referenceProof(t, f))
		// Cold share first, then warmed by VerifyKeyShare as an installing
		// player would have it: both must produce the reference tuple.
		for _, state := range []string{"cold", "installed"} {
			if state == "installed" {
				if err := f.params.VerifyKeyShare(f.share); err != nil {
					t.Fatal(err)
				}
			}
			ds := f.prove(t)
			got := proofBytes(ds)
			for part, w := range want {
				if got[part] != w {
					t.Errorf("%s/%s: %s = %s, reference %s", name, state, part, got[part], w)
				}
			}
			if err := f.params.VerifyShareProof(f.id, f.u, ds); err != nil {
				t.Errorf("%s/%s: reference-equal proof rejected: %v", name, state, err)
			}
		}
	}
}

// TestShareProofCommitmentPowers: the prover never pairs against its
// commitment, so pair against it here. For the commitment R = V − e·d_IDi a
// proof implies, W1 = cᵢ^r must be ê(P, R) and W2 = G^r must be ê(U, R) —
// from the cacheless call and from a ThresholdPlayer, whose G is replayed
// from the cached program (second request: a hit).
func TestShareProofCommitmentPowers(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		f := newProofFixture(t, name)
		pp := f.pp
		player, err := NewThresholdPlayer(f.params, f.share.Index)
		if err != nil {
			t.Fatal(err)
		}
		if err := player.Install(f.share); err != nil {
			t.Fatal(err)
		}
		cacheless := func() (*DecryptionShare, error) { return f.params.ComputeShareWithProof(nil, f.share, f.u) }
		served := func() (*DecryptionShare, error) { return player.Share(f.id, f.u) }
		provers := []struct {
			name  string
			prove func() (*DecryptionShare, error)
		}{{"cacheless", cacheless}, {"player miss", served}, {"player hit", served}}
		wantG, err := pp.Pair(f.u, f.share.D)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range provers {
			prover := pr.name
			ds, err := pr.prove()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ds.G.Bytes(), wantG.Bytes()) {
				t.Errorf("%s/%s: G ≠ ê(U, d)", name, prover)
			}
			R := curvetest.Open(t, pp.Curve(), ds.Proof.V).Add(f.share.D.ScalarMul(ds.Proof.E).Neg())
			if w1, err := pp.Pair(pp.Generator(), R); err != nil || !bytes.Equal(w1.Bytes(), ds.Proof.W1.Bytes()) {
				t.Errorf("%s/%s: W1 ≠ ê(P, R) (%v)", name, prover, err)
			}
			if w2, err := pp.Pair(f.u, R); err != nil || !bytes.Equal(w2.Bytes(), ds.Proof.W2.Bytes()) {
				t.Errorf("%s/%s: W2 ≠ ê(U, R) (%v)", name, prover, err)
			}
		}
		if st := player.pairers.Stats(); st.Hits < 1 {
			t.Errorf("%s: player cache stats %+v, want a hit", name, st)
		}
	}
}

// TestShareProofNoncesDistinct: a repeated nonce hands out the key share
// (two proofs with one R and different e solve for d_IDi), so 64 proofs of
// one share from the system RNG must commit 64 different ways.
func TestShareProofNoncesDistinct(t *testing.T) {
	f := newProofFixture(t, "toy")
	player, err := NewThresholdPlayer(f.params, f.share.Index)
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Install(f.share); err != nil {
		t.Fatal(err)
	}
	seenV, seenW1 := make(map[string]bool), make(map[string]bool)
	for i := 0; i < 64; i++ {
		ds, err := player.Share(f.id, f.u)
		if err != nil {
			t.Fatal(err)
		}
		seenV[string(ds.Proof.V.Marshal())] = true
		seenW1[string(ds.Proof.W1.Bytes())] = true
	}
	if len(seenV) != 64 || len(seenW1) != 64 {
		t.Fatalf("64 proofs gave %d distinct V and %d distinct W1", len(seenV), len(seenW1))
	}
}

// parentShareG is SHA-256 of the G each fixture had in the record PR 20
// replaced (written at PR 12, commitment R = r·P), and partWidths the byte
// widths of that record's parts. The share value and the tuple's shape are
// what the new commitment must not move. The sparse-order "paper" set came
// after that record: it has widths (its sizes are paper_dense's) and no G.
var parentShareG = map[string]string{
	"toy":         "6344979fb4dbb1bf739629988b3ac1e876754d7bfb676ef447f32eecc7b5b91d",
	"fast":        "97a2acee8487d902dabc9d939223192fd1094251a4caf5a1931307c780f6ad74",
	"paper_dense": "53ed48444942fae6a43edea24a226ed93747a477d38324a8564495fbfe2a8c82",
}

var parentPartWidths = map[string]map[string]int{
	"toy":         {"G": 24, "W1": 24, "W2": 24, "V": 13, "E": 4},
	"fast":        {"G": 64, "W1": 64, "W2": 64, "V": 33, "E": 16},
	"paper":       {"G": 128, "W1": 128, "W2": 128, "V": 65, "E": 20},
	"paper_dense": {"G": 128, "W1": 128, "W2": 128, "V": 65, "E": 20},
}

// TestShareProofGolden pins the tuples to recorded bytes, and the record to
// the one it replaced: same G, same widths (E at most its old width — it is
// a minimal big-endian scalar below q).
func TestShareProofGolden(t *testing.T) {
	const path = "testdata/share_proof.json"
	got := make(map[string]map[string]string)
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		got[name] = proofBytes(newProofFixture(t, name).prove(t))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, tuple := range want {
		for part, w := range tuple {
			if g := got[name][part]; g != w {
				t.Errorf("%s: %s = %s, golden %s", name, part, g, w)
			}
			width, old := len(w)/2, parentPartWidths[name][part]
			if width != old && !(part == "E" && width < old) {
				t.Errorf("%s: %s is %d bytes, was %d before the commitment changed", name, part, width, old)
			}
		}
		parentG, ok := parentShareG[name]
		if !ok {
			continue
		}
		g, err := hex.DecodeString(tuple["G"])
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(g); hex.EncodeToString(sum[:]) != parentG {
			t.Errorf("%s: the recorded G is not the G of the record it replaced", name)
		}
	}
}

// TestVerifyShareProofConcurrentFreshParams verifies all n shares of one
// decryption at once against parameters whose caches are cold — the first
// decryption of a recombiner's life. Each verification key's Miller program
// is built under its own Once, so this is the -race witness that the n
// builds neither race nor corrupt one another.
func TestVerifyShareProofConcurrentFreshParams(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "fresh@example.com"
	c, err := p.Public.EncryptBasic(rand.Reader, id, bytes.Repeat([]byte{0x33}, msgLen))
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]*DecryptionShare, p.N)
	for i, ks := range issueShares(t, pkg, id) {
		if shares[i], err = p.ComputeShareWithProof(nil, ks, c.U); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 4; round++ {
		fresh, err := NewThresholdParams(p.Public.Pairing, msgLen, p.T, p.N, p.Public.PPub, p.VerificationKeys)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2*len(shares))
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fresh.VerifyShareProof(id, c.U, shares[i%len(shares)])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: honest share %d rejected on fresh params: %v", round, i%len(shares)+1, err)
			}
		}
	}
}
