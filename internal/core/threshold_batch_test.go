package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/mathx"
	"repro/internal/pairing"
)

// batchFixture is one ciphertext of a (3, 5) system with every player's
// honest share-with-proof for it.
type batchFixture struct {
	p      *ThresholdParams
	id     string
	qid    *pairing.HashArg
	c      *bf.BasicCiphertext
	msg    []byte
	keys   []*KeyShare        // keys[i-1] is player i's
	shares []*DecryptionShare // shares[i-1] is player i's
}

func newBatchFixture(tb testing.TB, pp *pairing.Params) *batchFixture {
	tb.Helper()
	pkg, err := SetupThreshold(rand.Reader, pp, msgLen, 3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	f := &batchFixture{p: pkg.Params(), id: "batch@example.com", msg: bytes.Repeat([]byte{0x42}, msgLen)}
	if f.qid, err = bf.HashIdentityArg(pp, f.id); err != nil {
		tb.Fatal(err)
	}
	if f.c, err = f.p.Public.EncryptBasic(rand.Reader, f.id, f.msg); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= f.p.N; i++ {
		ks, err := pkg.ExtractShare(f.id, i)
		if err != nil {
			tb.Fatal(err)
		}
		ds, err := f.p.ComputeShareWithProof(rand.Reader, ks, f.c.U)
		if err != nil {
			tb.Fatal(err)
		}
		f.keys = append(f.keys, ks)
		f.shares = append(f.shares, ds)
	}
	return f
}

// TestVerifyShareProofNilComponents: a share whose proof lacks a component
// is refused with the typed error by the verifier and turned away by the
// recombiner — not dereferenced.
func TestVerifyShareProofNilComponents(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, pp)
	honest := f.shares[3]
	cases := map[string]func(ds *DecryptionShare){
		"G":     func(ds *DecryptionShare) { ds.G = nil },
		"W1":    func(ds *DecryptionShare) { ds.Proof.W1 = nil },
		"W2":    func(ds *DecryptionShare) { ds.Proof.W2 = nil },
		"E":     func(ds *DecryptionShare) { ds.Proof.E = nil },
		"V":     func(ds *DecryptionShare) { ds.Proof.V = curve.EvalPoint{} },
		"all":   func(ds *DecryptionShare) { ds.G, ds.Proof = nil, &ShareProof{} },
		"proof": func(ds *DecryptionShare) { ds.Proof = nil },
	}
	for part, strip := range cases {
		t.Run(part, func(t *testing.T) {
			proof := *honest.Proof
			ds := &DecryptionShare{Index: honest.Index, G: honest.G, Proof: &proof}
			strip(ds)
			if err := f.p.VerifyShareProofFor(f.qid, f.c.U, ds); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("VerifyShareProofFor = %v, want ErrProofInvalid", err)
			}
			shares := slices.Clone(f.shares)
			shares[3] = ds
			if err := f.p.VerifyShareProofs(f.qid, f.c.U, shares); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("VerifyShareProofs = %v, want ErrProofInvalid", err)
			}
			got, rejected, err := f.p.RobustDecrypt(f.id, shares, f.c)
			if err != nil || !bytes.Equal(got, f.msg) {
				t.Fatalf("RobustDecrypt = %x, %v", got, err)
			}
			if !slices.Equal(rejected, []int{4}) {
				t.Fatalf("rejected = %v, want [4]", rejected)
			}
		})
	}
	if err := f.p.VerifyShareProofs(f.qid, f.c.U, []*DecryptionShare{f.shares[0], nil}); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("nil share: %v, want ErrProofInvalid", err)
	}
	if err := f.p.VerifyShareProofs(f.qid, f.c.U, nil); err != nil {
		t.Fatalf("no shares, nothing to refute: %v", err)
	}
}

// TestVerifyShareProofsAllocs is the batch verifier's allocation ceiling at
// the size the cluster runs it (n = 5, paper parameters; measured 1 170 when
// it landed, against 5 × 333 for the one-by-one checks it replaced, and 872
// since the replayed programs live in slabs — the identity arrives hashed,
// as a HashArg, so no clearing ladder's recoding or table is in the count).
// The bucketed MSM kernel alone adds ~1 700 at this size, a big.Int GT path
// far more, a cofactor clearing or a [q]V ladder per share ≈ 60 each: the
// bound fails the day any of them comes back under it.
func TestVerifyShareProofsAllocs(t *testing.T) {
	pp, err := pairing.Paper()
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, pp)
	verify := func() {
		if err := f.p.VerifyShareProofs(f.qid, f.c.U, f.shares); err != nil {
			t.Fatal(err)
		}
	}
	verify() // build the verification keys' Miller programs outside the count
	if allocs := testing.AllocsPerRun(5, verify); allocs >= 1000 {
		t.Fatalf("paper-size VerifyShareProofs over 5 shares allocates %.0f times per call, want < 1000", allocs)
	}
}

// TestCancellingLieFails: player 2 commits to W1·g^δ and W2·g^−δ and proves
// the moved commitments honestly — challenge recomputed, V = R + e·d_IDi —
// so that its two equations are off by g^−δ and g^δ, which cancel wherever
// the two are folded with equal weight. The fresh ρ weighing one against the
// other must catch it, batched beside honest shares and alone.
func TestCancellingLieFails(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, pp)
	q := pp.Q()
	pair := func(a, b *curve.Point) *pairing.GT {
		g, err := pp.Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	exp := func(g *pairing.GT, k *big.Int) *pairing.GT {
		h, err := g.Exp(new(big.Int).Mod(k, q))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ks, P, U := f.keys[1], pp.Generator(), f.c.U
	c, err := f.p.vkPair(ks.Index, f.qid)
	if err != nil {
		t.Fatal(err)
	}
	g, G := pair(P, P), pair(U, ks.D)
	prove := func(delta *big.Int) *DecryptionShare {
		r, err := mathx.RandomFieldElement(rand.Reader, q)
		if err != nil {
			t.Fatal(err)
		}
		R := ks.D.ScalarMul(r)
		w1 := pair(P, R).Mul(exp(g, delta))
		w2 := pair(U, R).Mul(exp(g, new(big.Int).Neg(delta)))
		xs := pp.UnresolveX(U, G, w2)
		e := proofChallenge(q, pp.Curve().AbscissaBytes(curve.EvalXOf(U)), xs[0], c, w1, xs[1])
		return &DecryptionShare{Index: ks.Index, G: G, Proof: &ShareProof{W1: w1, W2: w2, E: e, V: curve.EvalPointOf(R.Add(ks.D.ScalarMul(e)))}}
	}
	if err := f.p.VerifyShareProofFor(f.qid, U, prove(new(big.Int))); err != nil {
		t.Fatalf("the same proof with δ = 0: %v", err)
	}
	for trial := 0; trial < 8; trial++ {
		delta, err := mathx.RandomFieldElement(rand.Reader, q)
		if err != nil {
			t.Fatal(err)
		}
		lie := prove(delta)
		if err := f.p.VerifyShareProofFor(f.qid, U, lie); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("single check accepted the cancelling lie: %v", err)
		}
		shares := []*DecryptionShare{f.shares[0], lie, f.shares[2]}
		if err := f.p.VerifyShareProofs(f.qid, U, shares); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("batch check accepted the cancelling lie: %v", err)
		}
		if _, rejected := f.p.AcceptableShares(f.qid, U, shares); !slices.Equal(rejected, []int{2}) {
			t.Fatalf("rejected %v, want [2]", rejected)
		}
	}
}

// disguisedPart is the one part of perturb that is no lie: V + T.
const disguisedPart = 7

// perturb returns a copy of ds with one component moved inside its group
// (so it would survive wire validation), for part 5 another player's share
// passed off under ds's index, for part 6 a V that is the cofactor-order
// point tors alone, and for part 7 (disguisedPart) the honest V with tors
// added — which decodes like the others and, V being only an evaluation
// point of the check, must verify. Parts mirror the byzantine table of
// internal/cluster.
func perturb(tb testing.TB, ds, other *DecryptionShare, part uint8, q *big.Int, tors *curve.Point) *DecryptionShare {
	pr := *ds.Proof
	v := func() *curve.Point { return curvetest.Open(tb, tors.Curve(), pr.V) }
	out := &DecryptionShare{Index: ds.Index, G: ds.G, Proof: &pr}
	switch part % 8 {
	case 0:
		out.G = ds.G.Mul(ds.G)
	case 1:
		pr.W1 = pr.W1.Mul(pr.W1)
	case 2:
		pr.W2 = pr.W2.Mul(pr.W2)
	case 3:
		e := new(big.Int).Add(pr.E, big.NewInt(1))
		pr.E = e.Mod(e, q)
	case 4:
		pr.V = curve.EvalPointOf(v().Double())
	case 5:
		relayed := *other.Proof
		out.G, out.Proof = other.G, &relayed
	case 6:
		pr.V = curve.EvalPointOf(tors)
	case disguisedPart:
		pr.V = curve.EvalPointOf(v().Add(tors))
	}
	return out
}

// FuzzVerifyShareProofs: the fuzzer chooses which players answer, which of
// them lie and how (one byte per player: bit 7 absent, low bits zero for
// honest, otherwise a component to perturb — or, for one value, an honest V
// sent outside the subgroup). The batch verdict must be the
// AND of the single verdicts, the accept rule must turn away exactly the
// liars, and whenever t honest players remain the plaintext must come out
// right.
func FuzzVerifyShareProofs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})             // all honest
	f.Add([]byte{0})                         // n = 1
	f.Add([]byte{0, 0x80, 0, 0x80, 0})       // n = t with absent players
	for part := byte(1); part <= 7; part++ { // one liar per kind of lie
		f.Add([]byte{0, part, 0, 0, 0})
		f.Add([]byte{part, 0x80, 0, part, 0}) // two liars, one absentee
	}
	f.Add([]byte{disguisedPart + 1, disguisedPart + 1, disguisedPart + 1, 0x80, 0x80}) // n = t, every V outside G1, nobody lying
	f.Add([]byte{disguisedPart + 1, 7, 0, 5, disguisedPart + 1})                       // V + T beside V = T and a stale V
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	fix := newBatchFixture(f, pp)
	q := pp.Q()
	cofactor := curvetest.CofactorPoints(f, pp.Curve())
	tors := cofactor[len(cofactor)-1]

	f.Fuzz(func(t *testing.T, plan []byte) {
		var shares []*DecryptionShare
		var liars []int
		for i, b := range plan {
			if i >= fix.p.N || b&0x80 != 0 {
				continue
			}
			ds := fix.shares[i]
			if part := b & 0x7f; part != 0 {
				ds = perturb(t, ds, fix.shares[(i+1)%fix.p.N], part-1, q, tors)
				if (part-1)%8 != disguisedPart {
					liars = append(liars, ds.Index)
				}
			}
			shares = append(shares, ds)
		}
		all := true
		for _, ds := range shares {
			if err := fix.p.VerifyShareProofFor(fix.qid, fix.c.U, ds); err != nil {
				if !errors.Is(err, ErrProofInvalid) {
					t.Fatalf("player %d: untyped rejection %v", ds.Index, err)
				}
				all = false
			}
		}
		if all != (len(liars) == 0) {
			t.Fatalf("plan %x: single verdicts accept all = %v with liars %v", plan, all, liars)
		}
		if err := fix.p.VerifyShareProofs(fix.qid, fix.c.U, shares); (err == nil) != all {
			t.Fatalf("plan %x: batch verdict %v, AND of singles %v", plan, err, all)
		}
		valid, rejected := fix.p.AcceptableShares(fix.qid, fix.c.U, shares)
		if !slices.Equal(rejected, liars) {
			t.Fatalf("plan %x: rejected %v, liars %v", plan, rejected, liars)
		}
		if len(valid) != len(shares)-len(liars) {
			t.Fatalf("plan %x: %d of %d shares valid with %d liars", plan, len(valid), len(shares), len(liars))
		}
		got, _, err := fix.p.RobustDecrypt(fix.id, shares, fix.c)
		if len(valid) < fix.p.T {
			if !errors.Is(err, ErrNotEnoughValidShares) {
				t.Fatalf("plan %x: %d valid shares decrypted: %v", plan, len(valid), err)
			}
		} else if err != nil || !bytes.Equal(got, fix.msg) {
			t.Fatalf("plan %x: RobustDecrypt = %x, %v", plan, got, err)
		}
	})
}

// TestVerificationKeyPairersMatchClearedHash: the constant every proof is
// bound to, cᵢ = ê(P_pub^(i), Q_ID), comes out of the verification keys'
// hash-argument programs — fed the identity's UNcleared hash — as the bytes
// of the plain pairing with the cleared Q_ID, for every key of a (3, 5)
// system and for P_pub. The Fiat–Shamir transcript hashes those bytes, so
// this is what keeps every recorded proof valid.
func TestVerificationKeyPairersMatchClearedHash(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := SetupThreshold(rand.Reader, pp, msgLen, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		p := pkg.Params()
		ppub, err := pp.NewHashPairer(p.Public.PPub)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 50; m++ {
			id := fmt.Sprintf("user-%d@example.com", m)
			arg, err := bf.HashIdentityArg(pp, id)
			if err != nil {
				t.Fatal(err)
			}
			qid, err := bf.HashIdentity(pp, id)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, key *curve.Point, got *pairing.GT, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				want, err := pp.Pair(key, qid)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: %s, identity %d: program on the uncleared hash ≠ ê(key, Q_ID)", name, what, m)
				}
			}
			got, err := ppub.Pair(arg)
			check("P_pub", p.Public.PPub, got, err)
			for i, vk := range p.VerificationKeys {
				got, err := p.vkPair(i+1, arg)
				check(fmt.Sprintf("P_pub^(%d)", i+1), vk, got, err)
			}
		}
	}
}

// TestDegenerateVerificationKeyVouchesForNothing: a verification key that is
// not a G1 point has no program, so its player's shares are turned away and
// its key shares refused — never paired against.
func TestDegenerateVerificationKeyVouchesForNothing(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, pp)
	cofactor := curvetest.CofactorPoints(t, pp.Curve())
	for what, bad := range map[string]*curve.Point{"O": pp.Curve().Infinity(), "P_pub^(2) + T": f.p.VerificationKeys[1].Add(cofactor[len(cofactor)-1])} {
		vks := slices.Clone(f.p.VerificationKeys)
		vks[1] = bad
		p := &ThresholdParams{Public: f.p.Public, T: f.p.T, N: f.p.N, VerificationKeys: vks}
		if err := p.VerifyShareProofFor(f.qid, f.c.U, f.shares[1]); !errors.Is(err, curve.ErrNotInSubgroup) {
			t.Fatalf("%s: share of the player with the bad key: %v, want ErrNotInSubgroup", what, err)
		}
		got, rejected, err := p.RobustDecrypt(f.id, f.shares, f.c)
		if err != nil || !bytes.Equal(got, f.msg) || !slices.Equal(rejected, []int{2}) {
			t.Fatalf("%s: RobustDecrypt = %x, rejected %v, %v; want the plaintext with player 2 turned away", what, got, rejected, err)
		}
	}
}

// vkPair is cᵢ = ê(P_pub^(i), Q_ID) through verification key i's cached
// program, as VerifyShareProofs replays it.
func (p *ThresholdParams) vkPair(i int, qid *pairing.HashArg) (*pairing.GT, error) {
	hp, err := p.vkPairer(i)
	if err != nil {
		return nil, err
	}
	return hp.Pair(qid)
}
