package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/pairing"
)

// batchFixture is one ciphertext of a (3, 5) system with every player's
// honest share-with-proof for it.
type batchFixture struct {
	p      *ThresholdParams
	id     string
	qid    *curve.Point
	c      *bf.BasicCiphertext
	msg    []byte
	shares []*DecryptionShare // shares[i-1] is player i's
}

func newBatchFixture(tb testing.TB, pp *pairing.Params) *batchFixture {
	tb.Helper()
	pkg, err := SetupThreshold(rand.Reader, pp, msgLen, 3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	f := &batchFixture{p: pkg.Params(), id: "batch@example.com", msg: bytes.Repeat([]byte{0x42}, msgLen)}
	if f.qid, err = bf.HashIdentity(pp, f.id); err != nil {
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
		"V":     func(ds *DecryptionShare) { ds.Proof.V = nil },
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
// it landed, against 5 × 333 for the one-by-one checks it replaced). The
// bucketed MSM kernel alone adds ~1 700 at this size, a big.Int GT path far
// more: the bound fails the day either comes back under it.
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
	if allocs := testing.AllocsPerRun(5, verify); allocs >= 1300 {
		t.Fatalf("paper-size VerifyShareProofs over 5 shares allocates %.0f times per call, want < 1300", allocs)
	}
}

// perturb returns a copy of ds with one component moved inside its group
// (so it would survive wire validation) or, for part 5, another player's
// share passed off under ds's index. Parts mirror the byzantine table of
// internal/cluster.
func perturb(ds, other *DecryptionShare, part uint8, q *big.Int) *DecryptionShare {
	pr := *ds.Proof
	out := &DecryptionShare{Index: ds.Index, G: ds.G, Proof: &pr}
	switch part % 6 {
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
		pr.V = pr.V.Double()
	case 5:
		relayed := *other.Proof
		out.G, out.Proof = other.G, &relayed
	}
	return out
}

// FuzzVerifyShareProofs: the fuzzer chooses which players answer, which of
// them lie and how (one byte per player: bit 7 absent, low bits zero for
// honest, otherwise a component to perturb). The batch verdict must be the
// AND of the single verdicts, the accept rule must turn away exactly the
// liars, and whenever t honest players remain the plaintext must come out
// right.
func FuzzVerifyShareProofs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})             // all honest
	f.Add([]byte{0})                         // n = 1
	f.Add([]byte{0, 0x80, 0, 0x80, 0})       // n = t with absent players
	for part := byte(1); part <= 6; part++ { // one liar per kind of lie
		f.Add([]byte{0, part, 0, 0, 0})
		f.Add([]byte{part, 0x80, 0, part, 0}) // two liars, one absentee
	}
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	fix := newBatchFixture(f, pp)
	q := pp.Q()

	f.Fuzz(func(t *testing.T, plan []byte) {
		var shares []*DecryptionShare
		var liars []int
		for i, b := range plan {
			if i >= fix.p.N || b&0x80 != 0 {
				continue
			}
			ds := fix.shares[i]
			if part := b & 0x7f; part != 0 {
				ds = perturb(ds, fix.shares[(i+1)%fix.p.N], part-1, q)
				liars = append(liars, ds.Index)
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
