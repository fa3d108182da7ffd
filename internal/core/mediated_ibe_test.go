package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/pairing"
)

const msgLen = 32

func ibeFixture(t *testing.T) (*MediatedPKG, *IBESEM) {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewIBESEM(pkg.Public(), NewRegistry())
	return pkg, sem
}

func enroll(t *testing.T, pkg *MediatedPKG, sem *IBESEM, id string) *UserKeyHalf {
	t.Helper()
	user, semHalf, err := pkg.SplitExtract(rand.Reader, id)
	if err != nil {
		t.Fatal(err)
	}
	sem.Register(semHalf)
	return user
}

func TestMediatedIBERoundTrip(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{0xA1}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(sem, alice, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %x, want %x", got, msg)
	}
}

func TestSplitCompleteness(t *testing.T) {
	// d_user + d_sem must equal the full FullIdent key: a recombined key
	// decrypts directly.
	pkg, _ := ibeFixture(t)
	user, semHalf, err := pkg.SplitExtract(rand.Reader, "bob@example.com")
	if err != nil {
		t.Fatal(err)
	}
	full, err := RecombineKey(user, semHalf)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{3}, msgLen)
	c, _ := pkg.Public().Encrypt(rand.Reader, "bob@example.com", msg)
	got, err := pkg.Public().Decrypt(full, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("recombined key failed to decrypt")
	}
}

func TestRecombineKeyIdentityMismatch(t *testing.T) {
	pkg, _ := ibeFixture(t)
	ua, _, _ := pkg.SplitExtract(rand.Reader, "a@x")
	_, sb, _ := pkg.SplitExtract(rand.Reader, "b@x")
	if _, err := RecombineKey(ua, sb); err == nil {
		t.Fatal("cross-identity recombination accepted")
	}
}

func TestSplitIsRandomized(t *testing.T) {
	pkg, _ := ibeFixture(t)
	u1, s1, _ := pkg.SplitExtract(rand.Reader, "x@x")
	u2, s2, _ := pkg.SplitExtract(rand.Reader, "x@x")
	if u1.D.Equal(u2.D) {
		t.Fatal("two splits produced the same user half")
	}
	// Both splits must recombine to the same full key.
	f1, _ := RecombineKey(u1, s1)
	f2, _ := RecombineKey(u2, s2)
	if !f1.D.Equal(f2.D) {
		t.Fatal("splits recombine to different keys")
	}
}

func TestRevocationStopsDecryption(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{1}, msgLen)
	c, _ := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)

	// Works before revocation.
	if _, err := Decrypt(sem, alice, c); err != nil {
		t.Fatalf("pre-revocation decrypt failed: %v", err)
	}
	sem.Registry().Revoke("alice@example.com", "left the company")
	if _, err := Decrypt(sem, alice, c); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked identity still decrypts: %v", err)
	}
	// Unrevoke restores capability instantly.
	if !sem.Registry().Unrevoke("alice@example.com") {
		t.Fatal("unrevoke reported identity not revoked")
	}
	if _, err := Decrypt(sem, alice, c); err != nil {
		t.Fatalf("post-unrevoke decrypt failed: %v", err)
	}
}

func TestTokenRejectsBadU(t *testing.T) {
	pkg, sem := ibeFixture(t)
	enroll(t, pkg, sem, "alice@example.com")
	if _, err := sem.Token("alice@example.com", nil); err == nil {
		t.Error("nil U accepted")
	}
	O := pkg.Public().Pairing.Curve().Infinity()
	if _, err := sem.Token("alice@example.com", O); err == nil {
		t.Error("U = O accepted")
	}
	// U outside G1 is not refused: it is only the pairing's evaluation
	// point, and its cofactor component T contributes nothing — the token for
	// U_q + T is the token for U_q, a pure cofactor point gets 1 (DESIGN §7).
	uq, tors := cofactorSplit(t, pkg.Public().Pairing.Curve())
	want, err := sem.Token("alice@example.com", uq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sem.Token("alice@example.com", uq.Add(tors))
	if err != nil || !got.Equal(want) {
		t.Errorf("Token(U_q + T) = %v, %v; want Token(U_q)", got, err)
	}
	if !pkg.Public().Pairing.InGT(got) {
		t.Error("token for U_q + T outside GT")
	}
	if one, err := sem.Token("alice@example.com", tors); err != nil || !one.IsOne() {
		t.Errorf("Token(T) = %v, %v; want 1", one, err)
	}
}

// TestAbsentEvaluationPoint: every entry point that takes an evaluation
// point answers an absent one — a nil interface, a nil *curve.Point inside
// one, the zero EvalPoint — as it answers O: Token and Share refuse it with
// their error, a pairing is 1. None of them panics.
func TestAbsentEvaluationPoint(t *testing.T) {
	pkg, sem := ibeFixture(t)
	enroll(t, pkg, sem, "alice@example.com")
	tpkg, player := playerFixture(t)
	installShare(t, tpkg, player, "alice@example.com")
	pp := pkg.Public().Pairing
	fixed, err := pp.NewFixedPair(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	// refusal is Token's and Share's answer; a pairing's is 1.
	const refusal = "core: ciphertext point U is not a valid pairing argument"
	share := func(u curve.EvalArg) (*pairing.GT, error) {
		ds, err := player.Share("alice@example.com", u)
		if err != nil {
			return nil, err
		}
		return ds.G, nil
	}
	calls := []struct {
		name    string
		refused bool
		f       func(u curve.EvalArg) (*pairing.GT, error)
	}{
		{"IBESEM.Token", true, func(u curve.EvalArg) (*pairing.GT, error) { return sem.Token("alice@example.com", u) }},
		{"ThresholdPlayer.Share", true, share},
		{"FixedPair.Pair", false, fixed.Pair},
		{"Params.Pair", false, func(u curve.EvalArg) (*pairing.GT, error) { return pp.Pair(pp.Generator(), u) }},
		{"PairWithGenerator", false, pp.PairWithGenerator},
	}
	inputs := map[string]curve.EvalArg{
		"nil":                    nil,
		"nil *curve.Point":       (*curve.Point)(nil),
		"zero curve.EvalPoint{}": curve.EvalPoint{},
	}
	for _, call := range calls {
		for input, u := range inputs {
			t.Run(call.name+"/"+input, func(t *testing.T) {
				g, err := call.f(u)
				if call.refused {
					if err == nil || err.Error() != refusal {
						t.Fatalf("got %v, %v; want the error %q", g, err, refusal)
					}
				} else if err != nil || !g.IsOne() {
					t.Fatalf("got %v, %v; want 1", g, err)
				}
			})
		}
	}
}

// cofactorSplit draws a random point of E(F_p) outside G1 and splits it into
// its order-q part U_q and its cofactor part T ≠ O (q ∥ p+1, so the two
// projections exist: a ≡ 1 mod q, a ≡ 0 mod h picks out U_q).
func cofactorSplit(t *testing.T, c *curve.Curve) (uq, tors *curve.Point) {
	t.Helper()
	q, h := c.Q(), c.Cofactor()
	a := new(big.Int).ModInverse(h, q)
	a.Mul(a, h)
	for {
		r, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		uq = r.ScalarMul(a)
		tors = r.Add(uq.Neg())
		if !uq.IsInfinity() && !tors.IsInfinity() {
			if !uq.InSubgroup() || !tors.ScalarMul(h).IsInfinity() {
				t.Fatal("cofactor split is wrong")
			}
			return uq, tors
		}
	}
}

// TestCofactorCiphertextFailsValidity pins the other half of the relaxed
// boundary: a ciphertext whose U carries a cofactor component yields the
// honest g on both sides, and FullIdent's r·P = U check then refuses it.
func TestCofactorCiphertextFailsValidity(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{9}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(sem, alice, c); err != nil {
		t.Fatal(err)
	}
	_, tors := cofactorSplit(t, pkg.Public().Pairing.Curve())
	bad := *c
	bad.U = c.U.Add(tors)
	token, err := sem.Token("alice@example.com", bad.U)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UserDecrypt(pkg.Public(), alice, &bad, token); !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("ciphertext with a cofactor component in U: err = %v, want ErrTokenMismatch", err)
	}
}

func TestTokenSingleUse(t *testing.T) {
	// A token for ciphertext C1 must not open a different ciphertext C2
	// (the token is bound to U = H3(σ, M)·P).
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	m1 := bytes.Repeat([]byte{1}, msgLen)
	m2 := bytes.Repeat([]byte{2}, msgLen)
	c1, _ := pkg.Public().Encrypt(rand.Reader, "alice@example.com", m1)
	c2, _ := pkg.Public().Encrypt(rand.Reader, "alice@example.com", m2)

	token1, err := sem.Token("alice@example.com", c1.U)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UserDecrypt(pkg.Public(), alice, c2, token1); !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("token reuse across ciphertexts accepted: %v", err)
	}
	// The legitimate use still works.
	got, err := UserDecrypt(pkg.Public(), alice, c1, token1)
	if err != nil || !bytes.Equal(got, m1) {
		t.Fatalf("legitimate token use failed: %v", err)
	}
}

func TestTokenUselessToOtherUsers(t *testing.T) {
	// Alice's token must not help Bob decrypt anything of his own.
	pkg, sem := ibeFixture(t)
	enroll(t, pkg, sem, "alice@example.com")
	bob := enroll(t, pkg, sem, "bob@example.com")
	msgB := bytes.Repeat([]byte{9}, msgLen)
	cB, _ := pkg.Public().Encrypt(rand.Reader, "bob@example.com", msgB)
	// Token computed with Alice's SEM half over Bob's U.
	tokenA, err := sem.Token("alice@example.com", cB.U)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UserDecrypt(pkg.Public(), bob, cB, tokenA); !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("cross-identity token accepted: %v", err)
	}
}

func TestSEMCompromiseDoesNotBreakOtherUsers(t *testing.T) {
	// The paper's central security comparison (T4): Mallory corrupts the SEM
	// (learns every SEM half) — she can decrypt HER OWN traffic, but still
	// not Alice's, because she lacks Alice's user half.
	pkg, sem := ibeFixture(t)
	_, aliceSEMHalf, err := pkg.SplitExtract(rand.Reader, "alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	sem.Register(aliceSEMHalf)
	malloryUser, mallorySEMHalf, _ := pkg.SplitExtract(rand.Reader, "mallory@example.com")
	sem.Register(mallorySEMHalf)

	msg := bytes.Repeat([]byte{0x55}, msgLen)
	cAlice, _ := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)

	// Mallory + SEM: she can reassemble her own key…
	own, err := RecombineKey(malloryUser, mallorySEMHalf)
	if err != nil {
		t.Fatal(err)
	}
	cMallory, _ := pkg.Public().Encrypt(rand.Reader, "mallory@example.com", msg)
	if _, err := pkg.Public().Decrypt(own, cMallory); err != nil {
		t.Fatalf("colluders cannot even decrypt their own traffic: %v", err)
	}
	// …but Alice's SEM half alone does not decrypt Alice's ciphertext:
	// treating d_ID,sem as if it were the full key fails the validity check.
	bogus := &bf.PrivateKey{ID: "alice@example.com", D: aliceSEMHalf.D}
	if _, err := pkg.Public().Decrypt(bogus, cAlice); !errors.Is(err, bf.ErrInvalidCiphertext) {
		t.Fatalf("SEM half alone decrypted Alice's ciphertext: %v", err)
	}
	// And Mallory's full key is useless against Alice's ciphertext.
	if _, err := pkg.Public().Decrypt(own, cAlice); !errors.Is(err, bf.ErrInvalidCiphertext) {
		t.Fatalf("Mallory's key decrypted Alice's ciphertext: %v", err)
	}
}

func TestConcurrentTokens(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{7}, msgLen)
	done := make(chan error)
	for i := 0; i < 8; i++ {
		go func() {
			c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
			if err != nil {
				done <- err
				return
			}
			got, err := Decrypt(sem, alice, c)
			if err == nil && !bytes.Equal(got, msg) {
				err = errors.New("wrong plaintext")
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
