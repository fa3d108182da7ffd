package mrsa

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func testKey(t *testing.T) *KeyPair {
	t.Helper()
	kp, err := FixedTestKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func testPKG(t *testing.T) *IBPKG {
	t.Helper()
	pkg, err := FixedTestPKG()
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestFixedKeysAreSafePrimeProducts(t *testing.T) {
	for _, load := range []func() (*IBPKG, error){FixedTestPKG, FixedPaperPKG} {
		pkg, err := load()
		if err != nil {
			t.Fatal(err)
		}
		n := new(big.Int).Mul(pkg.p, pkg.q)
		if n.Cmp(pkg.n) != 0 {
			t.Fatal("modulus does not match primes")
		}
	}
	paper, _ := FixedPaperPKG()
	if got := paper.Modulus().BitLen(); got != 1024 {
		t.Fatalf("paper modulus is %d bits, want 1024", got)
	}
}

func TestGenerateKeyPair(t *testing.T) {
	kp, err := GenerateKeyPair(rand.Reader, 512, false)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Public.N.BitLen() != 512 {
		t.Fatalf("modulus %d bits, want 512", kp.Public.N.BitLen())
	}
	// e·d ≡ 1 mod φ
	check := new(big.Int).Mul(kp.Public.E, kp.D)
	check.Mod(check, kp.Phi)
	if check.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("e·d ≠ 1 mod φ(n)")
	}
}

func TestOAEPRoundTrip(t *testing.T) {
	kp := testKey(t)
	msg := []byte("hello, OAEP")
	c, err := kp.Public.EncryptOAEP(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != kp.Public.ModulusBytes() {
		t.Fatalf("ciphertext %d bytes, want %d", len(c), kp.Public.ModulusBytes())
	}
	got, err := kp.DecryptOAEP(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestOAEPRejectsTamperedCiphertext(t *testing.T) {
	kp := testKey(t)
	c, _ := kp.Public.EncryptOAEP(rand.Reader, []byte("x"))
	c[len(c)-1] ^= 1
	if _, err := kp.DecryptOAEP(c); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered ciphertext accepted: %v", err)
	}
	if _, err := kp.DecryptOAEP(c[:10]); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated ciphertext accepted: %v", err)
	}
}

func TestOAEPMessageTooLong(t *testing.T) {
	kp := testKey(t)
	long := make([]byte, kp.Public.MaxMessageLen()+1)
	if _, err := kp.Public.EncryptOAEP(rand.Reader, long); err == nil {
		t.Fatal("oversized message accepted")
	}
	max := make([]byte, kp.Public.MaxMessageLen())
	if _, err := kp.Public.EncryptOAEP(rand.Reader, max); err != nil {
		t.Fatalf("max-size message rejected: %v", err)
	}
}

func TestOAEPEncryptionRandomized(t *testing.T) {
	kp := testKey(t)
	c1, _ := kp.Public.EncryptOAEP(rand.Reader, []byte("m"))
	c2, _ := kp.Public.EncryptOAEP(rand.Reader, []byte("m"))
	if bytes.Equal(c1, c2) {
		t.Fatal("OAEP must be randomized")
	}
}

func TestSignVerify(t *testing.T) {
	kp := testKey(t)
	msg := []byte("sign me")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Public.Verify(msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := kp.Public.Verify([]byte("other"), sig); !errors.Is(err, ErrVerify) {
		t.Fatalf("wrong-message signature accepted: %v", err)
	}
	sig[0] ^= 1
	if err := kp.Public.Verify(msg, sig); !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupted signature accepted: %v", err)
	}
}

func TestMediatedSplitCompleteness(t *testing.T) {
	kp := testKey(t)
	user, sem, err := Split(rand.Reader, kp)
	if err != nil {
		t.Fatal(err)
	}
	// c^{d_u}·c^{d_sem} must equal c^d for random c.
	c, _ := rand.Int(rand.Reader, kp.Public.N)
	full := new(big.Int).Exp(c, kp.D, kp.Public.N)
	combined := user.Combine(c, sem.Op(c))
	if full.Cmp(combined) != 0 {
		t.Fatal("half operations do not compose to the full exponentiation")
	}
}

func TestMediatedDecrypt(t *testing.T) {
	kp := testKey(t)
	user, sem, _ := Split(rand.Reader, kp)
	msg := []byte("mediated hello")
	c, _ := kp.Public.EncryptOAEP(rand.Reader, msg)
	got, err := mediatedDecrypt(kp.Public, user, sem, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("mediated decrypt got %q, want %q", got, msg)
	}
}

func TestMediatedDecryptRejectsGarbage(t *testing.T) {
	kp := testKey(t)
	user, sem, _ := Split(rand.Reader, kp)
	junk := make([]byte, kp.Public.ModulusBytes())
	for i := range junk {
		junk[i] = 0xFF
	}
	if _, err := mediatedDecrypt(kp.Public, user, sem, junk); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("c ≥ n accepted: %v", err)
	}
	if _, err := mediatedDecrypt(kp.Public, user, sem, junk[:4]); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("short ciphertext accepted: %v", err)
	}
}

// mediatedDecrypt is the two-party decryption with both halves in hand: the
// SEM's half computed in place, then the user's side, CombineDecrypt.
func mediatedDecrypt(pub *PublicKey, user, sem *mathx.ExpHalf, ciphertext []byte) ([]byte, error) {
	c, err := pub.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	return CombineDecrypt(pub, user, c, sem.Op(c))
}

func TestHalfAloneCannotDecrypt(t *testing.T) {
	kp := testKey(t)
	user, _, _ := Split(rand.Reader, kp)
	msg := []byte("secret")
	c, _ := kp.Public.EncryptOAEP(rand.Reader, msg)
	ci := new(big.Int).SetBytes(c)
	half := user.Op(ci)
	// The half-result alone must not OAEP-decode.
	em := make([]byte, kp.Public.ModulusBytes())
	half.FillBytes(em)
	if _, err := oaepDecode(em, nil, len(em)); err == nil {
		t.Fatal("a single half decrypted the ciphertext")
	}
}

func TestMediatedSignature(t *testing.T) {
	kp := testKey(t)
	user, sem, _ := Split(rand.Reader, kp)
	msg := []byte("mediated signature")
	m, err := EMSA(msg, kp.Public.N)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := CombineSignature(kp.Public, user, msg, sem.Op(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Public.Verify(msg, sig); err != nil {
		t.Fatalf("mediated signature invalid: %v", err)
	}
	// Signature must match the unsplit one (RSA is deterministic).
	direct, _ := kp.Sign(msg)
	if !bytes.Equal(sig, direct) {
		t.Fatal("mediated and direct signatures differ")
	}
}

func TestFinishSignatureDetectsBadHalf(t *testing.T) {
	kp := testKey(t)
	user, sem, _ := Split(rand.Reader, kp)
	msg := []byte("m")
	m, _ := EMSA(msg, kp.Public.N)
	hs := sem.Op(m)
	hs.Add(hs, big.NewInt(1))
	if _, err := CombineSignature(kp.Public, user, msg, hs); err == nil {
		t.Fatal("corrupted SEM half produced a valid signature")
	}
}

func TestIdentityExponent(t *testing.T) {
	e := IdentityExponent("alice@example.com")
	if e.Bit(0) != 1 {
		t.Fatal("identity exponent must be odd")
	}
	if e.BitLen() > 257 {
		t.Fatalf("identity exponent too wide: %d bits", e.BitLen())
	}
	if IdentityExponent("alice@example.com").Cmp(e) != 0 {
		t.Fatal("identity exponent not deterministic")
	}
	if IdentityExponent("bob@example.com").Cmp(e) == 0 {
		t.Fatal("distinct identities map to the same exponent")
	}
}

func TestIBmRSARoundTrip(t *testing.T) {
	pkg := testPKG(t)
	id := "alice@example.com"
	user, sem, err := pkg.IssueHalves(rand.Reader, id)
	if err != nil {
		t.Fatal(err)
	}
	pub := pkg.IdentityPublicKey(id)
	msg := []byte("identity based hello")
	c, err := pub.EncryptOAEP(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mediatedDecrypt(pub, user, sem, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("IB-mRSA decrypt got %q, want %q", got, msg)
	}
}

func TestIBmRSASignature(t *testing.T) {
	pkg := testPKG(t)
	id := "signer@example.com"
	user, sem, _ := pkg.IssueHalves(rand.Reader, id)
	pub := pkg.IdentityPublicKey(id)
	msg := []byte("identity based signature")
	m, _ := EMSA(msg, pub.N)
	sig, err := CombineSignature(pub, user, msg, sem.Op(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("IB-mRSA signature invalid: %v", err)
	}
}

func TestIBmRSADistinctUsersShareModulus(t *testing.T) {
	pkg := testPKG(t)
	pa := pkg.IdentityPublicKey("a@x")
	pb := pkg.IdentityPublicKey("b@x")
	if pa.N.Cmp(pb.N) != 0 {
		t.Fatal("IB-mRSA must use a common modulus")
	}
	if pa.E.Cmp(pb.E) == 0 {
		t.Fatal("distinct identities got the same exponent")
	}
}

func TestFactorFromED(t *testing.T) {
	// The paper's "total break" claim: reassembling one user's (e, d) over
	// the common modulus factors it.
	pkg := testPKG(t)
	id := "victim@example.com"
	e := IdentityExponent(id)
	d, err := pkg.FullExponent(id)
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := FactorFromED(rand.Reader, pkg.Modulus(), e, d)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	if n.Cmp(pkg.Modulus()) != 0 {
		t.Fatal("recovered factors do not multiply to n")
	}
	// With the factorization, the attacker derives any other user's key.
	otherE := IdentityExponent("other@example.com")
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	phi := new(big.Int).Mul(pm1, qm1)
	otherD := new(big.Int).ModInverse(otherE, phi)
	if otherD == nil {
		t.Fatal("could not derive other user's exponent")
	}
	wantD, _ := pkg.FullExponent("other@example.com")
	if otherD.Cmp(wantD) != 0 {
		t.Fatal("attacker-derived exponent mismatch")
	}
}

func TestFactorFromEDRejectsNonsense(t *testing.T) {
	if _, _, err := FactorFromED(rand.Reader, big.NewInt(35), big.NewInt(1), big.NewInt(1)); err == nil {
		t.Fatal("e·d = 1 must be rejected")
	}
}

func TestIBPKGValidation(t *testing.T) {
	if _, err := NewIBPKGFromPrimes(big.NewInt(17), big.NewInt(23)); err == nil {
		t.Fatal("non-safe prime accepted")
	}
	if _, err := NewIBPKGFromPrimes(big.NewInt(23), big.NewInt(23)); err == nil {
		t.Fatal("equal primes accepted")
	}
}

func TestQuickOAEPRoundTrip(t *testing.T) {
	kp := testKey(t)
	cfg := &quick.Config{MaxCount: 15}
	property := func(raw []byte) bool {
		if len(raw) > kp.Public.MaxMessageLen() {
			raw = raw[:kp.Public.MaxMessageLen()]
		}
		c, err := kp.Public.EncryptOAEP(rand.Reader, raw)
		if err != nil {
			return false
		}
		got, err := kp.DecryptOAEP(c)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplitCompleteness(t *testing.T) {
	kp := testKey(t)
	cfg := &quick.Config{MaxCount: 10}
	property := func(seed uint64) bool {
		user, sem, err := Split(rand.Reader, kp)
		if err != nil {
			return false
		}
		c := new(big.Int).SetUint64(seed | 2)
		full := new(big.Int).Exp(c, kp.D, kp.Public.N)
		return full.Cmp(user.Combine(c, sem.Op(c))) == 0
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
