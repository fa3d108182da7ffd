package bf

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/pairing"
)

const msgLen = 32

func setup(t *testing.T) (*PKG, *PublicParams) {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Setup(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, pkg.Public()
}

func TestSetupValidation(t *testing.T) {
	pp, _ := pairing.Toy()
	if _, err := Setup(rand.Reader, pp, 0); err == nil {
		t.Error("zero message length accepted")
	}
	if _, err := SetupWithMaster(pp, big.NewInt(0), msgLen); err == nil {
		t.Error("zero master key accepted")
	}
	if _, err := SetupWithMaster(pp, pp.Q(), msgLen); err == nil {
		t.Error("master key ≡ 0 mod q accepted")
	}
}

func TestBasicRoundTrip(t *testing.T) {
	pkg, pub := setup(t)
	key, err := pkg.Extract("alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("attack at dawn, bring the cheese")
	c, err := pub.EncryptBasic(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pub.DecryptBasic(key, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestBasicWrongKeyGarbles(t *testing.T) {
	pkg, pub := setup(t)
	keyBob, _ := pkg.Extract("bob@example.com")
	msg := bytes.Repeat([]byte{0x42}, msgLen)
	c, _ := pub.EncryptBasic(rand.Reader, "alice@example.com", msg)
	got, err := pub.DecryptBasic(keyBob, c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("Bob's key decrypted Alice's BasicIdent ciphertext")
	}
}

func TestBasicIsMalleable(t *testing.T) {
	// The paper relies on BasicIdent's malleability to motivate FullIdent:
	// flipping bit i of V flips bit i of the plaintext.
	pkg, pub := setup(t)
	key, _ := pkg.Extract("alice@example.com")
	msg := bytes.Repeat([]byte{0x00}, msgLen)
	c, _ := pub.EncryptBasic(rand.Reader, "alice@example.com", msg)
	c.V[0] ^= 0x01
	got, err := pub.DecryptBasic(key, c)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0x01}, msg[1:]...)
	if !bytes.Equal(got, want) {
		t.Fatal("BasicIdent is expected to be malleable bit-for-bit")
	}
}

func TestFullRoundTrip(t *testing.T) {
	pkg, pub := setup(t)
	key, err := pkg.Extract("alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("attack at dawn, bring the cheese")
	c, err := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pub.Decrypt(key, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestFullRejectsMauledCiphertext(t *testing.T) {
	pkg, pub := setup(t)
	key, _ := pkg.Extract("alice@example.com")
	msg := bytes.Repeat([]byte{7}, msgLen)
	c, _ := pub.Encrypt(rand.Reader, "alice@example.com", msg)

	mauledV := &Ciphertext{U: c.U, V: bytes.Clone(c.V), W: bytes.Clone(c.W)}
	mauledV.V[0] ^= 1
	if _, err := pub.Decrypt(key, mauledV); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("mauled V accepted: %v", err)
	}
	mauledW := &Ciphertext{U: c.U, V: bytes.Clone(c.V), W: bytes.Clone(c.W)}
	mauledW.W[3] ^= 0x80
	if _, err := pub.Decrypt(key, mauledW); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("mauled W accepted: %v", err)
	}
	mauledU := &Ciphertext{U: c.U.Double(), V: bytes.Clone(c.V), W: bytes.Clone(c.W)}
	if _, err := pub.Decrypt(key, mauledU); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("mauled U accepted: %v", err)
	}
}

func TestFullWrongIdentityRejected(t *testing.T) {
	pkg, pub := setup(t)
	keyBob, _ := pkg.Extract("bob@example.com")
	msg := bytes.Repeat([]byte{7}, msgLen)
	c, _ := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	if _, err := pub.Decrypt(keyBob, c); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("Bob's key decrypting Alice's ciphertext: %v", err)
	}
}

func TestMessageLengthEnforced(t *testing.T) {
	pkg, pub := setup(t)
	if _, err := pub.Encrypt(rand.Reader, "x", []byte("short")); !errors.Is(err, ErrMessageLength) {
		t.Errorf("short message accepted: %v", err)
	}
	if _, err := pub.EncryptBasic(rand.Reader, "x", make([]byte, msgLen+1)); !errors.Is(err, ErrMessageLength) {
		t.Errorf("long message accepted: %v", err)
	}
	key, err := pkg.Extract("x")
	if err != nil {
		t.Fatal(err)
	}
	c, err := pub.EncryptBasic(rand.Reader, "x", make([]byte, msgLen))
	if err != nil {
		t.Fatal(err)
	}
	c.V = c.V[1:]
	if got, err := pub.DecryptBasic(key, c); !errors.Is(err, ErrMessageLength) {
		t.Errorf("short body opened to %x (%v)", got, err)
	}
}

func TestExtractDeterministic(t *testing.T) {
	pkg, _ := setup(t)
	k1, err := pkg.Extract("carol@example.com")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pkg.Extract("carol@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.D.Equal(k2.D) {
		t.Fatal("extraction is not deterministic")
	}
}

func TestExtractConsistency(t *testing.T) {
	// d_ID must satisfy ê(P, d_ID) = ê(P_pub, Q_ID) — the share-check
	// equation from the paper with t = 1.
	pkg, pub := setup(t)
	key, _ := pkg.Extract("dave@example.com")
	qid, _ := HashIdentity(pub.Pairing, "dave@example.com")
	lhs, err := pub.Pairing.Pair(pub.Pairing.Generator(), key.D)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := pub.Pairing.Pair(pub.PPub, qid)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.Equal(rhs) {
		t.Fatal("extracted key fails pairing consistency check")
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	pkg, pub := setup(t)
	key, _ := pkg.Extract("alice@example.com")
	msg := bytes.Repeat([]byte{0xAB}, msgLen)
	c, _ := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	data := c.Marshal()
	c2, err := pub.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pub.Decrypt(key, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round-tripped ciphertext failed to decrypt")
	}
	if _, err := pub.UnmarshalCiphertext(data[:len(data)-1]); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	pkg, pub := setup(t)
	key, _ := pkg.Extract("alice@example.com")
	data := key.Marshal()
	k2, err := pub.UnmarshalPrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if k2.ID != key.ID || !k2.D.Equal(key.D) {
		t.Fatal("private key round trip mismatch")
	}
	if _, err := pub.UnmarshalPrivateKey(data[:2]); err == nil {
		t.Fatal("truncated key accepted")
	}
	if _, err := pub.UnmarshalPrivateKey(append(data, 0)); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestDeriveRInRange(t *testing.T) {
	pp, _ := pairing.Toy()
	q := pp.Q()
	for i := 0; i < 50; i++ {
		sigma := []byte{byte(i)}
		r := deriveR(sigma, []byte("m"), q)
		if r.Sign() <= 0 || r.Cmp(q) >= 0 {
			t.Fatalf("r = %v outside [1, q)", r)
		}
	}
}

func TestCiphertextsRandomized(t *testing.T) {
	_, pub := setup(t)
	msg := bytes.Repeat([]byte{1}, msgLen)
	c1, _ := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	c2, _ := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	if c1.U.Equal(c2.U) {
		t.Fatal("two encryptions shared the same U (randomness reuse)")
	}
}

func TestQuickFullIdentRoundTrip(t *testing.T) {
	pkg, pub := setup(t)
	key, _ := pkg.Extract("quick@example.com")
	cfg := &quick.Config{MaxCount: 10}
	property := func(raw [msgLen]byte) bool {
		msg := raw[:]
		c, err := pub.Encrypt(rand.Reader, "quick@example.com", msg)
		if err != nil {
			return false
		}
		got, err := pub.Decrypt(key, c)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
