package rabin

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// Fixed 128-bit Blum primes (shared with internal/gm's fixtures' sizes).
const (
	fixP = "dd6abb53e8b9cfa3a99600683c141a8f"
	fixQ = "d1ad296f648dd92aecd8a08056be2f5b"
)

func testKey(t *testing.T) *PrivateKey {
	t.Helper()
	p, _ := new(big.Int).SetString(fixP, 16)
	q, _ := new(big.Int).SetString(fixQ, 16)
	sk, err := KeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestKeyFromPrimesValidation(t *testing.T) {
	if _, err := KeyFromPrimes(big.NewInt(13), big.NewInt(7)); !errors.Is(err, ErrKeygen) {
		t.Errorf("p ≡ 1 mod 4 accepted: %v", err)
	}
	if _, err := KeyFromPrimes(big.NewInt(7), big.NewInt(7)); !errors.Is(err, ErrKeygen) {
		t.Errorf("equal primes accepted: %v", err)
	}
}

func TestExponentIsSquareRoot(t *testing.T) {
	// For random x, c = x² must have c^d as a square root.
	sk := testKey(t)
	for i := 0; i < 10; i++ {
		x, err := rand.Int(rand.Reader, sk.Public.N)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() == 0 {
			continue
		}
		c := new(big.Int).Mul(x, x)
		c.Mod(c, sk.Public.N)
		s := new(big.Int).Exp(c, sk.D, sk.Public.N)
		check := new(big.Int).Mul(s, s)
		check.Mod(check, sk.Public.N)
		if check.Cmp(c) != 0 {
			t.Fatalf("(c^d)² ≠ c for x = %v", x)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	msg := []byte("saep!")
	ct, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestEncryptRandomized(t *testing.T) {
	sk := testKey(t)
	c1, _ := sk.Public.Encrypt(rand.Reader, []byte("m"))
	c2, _ := sk.Public.Encrypt(rand.Reader, []byte("m"))
	if bytes.Equal(c1, c2) {
		t.Fatal("SAEP encryption must be randomized")
	}
}

func TestEncryptRejectsLongMessage(t *testing.T) {
	sk := testKey(t)
	long := make([]byte, sk.Public.MaxMessageLen()+1)
	if _, err := sk.Public.Encrypt(rand.Reader, long); !errors.Is(err, ErrMessageLength) {
		t.Fatalf("oversized message accepted: %v", err)
	}
	max := make([]byte, sk.Public.MaxMessageLen())
	if _, err := sk.Public.Encrypt(rand.Reader, max); err != nil {
		t.Fatalf("max message rejected: %v", err)
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	sk := testKey(t)
	junk := make([]byte, sk.Public.ModulusBytes())
	for i := range junk {
		junk[i] = 0xFF
	}
	if _, err := sk.Decrypt(junk, 4); !errors.Is(err, ErrDecrypt) {
		t.Errorf("c ≥ n accepted: %v", err)
	}
	if _, err := sk.Decrypt(junk[:3], 4); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short ciphertext accepted: %v", err)
	}
	// Tampered ciphertext: either not a QR (root check fails) or SAEP
	// redundancy fails.
	ct, _ := sk.Public.Encrypt(rand.Reader, []byte("m"))
	ct[len(ct)-1] ^= 1
	if _, err := sk.Decrypt(ct, 1); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered ciphertext accepted: %v", err)
	}
}

func TestMediatedDecrypt(t *testing.T) {
	sk := testKey(t)
	user, sem, err := Split(rand.Reader, sk)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("med-rab")
	ct, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mediatedDecrypt(sk.Public, user, sem, ct, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("mediated decrypt got %q, want %q", got, msg)
	}
	// n − c is a non-residue whose computed root ±c^d squares to c, not to
	// n − c, and passes the SAEP decoder: only the check s² ≡ c refuses it,
	// in both the unsplit decryption and the user's completion.
	c, err := sk.Public.ParseCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := mathx.PadBytes(new(big.Int).Sub(sk.Public.N, c), sk.Public.ModulusBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.Decrypt(neg, len(msg)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("n − c decrypted to %q (%v)", got, err)
	}
	if got, err := mediatedDecrypt(sk.Public, user, sem, neg, len(msg)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("n − c combined to %q (%v)", got, err)
	}
}

func TestSignVerify(t *testing.T) {
	sk := testKey(t)
	msg := []byte("rabin signature")
	sig, err := sk.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Public.Verify(msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := sk.Public.Verify([]byte("other"), sig); !errors.Is(err, ErrVerify) {
		t.Fatalf("wrong message accepted: %v", err)
	}
	bad := &Signature{S: new(big.Int).Add(sig.S, big.NewInt(1)), Ctr: sig.Ctr}
	if err := sk.Public.Verify(msg, bad); !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupted signature accepted: %v", err)
	}
	if err := sk.Public.Verify(msg, nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("nil signature accepted: %v", err)
	}
	// A signature under a mismatched counter fails (hash differs).
	wrongCtr := &Signature{S: sig.S, Ctr: sig.Ctr + 1}
	if err := sk.Public.Verify(msg, wrongCtr); !errors.Is(err, ErrVerify) {
		t.Fatalf("wrong counter accepted: %v", err)
	}
}

// mediatedDecrypt is the two-party decryption with both halves in hand: the
// SEM's half computed in place, then the user's side, CombineDecrypt.
func mediatedDecrypt(pk *PublicKey, user, sem *mathx.ExpHalf, ciphertext []byte, msgLen int) ([]byte, error) {
	c, err := pk.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	return CombineDecrypt(pk, user, c, sem.Op(c), msgLen)
}

func TestMediatedSignature(t *testing.T) {
	sk := testKey(t)
	user, sem, _ := Split(rand.Reader, sk)
	msg := []byte("mediated rabin signature")
	var sig *Signature
	for ctr := uint32(0); ctr < 128; ctr++ {
		h := HashToJacobiPlus(sk.Public.N, msg, ctr)
		s, err := CombineSignature(sk.Public, user, msg, ctr, sem.Op(h))
		if errors.Is(err, ErrSignRetry) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sig = s
		break
	}
	if sig == nil {
		t.Fatal("no QR counter found")
	}
	if err := sk.Public.Verify(msg, sig); err != nil {
		t.Fatalf("mediated signature invalid: %v", err)
	}
	// Mediated and direct signatures agree up to sign for the same ctr
	// (the exponentiation is deterministic); verify interchangeably.
	direct, err := sk.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Public.Verify(msg, direct); err != nil {
		t.Fatal(err)
	}
}

func TestHashToJacobiPlus(t *testing.T) {
	sk := testKey(t)
	h1 := HashToJacobiPlus(sk.Public.N, []byte("m"), 0)
	if big.Jacobi(h1, sk.Public.N) != 1 {
		t.Fatal("hash does not have Jacobi symbol +1")
	}
	h2 := HashToJacobiPlus(sk.Public.N, []byte("m"), 0)
	if h1.Cmp(h2) != 0 {
		t.Fatal("hash not deterministic")
	}
	h3 := HashToJacobiPlus(sk.Public.N, []byte("m"), 1)
	if h1.Cmp(h3) == 0 {
		t.Fatal("different counters gave the same hash")
	}
}

func TestGenerateKey(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("k")
	ct, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct, 1)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("fresh key round trip: %q %v", got, err)
	}
}

func TestQuickRoundTrips(t *testing.T) {
	sk := testKey(t)
	user, sem, _ := Split(rand.Reader, sk)
	cfg := &quick.Config{MaxCount: 10}
	property := func(raw [4]byte) bool {
		msg := raw[:]
		ct, err := sk.Public.Encrypt(rand.Reader, msg)
		if err != nil {
			return false
		}
		d1, err := sk.Decrypt(ct, len(msg))
		if err != nil || !bytes.Equal(d1, msg) {
			return false
		}
		d2, err := mediatedDecrypt(sk.Public, user, sem, ct, len(msg))
		return err == nil && bytes.Equal(d2, msg)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
