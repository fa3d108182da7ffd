package gm

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

func testKey(t *testing.T) *PrivateKey {
	t.Helper()
	// Fixed small Blum primes (≡ 3 mod 4) keep the suite fast.
	p, _ := new(big.Int).SetString("dd6abb53e8b9cfa3a99600683c141a8f", 16)
	q, _ := new(big.Int).SetString("d1ad296f648dd92aecd8a08056be2f5b", 16)
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 3 || new(big.Int).Mod(q, big.NewInt(4)).Int64() != 3 {
		t.Fatal("fixture primes are not Blum primes")
	}
	sk, err := KeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestGenerateKey(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Public.N.BitLen() != 128 && sk.Public.N.BitLen() != 127 {
		t.Fatalf("modulus %d bits", sk.Public.N.BitLen())
	}
	// y must be a Jacobi-(+1) non-residue: encrypting 1 and decrypting
	// must give 1.
	c, err := sk.Public.EncryptBit(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := sk.DecryptBit(c)
	if err != nil {
		t.Fatal(err)
	}
	if bit != 1 {
		t.Fatal("pseudosquare is not a non-residue")
	}
}

func TestKeyFromPrimesValidation(t *testing.T) {
	if _, err := KeyFromPrimes(big.NewInt(13), big.NewInt(7)); !errors.Is(err, ErrKeygen) {
		t.Errorf("p ≡ 1 mod 4 accepted: %v", err)
	}
	if _, err := KeyFromPrimes(big.NewInt(15), big.NewInt(7)); !errors.Is(err, ErrKeygen) {
		t.Errorf("composite accepted: %v", err)
	}
	if _, err := KeyFromPrimes(big.NewInt(7), big.NewInt(7)); !errors.Is(err, ErrKeygen) {
		t.Errorf("equal primes accepted: %v", err)
	}
}

func TestBitRoundTrip(t *testing.T) {
	sk := testKey(t)
	for _, bit := range []byte{0, 1} {
		for i := 0; i < 16; i++ {
			c, err := sk.Public.EncryptBit(rand.Reader, bit)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.DecryptBit(c)
			if err != nil {
				t.Fatal(err)
			}
			if got != bit {
				t.Fatalf("bit %d decrypted as %d", bit, got)
			}
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	sk := testKey(t)
	msg := []byte("GM!")
	cs, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(msg)*8 {
		t.Fatalf("ciphertext has %d elements, want %d", len(cs), len(msg)*8)
	}
	got, err := sk.Decrypt(cs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestEncryptionRandomized(t *testing.T) {
	sk := testKey(t)
	c1, _ := sk.Public.EncryptBit(rand.Reader, 0)
	c2, _ := sk.Public.EncryptBit(rand.Reader, 0)
	if c1.Cmp(c2) == 0 {
		t.Fatal("GM must be probabilistic")
	}
}

func TestMediatedDecrypt(t *testing.T) {
	sk := testKey(t)
	user, sem, err := Split(rand.Reader, sk)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte{0b10110010, 0xFF, 0x00}
	cs, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MediatedDecrypt(sk.Public, user, sem, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("mediated decrypt got %x, want %x", got, msg)
	}
}

func TestSplitCompleteness(t *testing.T) {
	sk := testKey(t)
	user, sem, _ := Split(rand.Reader, sk)
	c, _ := sk.Public.EncryptBit(rand.Reader, 1)
	full := new(big.Int).Exp(c, sk.D, sk.Public.N)
	combined := new(big.Int).Mul(user.Op(c), sem.Op(c))
	combined.Mod(combined, sk.Public.N)
	if full.Cmp(combined) != 0 {
		t.Fatal("halves do not compose to the residuosity exponent")
	}
}

func TestHalfAloneIsUseless(t *testing.T) {
	// One half-result is a random-looking unit: interpreting it as the
	// residuosity value fails (it is neither +1 nor −1 except with
	// negligible probability).
	sk := testKey(t)
	user, _, _ := Split(rand.Reader, sk)
	c, _ := sk.Public.EncryptBit(rand.Reader, 1)
	t1 := user.Op(c)
	if _, err := interpretResiduosity(t1, sk.Public.N); err == nil {
		t.Fatal("a single half decided the residuosity")
	}
}

func TestDecryptRejectsMalformed(t *testing.T) {
	sk := testKey(t)
	// Jacobi −1 element.
	x := big.NewInt(2)
	for big.Jacobi(x, sk.Public.N) != -1 {
		x.Add(x, big.NewInt(1))
	}
	if _, err := sk.DecryptBit(x); !errors.Is(err, ErrDecrypt) {
		t.Errorf("Jacobi −1 element accepted: %v", err)
	}
	if _, err := sk.DecryptBit(big.NewInt(0)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("zero accepted: %v", err)
	}
	if _, err := sk.DecryptBit(sk.Public.N); !errors.Is(err, ErrDecrypt) {
		t.Errorf("out-of-range element accepted: %v", err)
	}
	if _, err := sk.Decrypt([]*big.Int{big.NewInt(1)}); !errors.Is(err, ErrDecrypt) {
		t.Errorf("non-multiple-of-8 ciphertext accepted: %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	sk := testKey(t)
	user, sem, _ := Split(rand.Reader, sk)
	cfg := &quick.Config{MaxCount: 8}
	property := func(raw [2]byte) bool {
		msg := raw[:]
		cs, err := sk.Public.Encrypt(rand.Reader, msg)
		if err != nil {
			return false
		}
		direct, err := sk.Decrypt(cs)
		if err != nil || !bytes.Equal(direct, msg) {
			return false
		}
		mediated, err := MediatedDecrypt(sk.Public, user, sem, cs)
		return err == nil && bytes.Equal(mediated, msg)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCombineChecksEveryElement(t *testing.T) {
	// The SEM's half-results alone are no licence: Combine refuses an
	// element DecryptBit would refuse, even one congruent to an honest
	// encryption (c + n decrypts like c if only the residue is looked at).
	sk := testKey(t)
	user, sem, err := Split(nil, sk)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sk.Public.Encrypt(rand.Reader, []byte{0x5a})
	if err != nil {
		t.Fatal(err)
	}
	semParts := func(cs []*big.Int) []*big.Int {
		out := make([]*big.Int, len(cs))
		for i, c := range cs {
			out[i] = sem.Op(c)
		}
		return out
	}
	if got, err := Combine(sk.Public, user, cs, semParts(cs)); err != nil || !bytes.Equal(got, []byte{0x5a}) {
		t.Fatalf("honest ciphertext: %x, %v", got, err)
	}
	bad := append([]*big.Int(nil), cs...)
	bad[3] = new(big.Int).Add(cs[3], sk.Public.N)
	if _, err := Combine(sk.Public, user, bad, semParts(bad)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("element ≥ n combined: %v", err)
	}
	if _, err := Combine(sk.Public, user, cs, semParts(cs)[1:]); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short SEM response combined: %v", err)
	}
}
