// Package mrsa implements the paper's baseline from scratch: textbook RSA
// key generation (including the safe primes mediated RSA requires), OAEP
// padding, the mediated-RSA additive key split of Boneh-Ding-Tsudik-Wong,
// the identity based IB-mRSA variant, PKCS#1-v1.5-style mediated signatures,
// and the common-modulus attack (FactorFromED) that makes the paper's T4
// collusion claim executable.
//
// None of this is intended for production use — it exists so the mediated
// pairing schemes can be benchmarked against exactly the baseline the paper
// compares with, using the same measurement harness.
//
//cryptolint:vartime (legacy math/big scheme implementation; the limb discipline does not apply)
package mrsa

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/mathx"
)

var (
	// ErrKeySize is returned when a modulus is too small for OAEP.
	ErrKeySize = errors.New("mrsa: modulus too small")

	// ErrDecrypt is returned on RSA-OAEP decryption failure.
	ErrDecrypt = errors.New("mrsa: decryption error")

	// ErrVerify is returned when a signature does not verify.
	ErrVerify = errors.New("mrsa: invalid signature")

	// ErrFactorFailed is returned when the (e, d) factoring attack
	// exhausts its attempts (probability ≈ 2^−attempts for valid inputs).
	ErrFactorFailed = errors.New("mrsa: factoring from (e, d) failed")
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// PublicKey is an RSA public key (n, e).
type PublicKey struct {
	N *big.Int
	E *big.Int
}

// KeyPair is a full RSA key with its factorization retained (the PKG and
// the attack demonstrations need φ(n)).
//
//cryptolint:secret
type KeyPair struct {
	Public *PublicKey //cryptolint:public
	D      *big.Int
	P, Q   *big.Int
	Phi    *big.Int
}

// GenerateKeyPair creates an RSA key pair with a modulus of the given bit
// size and public exponent 65537. When safe is true, both primes are safe
// primes (p = 2p′+1), as the IB-mRSA setup in the paper requires.
func GenerateKeyPair(rng io.Reader, bits int, safe bool) (*KeyPair, error) {
	p, q, err := generatePrimes(rng, bits, safe)
	if err != nil {
		return nil, err
	}
	return keyFromPrimes(p, q, big.NewInt(65537))
}

// KeyFromPrimes assembles a key pair from explicit primes and exponent
// (used by the embedded fixed keys and by tests).
func KeyFromPrimes(p, q, e *big.Int) (*KeyPair, error) {
	return keyFromPrimes(new(big.Int).Set(p), new(big.Int).Set(q), new(big.Int).Set(e))
}

func generatePrimes(rng io.Reader, bits int, safe bool) (p, q *big.Int, err error) {
	gen := func(b int) (*big.Int, error) {
		if safe {
			return mathx.RandomSafePrime(rng, b)
		}
		return mathx.RandomPrime(rng, b)
	}
	for {
		p, err = gen(bits / 2)
		if err != nil {
			return nil, nil, err
		}
		q, err = gen(bits - bits/2)
		if err != nil {
			return nil, nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() == bits {
			return p, q, nil
		}
	}
}

func keyFromPrimes(p, q, e *big.Int) (*KeyPair, error) {
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)
	d, err := mathx.InverseMod(e, phi)
	if err != nil {
		return nil, fmt.Errorf("mrsa: e = %v not invertible mod φ(n): %w", e, err)
	}
	return &KeyPair{
		Public: &PublicKey{N: n, E: new(big.Int).Set(e)},
		D:      d,
		P:      p,
		Q:      q,
		Phi:    phi,
	}, nil
}

// ModulusBytes returns the modulus size k in bytes.
func (pk *PublicKey) ModulusBytes() int { return (pk.N.BitLen() + 7) / 8 }

// MaxMessageLen returns the largest OAEP plaintext the key can carry.
func (pk *PublicKey) MaxMessageLen() int { return pk.ModulusBytes() - 2*hashLen - 2 }

// EncryptOAEP performs RSA-OAEP encryption with an empty label.
func (pk *PublicKey) EncryptOAEP(rng io.Reader, msg []byte) ([]byte, error) {
	k := pk.ModulusBytes()
	if k < 2*hashLen+2 {
		return nil, ErrKeySize
	}
	em, err := oaepEncode(rng, msg, nil, k)
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(em)
	c := new(big.Int).Exp(m, pk.E, pk.N)
	return mathx.PadBytes(c, k)
}

// DecryptOAEP performs full (non-mediated) RSA-OAEP decryption.
func (kp *KeyPair) DecryptOAEP(ciphertext []byte) ([]byte, error) {
	c, err := kp.Public.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	return kp.Public.openOAEP(new(big.Int).Exp(c, kp.D, kp.Public.N))
}

// ParseCiphertext validates an OAEP ciphertext's wire form: exactly
// ModulusBytes long, and below n.
func (pk *PublicKey) ParseCiphertext(ciphertext []byte) (*big.Int, error) {
	if len(ciphertext) != pk.ModulusBytes() {
		return nil, ErrDecrypt
	}
	c := new(big.Int).SetBytes(ciphertext)
	if c.Cmp(pk.N) >= 0 {
		return nil, ErrDecrypt
	}
	return c, nil
}

// openOAEP decodes m = c^d mod n, however it was assembled, as an OAEP
// encoding.
func (pk *PublicKey) openOAEP(m *big.Int) ([]byte, error) {
	k := pk.ModulusBytes()
	em, err := mathx.PadBytes(m, k)
	if err != nil {
		return nil, ErrDecrypt
	}
	msg, err := oaepDecode(em, nil, k)
	if err != nil {
		return nil, ErrDecrypt
	}
	return msg, nil
}

// pkcs1DigestInfo is the DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2).
var pkcs1DigestInfo = []byte{
	0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86,
	0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
	0x00, 0x04, 0x20,
}

// emsaEncode produces the EMSA-PKCS1-v1_5 encoding of msg for a k-byte
// modulus.
func emsaEncode(msg []byte, k int) ([]byte, error) {
	digest := sha256.Sum256(msg)
	tLen := len(pkcs1DigestInfo) + hashLen
	if k < tLen+11 {
		return nil, ErrKeySize
	}
	em := make([]byte, k)
	em[1] = 0x01
	for i := 2; i < k-tLen-1; i++ {
		em[i] = 0xff
	}
	copy(em[k-tLen:], pkcs1DigestInfo)
	copy(em[k-hashLen:], digest[:])
	return em, nil
}

// Sign produces a full (non-mediated) PKCS#1-v1.5 signature over msg.
func (kp *KeyPair) Sign(msg []byte) ([]byte, error) {
	k := kp.Public.ModulusBytes()
	em, err := emsaEncode(msg, k)
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(em)
	s := new(big.Int).Exp(m, kp.D, kp.Public.N)
	return mathx.PadBytes(s, k)
}

// Verify checks a PKCS#1-v1.5 signature.
func (pk *PublicKey) Verify(msg, sig []byte) error {
	k := pk.ModulusBytes()
	if len(sig) != k {
		return ErrVerify
	}
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(pk.N) >= 0 {
		return ErrVerify
	}
	m := new(big.Int).Exp(s, pk.E, pk.N)
	em, err := mathx.PadBytes(m, k)
	if err != nil {
		return ErrVerify
	}
	want, err := emsaEncode(msg, k)
	if err != nil {
		return ErrVerify
	}
	if subtleCompare(em, want) != 1 {
		return ErrVerify
	}
	return nil
}

func subtleCompare(a, b []byte) int {
	if len(a) != len(b) {
		return 0
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	if v == 0 {
		return 1
	}
	return 0
}

// FactorFromED recovers the factorization of n from a full exponent pair
// (e, d) — the classical result that knowing one (e, d) pair is equivalent
// to factoring. This is the executable form of the paper's warning that a
// user–SEM collusion (which reassembles d) *totally breaks* IB-mRSA: with
// the common modulus factored, every user's key falls.
func FactorFromED(rng io.Reader, n, e, d *big.Int) (p, q *big.Int, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	// Write e·d − 1 = 2^t · r with r odd.
	k := new(big.Int).Mul(e, d)
	k.Sub(k, one)
	if k.Sign() <= 0 {
		return nil, nil, fmt.Errorf("mrsa: e·d − 1 not positive")
	}
	t := 0
	r := new(big.Int).Set(k)
	for r.Bit(0) == 0 {
		r.Rsh(r, 1)
		t++
	}
	nm1 := new(big.Int).Sub(n, one)
	for attempt := 0; attempt < 128; attempt++ {
		g, err := mathx.RandomInRange(rng, two, n)
		if err != nil {
			return nil, nil, err
		}
		if gcd := new(big.Int).GCD(nil, nil, g, n); gcd.Cmp(one) != 0 {
			// Got lucky: g shares a factor with n.
			return splitFactors(n, gcd)
		}
		x := new(big.Int).Exp(g, r, n)
		if x.Cmp(one) == 0 || x.Cmp(nm1) == 0 {
			continue
		}
		for i := 0; i < t; i++ {
			y := new(big.Int).Mul(x, x)
			y.Mod(y, n)
			if y.Cmp(one) == 0 {
				// x is a nontrivial square root of 1 mod n.
				gcd := new(big.Int).Sub(x, one)
				gcd.GCD(nil, nil, gcd, n)
				if gcd.Cmp(one) != 0 && gcd.Cmp(n) != 0 {
					return splitFactors(n, gcd)
				}
				break
			}
			if y.Cmp(nm1) == 0 {
				break
			}
			x = y
		}
	}
	return nil, nil, ErrFactorFailed
}

func splitFactors(n, f *big.Int) (*big.Int, *big.Int, error) {
	other := new(big.Int).Div(n, f)
	check := new(big.Int).Mul(f, other)
	if check.Cmp(n) != 0 {
		return nil, nil, ErrFactorFailed
	}
	if f.Cmp(other) > 0 {
		f, other = other, f
	}
	return f, other, nil
}
