// Package gm implements Goldwasser-Micali probabilistic encryption and its
// mediated (2-out-of-2 threshold) adaptation — one of the two schemes the
// paper's conclusion conjectures the SEM method extends to ("the
// Goldwasser-Micali probabilistic encryption […] for which efficient
// threshold adaptations have been described in [18]" — Katz & Yung,
// Asiacrypt 2002).
//
// Setup uses a Blum modulus n = pq with p ≡ q ≡ 3 (mod 4). A bit b is
// encrypted as c = y^b·r² mod n for random r, where y is a fixed
// pseudosquare (Jacobi symbol +1 but not a quadratic residue). Decryption
// is deciding quadratic residuosity, and for Blum moduli that is a single
// exponentiation:
//
//	c^(φ(n)/4) ≡ +1 (mod n)  ⇔  c is a QR  ⇔  b = 0
//	c^(φ(n)/4) ≡ −1 (mod n)  ⇔  b = 1
//
// The exponent d = φ(n)/4 splits additively exactly like the mRSA
// exponent: d = d_user + d_sem (mod φ(n)), and the two half-results
// multiply — so the SEM architecture transfers verbatim.
//
//cryptolint:vartime (legacy math/big scheme implementation; the limb discipline does not apply)
package gm

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/mathx"
)

var (
	// ErrDecrypt is returned when a ciphertext element is malformed (not a
	// unit, out of range, or with Jacobi symbol ≠ +1).
	ErrDecrypt = errors.New("gm: decryption error")

	// ErrKeygen is returned when key material is inconsistent.
	ErrKeygen = errors.New("gm: key generation error")
)

var one = big.NewInt(1)

// PublicKey is the GM public key: the Blum modulus and the pseudosquare.
type PublicKey struct {
	N *big.Int
	Y *big.Int
}

// PrivateKey holds the residuosity-deciding exponent d = φ(n)/4 together
// with φ(n) (needed for splitting).
//
//cryptolint:secret
type PrivateKey struct {
	Public *PublicKey //cryptolint:public (the public key)
	D      *big.Int
	Phi    *big.Int
}

// GenerateKey creates a GM key pair with a bits-size Blum modulus.
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	p, err := blumPrime(rng, bits/2)
	if err != nil {
		return nil, err
	}
	q, err := blumPrime(rng, bits-bits/2)
	if err != nil {
		return nil, err
	}
	for p.Cmp(q) == 0 {
		if q, err = blumPrime(rng, bits-bits/2); err != nil {
			return nil, err
		}
	}
	return KeyFromPrimes(p, q)
}

// KeyFromPrimes assembles a key from explicit Blum primes (p ≡ q ≡ 3 mod 4).
func KeyFromPrimes(p, q *big.Int) (*PrivateKey, error) {
	if p.Bit(0) != 1 || p.Bit(1) != 1 || q.Bit(0) != 1 || q.Bit(1) != 1 {
		return nil, fmt.Errorf("%w: primes must be ≡ 3 (mod 4)", ErrKeygen)
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) || p.Cmp(q) == 0 {
		return nil, fmt.Errorf("%w: need two distinct primes", ErrKeygen)
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)
	d := new(big.Int).Rsh(phi, 2) // φ(n)/4

	// For a Blum modulus, −1 has Jacobi symbol +1 but is a non-residue:
	// the canonical pseudosquare.
	y := new(big.Int).Sub(n, one)
	return &PrivateKey{
		Public: &PublicKey{N: n, Y: y},
		D:      d,
		Phi:    phi,
	}, nil
}

// blumPrime samples a prime ≡ 3 (mod 4).
func blumPrime(rng io.Reader, bits int) (*big.Int, error) {
	for {
		p, err := mathx.RandomPrime(rng, bits)
		if err != nil {
			return nil, err
		}
		if p.Bit(0) == 1 && p.Bit(1) == 1 {
			return p, nil
		}
	}
}

// EncryptBit encrypts one bit: c = y^b · r² mod n.
func (pk *PublicKey) EncryptBit(rng io.Reader, bit byte) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	r, err := unit(rng, pk.N)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(r, r)
	c.Mod(c, pk.N)
	if bit&1 == 1 {
		c.Mul(c, pk.Y)
		c.Mod(c, pk.N)
	}
	return c, nil
}

// Encrypt encrypts a byte string bit by bit (MSB first), producing
// 8·len(msg) group elements — the scheme's notorious ciphertext expansion,
// kept faithful here.
func (pk *PublicKey) Encrypt(rng io.Reader, msg []byte) ([]*big.Int, error) {
	out := make([]*big.Int, 0, len(msg)*8)
	for _, b := range msg {
		for i := 7; i >= 0; i-- {
			c, err := pk.EncryptBit(rng, (b>>uint(i))&1)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// DecryptBit decides the residuosity of one ciphertext element with the
// full exponent.
func (sk *PrivateKey) DecryptBit(c *big.Int) (byte, error) {
	if err := checkElement(c, sk.Public.N); err != nil {
		return 0, err
	}
	t := new(big.Int).Exp(c, sk.D, sk.Public.N)
	return interpretResiduosity(t, sk.Public.N)
}

// Decrypt decrypts a bitwise ciphertext back into bytes.
func (sk *PrivateKey) Decrypt(cs []*big.Int) ([]byte, error) {
	return decryptBits(cs, func(i int) (byte, error) { return sk.DecryptBit(cs[i]) })
}

// Split divides d = φ(n)/4 into user and SEM halves mod φ(n), mirroring
// the mRSA split.
func Split(rng io.Reader, sk *PrivateKey) (user, sem *mathx.ExpHalf, err error) {
	return mathx.SplitExponent(rng, sk.Public.N, sk.D, sk.Phi)
}

// MediatedDecrypt runs the two-party decryption in-process over a bitwise
// ciphertext.
func MediatedDecrypt(pk *PublicKey, user, sem *mathx.ExpHalf, cs []*big.Int) ([]byte, error) {
	semParts := make([]*big.Int, len(cs))
	for i, c := range cs {
		semParts[i] = sem.Op(c)
	}
	return Combine(pk, user, cs, semParts)
}

// Combine is the user's side of mediated decryption, wherever the SEM's
// half-results semParts came from: it checks every element of cs as
// DecryptBit does, multiplies the user's half-result into the SEM's and
// reads the residuosity (+1 → 0, −1 → 1) as the plaintext bits.
func Combine(pk *PublicKey, user *mathx.ExpHalf, cs, semParts []*big.Int) ([]byte, error) {
	if len(semParts) != len(cs) {
		return nil, fmt.Errorf("%w: %d SEM half-results for %d elements", ErrDecrypt, len(semParts), len(cs))
	}
	return decryptBits(cs, func(i int) (byte, error) {
		if err := checkElement(cs[i], pk.N); err != nil {
			return 0, fmt.Errorf("element %d: %w", i, err)
		}
		return interpretResiduosity(mathx.MulMod(user.Op(cs[i]), semParts[i], pk.N), pk.N)
	})
}

func decryptBits(cs []*big.Int, decryptBit func(i int) (byte, error)) ([]byte, error) {
	if len(cs)%8 != 0 {
		return nil, fmt.Errorf("%w: ciphertext length %d not a multiple of 8", ErrDecrypt, len(cs))
	}
	out := make([]byte, len(cs)/8)
	for i := range cs {
		bit, err := decryptBit(i)
		if err != nil {
			return nil, err
		}
		out[i/8] |= bit << uint(7-i%8)
	}
	return out, nil
}

// checkElement validates a ciphertext element: in range, a unit, and with
// Jacobi symbol +1 (anything else cannot be an honest encryption).
func checkElement(c *big.Int, n *big.Int) error {
	if c.Sign() <= 0 || c.Cmp(n) >= 0 {
		return fmt.Errorf("%w: element out of range", ErrDecrypt)
	}
	if new(big.Int).GCD(nil, nil, c, n).Cmp(one) != 0 {
		return fmt.Errorf("%w: element not a unit", ErrDecrypt)
	}
	if big.Jacobi(c, n) != 1 {
		return fmt.Errorf("%w: element has Jacobi symbol ≠ +1", ErrDecrypt)
	}
	return nil
}

// interpretResiduosity maps c^(φ/4) ∈ {+1, −1} to a plaintext bit.
func interpretResiduosity(t, n *big.Int) (byte, error) {
	if t.Cmp(one) == 0 {
		return 0, nil
	}
	nm1 := new(big.Int).Sub(n, one)
	if t.Cmp(nm1) == 0 {
		return 1, nil
	}
	return 0, fmt.Errorf("%w: residuosity test returned neither ±1", ErrDecrypt)
}

// unit samples a random element of Z_n*.
func unit(rng io.Reader, n *big.Int) (*big.Int, error) {
	for {
		r, err := mathx.RandomInRange(rng, one, n)
		if err != nil {
			return nil, err
		}
		if new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}
