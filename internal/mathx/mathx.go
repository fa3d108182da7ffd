// Package mathx provides the number-theoretic primitives that underpin the
// pairing, curve and RSA substrates: modular square roots, Jacobi symbols,
// prime and safe-prime generation, and misc big.Int helpers.
//
// Everything operates on math/big integers; callers own the values they pass
// in and receive fresh values back (no aliasing of inputs).
//
//cryptolint:vartime (big.Int utility arithmetic (prime generation, CRT, sampling); timing is accepted as value-dependent)
package mathx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	// ErrNoSquareRoot is returned by SqrtModP when the operand is a
	// quadratic non-residue modulo p.
	ErrNoSquareRoot = errors.New("mathx: no square root exists")

	// ErrNotInvertible is returned by InverseMod when the operand shares a
	// factor with the modulus.
	ErrNotInvertible = errors.New("mathx: element is not invertible")
)

var (
	zero  = big.NewInt(0)
	one   = big.NewInt(1)
	two   = big.NewInt(2)
	three = big.NewInt(3)
	four  = big.NewInt(4)
)

// Jacobi returns the Jacobi symbol (x/y). y must be odd and positive.
func Jacobi(x, y *big.Int) int {
	return big.Jacobi(x, y)
}

// IsQuadraticResidue reports whether a is a quadratic residue modulo the odd
// prime p. Zero counts as a residue (its root is zero).
func IsQuadraticResidue(a, p *big.Int) bool {
	m := new(big.Int).Mod(a, p)
	if m.Sign() == 0 {
		return true
	}
	return big.Jacobi(m, p) == 1
}

// SqrtModP computes a square root of a modulo the odd prime p.
// For p ≡ 3 (mod 4) it uses the single-exponentiation fast path
// a^((p+1)/4); otherwise it falls back to big.Int.ModSqrt
// (Tonelli-Shanks). It returns ErrNoSquareRoot when a is a non-residue.
func SqrtModP(a, p *big.Int) (*big.Int, error) {
	m := new(big.Int).Mod(a, p)
	if m.Sign() == 0 {
		return new(big.Int), nil
	}
	if big.Jacobi(m, p) != 1 {
		return nil, ErrNoSquareRoot
	}
	if new(big.Int).And(p, three).Cmp(three) == 0 {
		e := new(big.Int).Add(p, one)
		e.Rsh(e, 2)
		return new(big.Int).Exp(m, e, p), nil
	}
	r := new(big.Int).ModSqrt(m, p)
	if r == nil {
		return nil, ErrNoSquareRoot
	}
	return r, nil
}

// InverseMod returns x⁻¹ mod m, or ErrNotInvertible when gcd(x, m) ≠ 1.
func InverseMod(x, m *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(x, m)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// RandomInRange returns a uniform random integer in [min, max).
func RandomInRange(rng io.Reader, min, max *big.Int) (*big.Int, error) {
	if min.Cmp(max) >= 0 {
		return nil, errors.New("mathx: empty range: min >= max")
	}
	span := new(big.Int).Sub(max, min)
	r, err := rand.Int(rng, span)
	if err != nil {
		return nil, fmt.Errorf("random in range: %w", err)
	}
	return r.Add(r, min), nil
}

// RandomFieldElement returns a uniform random element of [1, q), i.e. a
// nonzero scalar of the field F_q.
func RandomFieldElement(rng io.Reader, q *big.Int) (*big.Int, error) {
	return RandomInRange(rng, one, q)
}

// RandomPrime returns a random prime with exactly the given bit length.
func RandomPrime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 2 {
		return nil, fmt.Errorf("mathx: prime size %d too small", bits)
	}
	p, err := rand.Prime(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("random prime: %w", err)
	}
	return p, nil
}

// RandomSafePrime returns a random safe prime p = 2p' + 1 of the given bit
// length (p and p' both prime), as required by the mediated-RSA key
// generation in the paper. This is slow for large sizes; callers that only
// need test vectors should use the embedded fixed parameters instead.
func RandomSafePrime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 5 {
		return nil, fmt.Errorf("mathx: safe prime size %d too small", bits)
	}
	for {
		pp, err := rand.Prime(rng, bits-1)
		if err != nil {
			return nil, fmt.Errorf("safe prime: %w", err)
		}
		p := new(big.Int).Lsh(pp, 1)
		p.Add(p, one)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// IsSafePrime reports whether p is prime and (p−1)/2 is prime.
func IsSafePrime(p *big.Int) bool {
	if !p.ProbablyPrime(20) {
		return false
	}
	pp := new(big.Int).Sub(p, one)
	pp.Rsh(pp, 1)
	return pp.ProbablyPrime(20)
}

// Lagrange0 computes the Lagrange coefficient λ_i for interpolating a degree
// t−1 polynomial at x = 0 from the evaluation points xs (distinct, nonzero
// mod q): λ_i = Π_{j≠i} x_j / (x_j − x_i) mod q.
//
// It is shared by the Shamir substrate and by the threshold-IBE recombiner.
func Lagrange0(i int, xs []*big.Int, q *big.Int) (*big.Int, error) {
	return LagrangeAt(i, xs, zero, q)
}

// LagrangeAt computes the Lagrange coefficient λ_i for interpolating at the
// point x = at: λ_i = Π_{j≠i} (at − x_j) / (x_i − x_j) mod q.
// Used directly for dishonest-share recovery (interpolating a share at a
// player index rather than at zero).
func LagrangeAt(i int, xs []*big.Int, at, q *big.Int) (*big.Int, error) {
	if i < 0 || i >= len(xs) {
		return nil, fmt.Errorf("mathx: lagrange index %d out of range", i)
	}
	num := big.NewInt(1)
	den := big.NewInt(1)
	tmp := new(big.Int)
	for j, xj := range xs {
		if j == i {
			continue
		}
		tmp.Sub(at, xj)
		num.Mul(num, tmp)
		num.Mod(num, q)
		tmp.Sub(xs[i], xj)
		den.Mul(den, tmp)
		den.Mod(den, q)
	}
	inv, err := InverseMod(den, q)
	if err != nil {
		return nil, fmt.Errorf("lagrange denominator: %w", err)
	}
	num.Mul(num, inv)
	num.Mod(num, q)
	return num, nil
}

// MulMod returns x·y mod m as a fresh value.
func MulMod(x, y, m *big.Int) *big.Int {
	z := new(big.Int).Mul(x, y)
	return z.Mod(z, m)
}

// BytesToIntMod hashes-friendly helper: interprets b as a big-endian integer
// reduced modulo m.
func BytesToIntMod(b []byte, m *big.Int) *big.Int {
	x := new(big.Int).SetBytes(b)
	return x.Mod(x, m)
}

// PadBytes left-pads the big-endian encoding of x to exactly size bytes.
// It returns an error when x does not fit.
func PadBytes(x *big.Int, size int) ([]byte, error) {
	b := x.Bytes()
	if len(b) > size {
		return nil, fmt.Errorf("mathx: value needs %d bytes, only %d available", len(b), size)
	}
	out := make([]byte, size)
	copy(out[size-len(b):], b)
	return out, nil
}

// WNAF recodes a positive scalar into width-w non-adjacent form (w ≥ 2):
// digits in {0, ±1, ±3, …, ±(2^(w−1)−1)}, least significant first, with at
// most one nonzero digit in any w consecutive positions — so a ladder over
// them performs an addition (a multiplication, in a multiplicative group) at
// only 1/(w+1) of its steps. It serves the G1 ladders of internal/curve and
// the GT multi-exponentiation of internal/pairing, both groups where the
// inverse a negative digit calls for is free.
func WNAF(k *big.Int, w uint) []int8 {
	digits := make([]int8, 0, k.BitLen()+1)
	n := new(big.Int).Set(k)
	mask := big.Word(1)<<w - 1
	half := int64(1) << (w - 1)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			d := int64(n.Bits()[0] & mask)
			if d >= half {
				d -= int64(mask) + 1 // make the digit negative so the rest stays even
			}
			digits = append(digits, int8(d))
			if d > 0 {
				n.Sub(n, big.NewInt(d))
			} else {
				n.Add(n, big.NewInt(-d))
			}
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	return digits
}
