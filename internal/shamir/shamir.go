// Package shamir implements (t, n) Shamir secret sharing over the scalar
// field F_q, as used by the paper's threshold IBE (Section 3): the PKG's
// master key s is shared through a random degree t−1 polynomial
//
//	f(x) = s + a₁x + … + a_{t−1}x^{t−1}
//
// with player i holding f(i). The package also produces the public
// verification vector {f(i)·P} that lets players check
// Σ λ_i·P_pub^(i) = P_pub for any t-subset before accepting their shares.
//
//cryptolint:vartime (big.Int secret sharing over F_q; dealing and reconstruction are offline operations)
package shamir

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/curve"
	"repro/internal/mathx"
)

var (
	// ErrThreshold is returned when the (t, n) configuration is invalid.
	ErrThreshold = errors.New("shamir: invalid threshold configuration")

	// ErrNotEnoughShares is returned when fewer than t shares are supplied
	// to a reconstruction.
	ErrNotEnoughShares = errors.New("shamir: not enough shares")

	// ErrDuplicateShare is returned when two shares carry the same index.
	ErrDuplicateShare = errors.New("shamir: duplicate share index")
)

// Share is one evaluation point (x = Index, y = Value) of the sharing
// polynomial.
//
//cryptolint:secret
type Share struct {
	Index int      // player index, 1-based
	Value *big.Int // f(Index) mod q
}

// Polynomial is a sharing polynomial over F_q. The constant term is the
// shared secret. It is kept by the dealer only.
//
//cryptolint:secret
type Polynomial struct {
	q      *big.Int   //cryptolint:public (the field modulus)
	coeffs []*big.Int // coeffs[0] = secret
}

// NewPolynomial samples a random polynomial of degree t−1 with the given
// constant term (the secret) over F_q.
func NewPolynomial(rng io.Reader, secret, q *big.Int, t int) (*Polynomial, error) {
	if t < 1 {
		return nil, fmt.Errorf("%w: t = %d", ErrThreshold, t)
	}
	coeffs := make([]*big.Int, t)
	coeffs[0] = new(big.Int).Mod(secret, q)
	for i := 1; i < t; i++ {
		c, err := mathx.RandomInRange(rng, big.NewInt(0), q)
		if err != nil {
			return nil, fmt.Errorf("sample coefficient: %w", err)
		}
		coeffs[i] = c
	}
	return &Polynomial{q: new(big.Int).Set(q), coeffs: coeffs}, nil
}

// Threshold returns t, the number of shares needed for reconstruction.
func (p *Polynomial) Threshold() int { return len(p.coeffs) }

// Secret returns a copy of the constant term.
func (p *Polynomial) Secret() *big.Int { return new(big.Int).Set(p.coeffs[0]) }

// Eval returns f(x) mod q (Horner's rule).
func (p *Polynomial) Eval(x *big.Int) *big.Int {
	return p.evalInto(new(big.Int), x, new(big.Int), new(big.Int))
}

// evalInto is Eval with caller-owned storage: the Horner accumulator lands
// in dst, intermediate products in tmp, and the reduction quotient in quo,
// so a loop issuing many evaluations (IssueShares, VerificationVector)
// allocates nothing per step. The tmp/dst split matters — Mul with an
// aliased receiver falls off math/big's fast path and allocates a fresh
// limb array — and QuoRem is used instead of Mod because Mod hides a
// freshly allocated quotient on every call.
func (p *Polynomial) evalInto(dst, x, tmp, quo *big.Int) *big.Int {
	dst.SetInt64(0)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		tmp.Mul(dst, x)
		tmp.Add(tmp, p.coeffs[i])
		quo.QuoRem(tmp, p.q, dst) // dst = tmp mod q (tmp ≥ 0)
	}
	return dst
}

// IssueShares evaluates the polynomial at x = 1..n.
func (p *Polynomial) IssueShares(n int) ([]Share, error) {
	if n < p.Threshold() {
		return nil, fmt.Errorf("%w: n = %d < t = %d", ErrThreshold, n, p.Threshold())
	}
	shares := make([]Share, n)
	x, tmp, quo := new(big.Int), new(big.Int), new(big.Int)
	for i := 1; i <= n; i++ {
		x.SetInt64(int64(i))
		shares[i-1] = Share{Index: i, Value: p.evalInto(new(big.Int), x, tmp, quo)}
	}
	return shares, nil
}

// VerificationVector returns the public points {f(i)·base} for i = 1..n plus
// the commitment f(0)·base to the secret, where mul(k) is k·base. In the
// threshold IBE these are the P_pub^(i) published by the PKG. Every f(i) is a
// share, so mul must be a constant-time fixed-base kernel of the base:
// pairing.Params.GeneratorMul for the generator, a curve.SecretComb's
// ScalarMul for any other.
func (p *Polynomial) VerificationVector(mul func(k *big.Int) *curve.Point, n int) ([]*curve.Point, *curve.Point) {
	vec := make([]*curve.Point, n)
	x, val, tmp, quo := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for i := 1; i <= n; i++ {
		x.SetInt64(int64(i))
		vec[i-1] = mul(p.evalInto(val, x, tmp, quo))
	}
	return vec, mul(p.coeffs[0])
}

// Reconstruct interpolates the secret f(0) from at least t shares.
func Reconstruct(shares []Share, t int, q *big.Int) (*big.Int, error) {
	return InterpolateAt(shares, t, big.NewInt(0), q)
}

// InterpolateAt interpolates f(at) from at least t shares; used for share
// recovery (computing a missing player's share from t honest ones).
func InterpolateAt(shares []Share, t int, at, q *big.Int) (*big.Int, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), t)
	}
	use := shares[:t]
	xs := make([]*big.Int, t)
	seen := make(map[int]bool, t)
	for i, s := range use {
		if seen[s.Index] {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateShare, s.Index)
		}
		seen[s.Index] = true
		xs[i] = big.NewInt(int64(s.Index))
	}
	acc, term := new(big.Int), new(big.Int)
	for i, s := range use {
		li, err := mathx.LagrangeAt(i, xs, at, q)
		if err != nil {
			return nil, fmt.Errorf("lagrange coefficient %d: %w", i, err)
		}
		term.Mul(li, s.Value)
		term.Add(term, acc)
		acc.Mod(term, q)
	}
	return acc, nil
}

// VerifyVector checks the consistency condition from the paper's Setup:
// for the subset S of share indices (1-based), Σ_{i∈S} λ_i·vec[i−1] must
// equal the commitment. Any t-subset of a consistent vector passes.
func VerifyVector(vec []*curve.Point, commitment *curve.Point, subset []int, q *big.Int) error {
	xs := make([]*big.Int, len(subset))
	for i, idx := range subset {
		if idx < 1 || idx > len(vec) {
			return fmt.Errorf("shamir: subset index %d out of range 1..%d", idx, len(vec))
		}
		xs[i] = big.NewInt(int64(idx))
	}
	// Σ λ_i·vec[i−1] is one Pippenger multi-scalar sum instead of |S|
	// independent ladders.
	lis := make([]*big.Int, len(subset))
	pts := make([]*curve.Point, len(subset))
	for i, idx := range subset {
		li, err := mathx.Lagrange0(i, xs, q)
		if err != nil {
			return fmt.Errorf("lagrange coefficient: %w", err)
		}
		lis[i] = li
		pts[i] = vec[idx-1]
	}
	sum, err := commitment.Curve().MSM(lis, pts)
	if err != nil {
		return fmt.Errorf("shamir: aggregate verification vector: %w", err)
	}
	if !sum.Equal(commitment) {
		return errors.New("shamir: verification vector inconsistent with commitment")
	}
	return nil
}

// PointShare is a share whose value is a curve point (used for identity-key
// shares d_IDi = f(i)·Q_ID in the threshold IBE).
type PointShare struct {
	Index int
	Value *curve.Point
}

// ReconstructPoint interpolates Σ λ_i·S_i at x = 0 in the exponent,
// recovering f(0)·Q from point shares f(i)·Q.
func ReconstructPoint(shares []PointShare, t int, q *big.Int) (*curve.Point, error) {
	return InterpolatePointAt(shares, t, big.NewInt(0), q)
}

// InterpolatePointAt interpolates f(at)·Q from point shares.
func InterpolatePointAt(shares []PointShare, t int, at, q *big.Int) (*curve.Point, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), t)
	}
	use := shares[:t]
	xs := make([]*big.Int, t)
	seen := make(map[int]bool, t)
	for i, s := range use {
		if seen[s.Index] {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateShare, s.Index)
		}
		seen[s.Index] = true
		xs[i] = big.NewInt(int64(s.Index))
	}
	// Σ λ_i·S_i as one multi-scalar sum.
	lis := make([]*big.Int, t)
	pts := make([]*curve.Point, t)
	for i, s := range use {
		li, err := mathx.LagrangeAt(i, xs, at, q)
		if err != nil {
			return nil, fmt.Errorf("lagrange coefficient %d: %w", i, err)
		}
		lis[i] = li
		pts[i] = s.Value
	}
	return use[0].Value.Curve().MSM(lis, pts)
}
