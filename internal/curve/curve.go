// Package curve implements the supersingular elliptic curve
//
//	E(F_p): y² = x³ + x,   p ≡ 3 (mod 4)
//
// used by the paper's pairing-based schemes. The curve is supersingular with
// #E(F_p) = p + 1 and embedding degree 2; the distortion map
// φ(x, y) = (−x, i·y) sends points into E(F_p²) and makes the modified Tate
// pairing ê(P, Q) = e(P, φ(Q)) non-degenerate on a single cyclic subgroup.
//
// The group G1 of the schemes is the order-q subgroup, where q is a prime
// divisor of p + 1 chosen at parameter-generation time (see package pairing).
//
// A Point is its limbs: the affine coordinates as Montgomery-form vectors of
// the width internal/fp fixes for p, the one representation from Unmarshal
// through every kernel (the Jacobian layer of limb.go under ScalarMul, the
// secret kernels, cofactor clearing, the subgroup check, MSM and Add; the Miller
// loops of internal/pairing, which read the limbs in place through Mont) and
// back out through Marshal. math/big appears at the edges only — NewPoint, X,
// Y and String, parameter construction, scalars, and the reduction of a hash
// digest — and the affine big.Int group law the kernels are differential-
// tested against lives in curvetest, written against that edge API.
package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/fp"
	"repro/internal/mathx"
)

var (
	// ErrNotOnCurve is returned when decoding or constructing a point whose
	// coordinates do not satisfy the curve equation.
	ErrNotOnCurve = errors.New("curve: point is not on the curve")

	// ErrHashToPointFailed is returned when try-and-increment hashing
	// exhausts its counter budget (cryptographically negligible).
	ErrHashToPointFailed = errors.New("curve: hash-to-point failed after 255 attempts")
)

// Curve is the supersingular curve y² = x³ + x over F_p together with the
// prime subgroup order q and cofactor c = (p+1)/q. Immutable and safe for
// concurrent use after construction.
type Curve struct {
	p *big.Int //cryptolint:public (curve parameters)
	q *big.Int //cryptolint:public (curve parameters)
	c *big.Int //cryptolint:public (curve parameters)

	// The limb backend and the constants the Jacobian kernels derive from
	// the parameters, all built by New (see limb.go and scalarmul.go).
	fld     *fp.Field //cryptolint:public (curve parameters)
	sqrtExp *big.Int  //cryptolint:public ((p+1)/4, the p ≡ 3 (mod 4) square-root exponent)
	cModQ   *big.Int  //cryptolint:public (the cofactor reduced modulo q: what c· is on G1)
	qNAF    naf       //cryptolint:public (recoding of the subgroup order, shared by every subgroup check)
	cNAF    naf       //cryptolint:public (recoding of the cofactor, shared by every hash-to-point)
}

// New constructs the curve. It validates that p ≡ 3 (mod 4), that p fits the
// limb backend (fp.MaxLimbs, the same bound gf.NewField puts on the pairing's
// extension field) and that q·c = p + 1 with p and q prime (probabilistically,
// once per parameter set): a nonzero element being invertible is what makes
// the kernels' normalisations total.
func New(p, q *big.Int) (*Curve, error) {
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, fmt.Errorf("curve: p must be ≡ 3 (mod 4)")
	}
	if !p.ProbablyPrime(20) {
		return nil, fmt.Errorf("curve: field characteristic p is not prime")
	}
	fld, err := fp.New(p)
	if err != nil {
		return nil, fmt.Errorf("curve: %w", err)
	}
	pPlus1 := new(big.Int).Add(p, big.NewInt(1))
	c, rem := new(big.Int).DivMod(pPlus1, q, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("curve: q does not divide p + 1")
	}
	if !q.ProbablyPrime(20) {
		return nil, fmt.Errorf("curve: subgroup order q is not prime")
	}
	return &Curve{
		p:       new(big.Int).Set(p),
		q:       new(big.Int).Set(q),
		c:       c,
		fld:     fld,
		sqrtExp: new(big.Int).Rsh(pPlus1, 2),
		cModQ:   new(big.Int).Mod(c, q),
		qNAF:    recode(q),
		cNAF:    recode(c),
	}, nil
}

// P returns a copy of the field characteristic.
func (c *Curve) P() *big.Int { return new(big.Int).Set(c.p) }

// Q returns a copy of the subgroup order.
func (c *Curve) Q() *big.Int { return new(big.Int).Set(c.q) }

// Cofactor returns a copy of the cofactor (p+1)/q.
func (c *Curve) Cofactor() *big.Int { return new(big.Int).Set(c.c) }

// CoordinateSize returns the byte length of one field coordinate.
func (c *Curve) CoordinateSize() int { return c.fld.ByteLen() }

// Point is a point of E(F_p) in affine coordinates, or the point at
// infinity. Points are immutable: all group operations return new points.
type Point struct {
	curve *Curve //cryptolint:public (curve parameters)

	// The coordinates in Montgomery form, the two halves of one slab; nil
	// for O.
	x, y []uint64

	// g1 memoizes the subgroup-membership verdict (0 unknown, 1 in G1,
	// 2 outside). Immutability makes the verdict permanent; the atomic
	// makes concurrent validation of a shared point race-free. Benign
	// duplicate stores write the same value.
	g1 atomic.Int32
}

// Infinity returns the identity element O.
func (c *Curve) Infinity() *Point { return &Point{curve: c} }

// newPoint allocates a finite point with zeroed coordinates for the caller
// to fill before anyone else sees it.
func (c *Curve) newPoint() *Point {
	n := c.fld.Limbs()
	slab := make([]uint64, 2*n)
	return &Point{curve: c, x: slab[:n:n], y: slab[n:]}
}

// NewPoint constructs the affine point (x mod p, y mod p), validating the
// curve equation.
func (c *Curve) NewPoint(x, y *big.Int) (*Point, error) {
	F := c.fld
	pt := c.newPoint()
	// Reduced, so FromBig's only error — an input outside [0, p) — cannot occur.
	_ = F.FromBig(pt.x, new(big.Int).Mod(x, c.p)) //cryptolint:public (the big.Int edge: a caller's coordinates are reduced by math/big on their way into limbs)
	_ = F.FromBig(pt.y, new(big.Int).Mod(y, c.p)) //cryptolint:public (as above)
	var lb, rb [fp.MaxLimbs]uint64
	lhs, rhs := lb[:F.Limbs()], rb[:F.Limbs()]
	F.Square(lhs, pt.y)
	c.rhs(rhs, pt.x)
	if !F.Equal(lhs, rhs) {
		return nil, ErrNotOnCurve
	}
	return pt, nil
}

// rhs sets z = x³ + x, the right-hand side of the curve equation.
func (c *Curve) rhs(z, x []uint64) {
	F := c.fld
	F.Square(z, x)
	F.Mul(z, z, x)
	F.Add(z, z, x)
}

// solveY sets y to the principal square root (x³ + x)^((p+1)/4) — the root
// mathx.SqrtModP returns for p ≡ 3 (mod 4); enrolled keys depend on the two
// being bit-identical — and reports whether there is one, i.e. whether x is
// the abscissa of a curve point: a is a residue iff (a^((p+1)/4))² = a.
//
//cryptolint:vartime (the exponent (p+1)/4 is public and x is a candidate abscissa off the wire or out of a hash; the verdict is the API)
func (c *Curve) solveY(y, x []uint64) bool {
	F := c.fld
	var ab, cb [fp.MaxLimbs]uint64
	a, chk := ab[:F.Limbs()], cb[:F.Limbs()]
	c.rhs(a, x)
	F.Exp(y, a, c.sqrtExp)
	F.Square(chk, y)
	return F.Equal(chk, a)
}

// IsInfinity reports whether the point is the identity.
func (pt *Point) IsInfinity() bool { return pt.x == nil }

// X returns the affine x-coordinate as a fresh big.Int; nil for O.
func (pt *Point) X() *big.Int {
	if pt.IsInfinity() {
		return nil
	}
	return pt.curve.fld.ToBig(pt.x)
}

// Y returns the affine y-coordinate as a fresh big.Int; nil for O.
func (pt *Point) Y() *big.Int {
	if pt.IsInfinity() {
		return nil
	}
	return pt.curve.fld.ToBig(pt.y)
}

// Mont returns the coordinates themselves: Montgomery-form limb vectors of
// the curve prime's fp.Field (any fp.Field of the same p reads them), nil for
// O. They are the point's own storage — read, never write.
func (pt *Point) Mont() (x, y []uint64) { return pt.x, pt.y }

// Curve returns the curve the point lives on.
func (pt *Point) Curve() *Curve { return pt.curve }

// Equal reports whether two points are the same group element.
func (pt *Point) Equal(other *Point) bool {
	if pt.IsInfinity() || other.IsInfinity() {
		return pt.IsInfinity() == other.IsInfinity()
	}
	F := pt.curve.fld
	return F.Equal(pt.x, other.x) && F.Equal(pt.y, other.y)
}

// Neg returns −P.
func (pt *Point) Neg() *Point {
	if pt.IsInfinity() {
		return pt
	}
	F := pt.curve.fld
	out := pt.curve.newPoint()
	F.Set(out.x, pt.x)
	F.Neg(out.y, pt.y)
	// −P has the same order as P: the subgroup verdict carries over.
	out.g1.Store(pt.g1.Load())
	return out
}

// Add returns P + Q: one mixed Jacobian addition (a doubling when P = Q) and
// one normalisation, the affine chord-and-tangent result bit for bit.
func (pt *Point) Add(other *Point) *Point {
	if pt.IsInfinity() {
		return other
	}
	if other.IsInfinity() {
		return pt
	}
	c := pt.curve
	s := newLjScratch(c.fld)
	acc := newLimbJac(c.fld)
	acc.setAffine(c.fld, pt.x, pt.y)
	ljAddMixed(c.fld, &acc, other.x, other.y, s)
	return c.ljToPoint(&acc, s)
}

// Double returns 2P.
func (pt *Point) Double() *Point { return pt.Add(pt) }

// InSubgroup reports whether the point lies in the prime-order subgroup G1,
// i.e. q·P = O. Every network-facing decode funnels through this check, so
// it is cheaper than a generic ScalarMul twice over: the recoding of the
// fixed public order q is computed once per curve, and only the
// identity-or-not verdict is needed, so the ladder ends at a Z = 0 test
// without the Jacobian-to-affine inversion. The verdict is memoized on the
// (immutable) point, so re-validating a long-lived element — a cached public
// key, a batch re-verified under a new random combination — is a single
// atomic load.
//
//cryptolint:vartime (a w-NAF ladder over the public order q, ended by an identity test; the verdict is the API)
func (pt *Point) InSubgroup() bool {
	if pt.IsInfinity() {
		return true // O is in every subgroup
	}
	if s := pt.g1.Load(); s != 0 {
		return s == 1
	}
	c := pt.curve
	subgroupChecks.Add(1)
	acc, err := c.ladder([]*Point{pt}, []naf{c.qNAF}, newLjScratch(c.fld))
	// err is unreachable for prime p (see ljBatchNormalize); an unverifiable
	// point is not admitted.
	in := err == nil && c.fld.IsZero(acc.z)
	if in {
		pt.g1.Store(1)
	} else {
		pt.g1.Store(2)
	}
	return in
}

// ErrNotInSubgroup is returned by Validate for points of E(F_p) outside the
// order-q working subgroup G1 (e.g. cofactor-order points).
var ErrNotInSubgroup = errors.New("curve: point is not in the order-q subgroup")

// Validate checks that the point is a usable G1 element for untrusted
// inputs: not the identity and inside the order-q subgroup. Unmarshal only
// guarantees membership in the full group E(F_p), whose cofactor-order
// components are outside the security argument — every network-facing
// decode must call this (see wire.UnmarshalG1).
func (pt *Point) Validate() error {
	if pt.IsInfinity() {
		return fmt.Errorf("%w: point at infinity", ErrNotInSubgroup)
	}
	if !pt.InSubgroup() {
		return ErrNotInSubgroup
	}
	return nil
}

// RandomPoint returns a uniformly random point of the full group E(F_p)
// (not necessarily in G1) by sampling x until x³ + x is a residue.
func (c *Curve) RandomPoint(rng io.Reader) (*Point, error) {
	pt := c.newPoint()
	for {
		x, err := mathx.RandomInRange(rng, big.NewInt(0), c.p)
		if err != nil {
			return nil, err
		}
		_ = c.fld.FromBig(pt.x, x) // in [0, p) by construction
		if c.solveY(pt.y, pt.x) {
			return pt, nil
		}
	}
}

// RandomG1 returns a uniformly random nonidentity point of the order-q
// subgroup (cofactor-cleared random point).
func (c *Curve) RandomG1(rng io.Reader) (*Point, error) {
	for {
		pt, err := c.RandomPoint(rng)
		if err != nil {
			return nil, err
		}
		if g := c.clearCofactor(pt); !g.IsInfinity() {
			return g, nil
		}
	}
}

// HashToPoint maps an arbitrary byte string into the order-q subgroup G1
// using domain-separated try-and-increment (the MapToGroup construction of
// the BLS short-signature paper) followed by cofactor clearing. This is the
// H1 oracle of the Boneh-Franklin scheme and the h(·) oracle of the GDH
// signature.
func (c *Curve) HashToPoint(domain string, msg []byte) (*Point, error) {
	pt, err := c.HashToPointUncleared(domain, msg)
	if err != nil {
		return nil, err
	}
	return c.clearCofactor(pt), nil
}

// clearCofactor returns c·pt for the cofactor c = (p+1)/q — a point of G1,
// marked as such — through the cofactor recoding New cached.
func (c *Curve) clearCofactor(pt *Point) *Point {
	cofactorClears.Add(1)
	out := pt.mulRecoded(c.cNAF)
	if !out.IsInfinity() {
		out.g1.Store(1) // cofactor-cleared by construction
	}
	return out
}

// MulCofactorG1 returns c·K for a point K of G1 ∖ {O} and the cofactor
// c = (p+1)/q. On the order-q group that is (c mod q)·K, a |q|-bit ladder
// where clearing an arbitrary point walks all of c; the result is in G1 and
// marked as such. Anything else is refused (ErrNotInSubgroup): off G1 the two
// multiples differ. It is what moves a hash's cofactor clearing onto a fixed
// pairing argument, once, instead of paying it per hash —
// ê(K, c·T) = ê(c·K, T) (pairing.HashPairer).
func (c *Curve) MulCofactorG1(k *Point) (*Point, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	out := k.ScalarMul(c.cModQ)
	if !out.IsInfinity() {
		out.g1.Store(1) // a multiple of a G1 point
	}
	return out, nil
}

// The ladders a caller can be made to pay per request, counted where they
// run. At paper size one hash with its cofactor clearing costs about as much
// as a pairing and a subgroup check about a third of one, so the counts per
// served operation say whether a caller is re-deriving a per-identity
// constant it could have kept, clearing a hash that is only paired against a
// fixed key, or subgroup-checking a point that is only an evaluation point.
var (
	hashToPointCalls atomic.Uint64 // try-and-increment hashes (HashToPoint and HashToPointUncleared alike)
	cofactorClears   atomic.Uint64 // [c]· ladders: HashToPoint, RandomG1
	subgroupChecks   atomic.Uint64 // [q]· ladders: InSubgroup verdicts not served from a point's memo
)

// HashToPointCalls returns the number of hash-to-curve evaluations so far.
func HashToPointCalls() uint64 { return hashToPointCalls.Load() }

// CofactorClears returns the number of cofactor multiplications run so far.
func CofactorClears() uint64 { return cofactorClears.Load() }

// SubgroupChecks returns the number of [q]· subgroup ladders run so far; a
// verdict memoized on its point does not count.
func SubgroupChecks() uint64 { return subgroupChecks.Load() }

// HashToPointUncleared is HashToPoint without the final cofactor
// multiplication: it returns the raw try-and-increment point T ∈ E(F_p)
// with HashToPoint(domain, msg) = c·T for cofactor c. Batch verifiers use
// it to defer and merge cofactor clearing across many hashes
// (Σ rᵢ·(c·Tᵢ) = c·Σ rᵢ·Tᵢ); anything needing a single subgroup element
// should call HashToPoint.
//
// A candidate whose cleared image would be the identity (T of cofactor
// order, probability q/(p+1) < 2⁻³⁵⁰ per attempt) is accepted here — the
// check would cost the very scalar multiplication this variant exists to
// skip. HashToPoint inherits the same behaviour: its output is the identity
// with that probability, which no caller can observe.
//
//cryptolint:vartime (try-and-increment: the number of candidates tried depends on the hashed string, which is public — an identity or a message)
func (c *Curve) HashToPointUncleared(domain string, msg []byte) (*Point, error) {
	hashToPointCalls.Add(1)
	F := c.fld
	size := c.CoordinateSize()
	pt := c.newPoint()
	for ctr := 0; ctr < 256; ctr++ {
		digest := expandDigest(domain, uint8(ctr), msg, size+16)
		x := new(big.Int).SetBytes(digest[:size+8])
		_ = F.FromBig(pt.x, x.Mod(x, c.p)) // reduced: cannot fail
		if !c.solveY(pt.y, pt.x) {
			continue
		}
		// Use one post-coordinate digest byte to pick the root's sign so the
		// map does not systematically favour the "small" root.
		if digest[size+8]&1 == 1 {
			F.Neg(pt.y, pt.y)
		}
		return pt, nil
	}
	return nil, ErrHashToPointFailed
}

// expandDigest produces at least n bytes of SHA-256 output bound to
// (domain, ctr, msg) using simple counter-mode expansion. A single hash
// state is reset and reused across blocks and the header is assembled in
// one stack buffer, so each call allocates only the output slice.
func expandDigest(domain string, ctr uint8, msg []byte, n int) []byte {
	out := make([]byte, 0, ((n+31)/32)*32)
	h := sha256.New()
	var hdr [5]byte
	hdr[0] = ctr
	for block := uint32(0); len(out) < n; block++ {
		h.Reset()
		binary.BigEndian.PutUint32(hdr[1:], block)
		io.WriteString(h, domain)
		h.Write(hdr[:1])
		h.Write(hdr[1:])
		h.Write(msg)
		out = h.Sum(out)
	}
	return out[:n]
}

// Marshal serializes the point in compressed form: a one-byte tag (0 for O,
// 2 or 3 for the parity of y) followed by the fixed-width x-coordinate.
// This is the "point compression" the paper invokes when comparing key
// sizes with IB-mRSA.
func (pt *Point) Marshal() []byte {
	F := pt.curve.fld
	out := make([]byte, 1+pt.curve.CoordinateSize())
	if pt.IsInfinity() {
		return out
	}
	out[0] = byte(2 + F.Parity(pt.y))
	F.FillBytes(out[1:], pt.x)
	return out
}

// Unmarshal parses a compressed point produced by Marshal straight into
// limbs, solving the curve equation for y and picking the root of the tagged
// parity. It accepts exactly the encodings Marshal writes: an accepted input
// re-marshals to the same bytes.
//
//cryptolint:vartime (branches on the encoding's tag, range and residuosity: a decoder's verdicts about bytes it was handed)
func (c *Curve) Unmarshal(data []byte) (*Point, error) {
	size := c.CoordinateSize()
	if len(data) != 1+size {
		return nil, fmt.Errorf("curve: compressed point must be %d bytes, got %d", 1+size, len(data))
	}
	switch data[0] {
	case 0:
		for _, b := range data[1:] {
			if b != 0 {
				return nil, fmt.Errorf("curve: malformed infinity encoding")
			}
		}
		return c.Infinity(), nil
	case 2, 3:
		F := c.fld
		pt := c.newPoint()
		if F.SetBytes(pt.x, data[1:]) != nil {
			return nil, fmt.Errorf("curve: x-coordinate out of range")
		}
		if !c.solveY(pt.y, pt.x) {
			return nil, ErrNotOnCurve
		}
		if F.Parity(pt.y) != uint(data[0]-2) {
			// p − y has the other parity for every root but y = 0 (the
			// 2-torsion point (0, 0)), which Marshal writes with tag 2 only.
			if F.IsZero(pt.y) {
				return nil, fmt.Errorf("curve: non-canonical sign tag for y = 0")
			}
			F.Neg(pt.y, pt.y)
		}
		return pt, nil
	default:
		return nil, fmt.Errorf("curve: unknown compression tag 0x%02x", data[0]) //cryptolint:public (the format tag byte, not coordinate material)
	}
}

// String renders the point for debugging.
func (pt *Point) String() string {
	if pt.IsInfinity() {
		return "O"
	}
	return fmt.Sprintf("(%v, %v)", pt.X(), pt.Y()) //cryptolint:public (String is the debug rendering; secretleak judges who prints which point at String's call sites)
}
