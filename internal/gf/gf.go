// Package gf implements arithmetic in the quadratic extension field F_p²
// with p ≡ 3 (mod 4), represented as F_p[i]/(i² + 1).
//
// Elements are pairs (a, b) denoting a + b·i with a, b ∈ F_p. The pairing
// substrate evaluates Miller line functions in this field and the target
// group GT of the modified Tate pairing is its order-q subgroup.
//
// Coordinates are stored as Montgomery-form limb vectors backed by
// internal/fp, so the tower multiplications run on raw uint64 arithmetic
// with zero heap allocations; *big.Int appears only at the edges
// (construction from integers, Re/Im, String) — serialization goes through
// fp's bytes codec, limbs to wire and back. The modulus handed to NewField
// must be prime — the limb backend's inverse, and with it Inverse, is only an
// inverse modulo a prime — and every caller in this repository constructs
// fields over the primes produced by param generation.
//
// All operations are immutable with respect to their operands: methods on
// *Element write into the receiver and return it (math/big style), so
// chains like e.Mul(x, y).Square(e) work, and no method retains references
// to argument internals.
//
//cryptolint:vartime (Exp branches on its exponent's bits and the Lucas ladder runs for its exponent's length — public q and (p+1)/q in every in-repo caller but GT.Exp's; the coordinate arithmetic underneath, inversion and the ladder's step included, is fp's constant-time contract)
package gf

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/fp"
)

// ErrNotInvertible is returned when inverting the zero element.
var ErrNotInvertible = errors.New("gf: zero element is not invertible")

// Field describes F_p² for a fixed prime p ≡ 3 (mod 4). A Field value is
// immutable after construction and safe for concurrent use.
type Field struct {
	p    *big.Int  //cryptolint:public (field parameters)
	fp   *fp.Field //cryptolint:public (field parameters)
	size int       // bytes per serialized coordinate
	one  []uint64  // 1 in Montgomery form, for SquareUnitary
	two  []uint64  // 2 = V_0: a trace ladder that ends here ended at 1
	half []uint64  // 1/2, from a trace back to a real part
}

// NewField constructs the quadratic extension over the prime p.
// It returns an error unless p ≡ 3 (mod 4) (needed for i² = −1 to define a
// field: −1 must be a non-residue). Primality itself is the caller's
// contract, as it is fp.New's.
func NewField(p *big.Int) (*Field, error) {
	if p.Sign() <= 0 {
		return nil, fmt.Errorf("gf: modulus must be positive")
	}
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, fmt.Errorf("gf: modulus must be ≡ 3 (mod 4), got %v (mod 4)", new(big.Int).Mod(p, big.NewInt(4)))
	}
	base, err := fp.New(p)
	if err != nil {
		return nil, fmt.Errorf("gf: %w", err)
	}
	f := &Field{
		p:    new(big.Int).Set(p),
		fp:   base,
		size: base.ByteLen(),
		one:  base.NewElt(),
		two:  base.NewElt(),
		half: base.NewElt(),
	}
	base.SetOne(f.one)
	base.Double(f.two, f.one)
	f.setCoord(f.half, new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 1))
	return f, nil
}

// P returns (a copy of) the characteristic. Each call allocates; hot loops
// should hold the limb-level field from Fp instead.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// Fp exposes the Montgomery limb backend for the base field F_p. The
// pairing Miller loop computes its line coefficients there and injects them
// via SetMont, bypassing big.Int entirely.
func (f *Field) Fp() *fp.Field { return f.fp }

// Element is an element a + b·i of F_p², coordinates in Montgomery form.
// The zero value is usable as the receiver of any arithmetic method
// (storage is adopted from the operands' field on first use).
type Element struct {
	f    *Field
	a, b []uint64
}

// ensure makes the receiver's coordinate storage usable so the arithmetic
// methods can compute in place. The Miller loop and GT exponentiation call
// these methods millions of times; reusing receiver storage removes all
// per-op allocation after the first touch.
func (e *Element) ensure(f *Field) {
	n := f.fp.Limbs()
	if len(e.a) != n && len(e.b) != n {
		ab := make([]uint64, 2*n)
		e.a, e.b = ab[:n:n], ab[n:]
	}
	if len(e.a) != n {
		e.a = make([]uint64, n)
	}
	if len(e.b) != n {
		e.b = make([]uint64, n)
	}
	e.f = f
}

// NewElement builds the element a + b·i (values are reduced mod p and copied).
func (f *Field) NewElement(a, b *big.Int) *Element {
	e := new(Element)
	return f.SetElement(e, a, b)
}

// Zero returns the additive identity.
func (f *Field) Zero() *Element {
	e := new(Element)
	e.ensure(f)
	return e
}

// One returns the multiplicative identity.
func (f *Field) One() *Element {
	e := f.Zero()
	f.fp.Set(e.a, f.one)
	return e
}

// FromInt lifts an F_p element into F_p².
func (f *Field) FromInt(a *big.Int) *Element { return f.NewElement(a, big.NewInt(0)) }

// SetElement loads (a mod p) + (b mod p)·i into e, reusing e's existing
// coordinate storage when present.
func (f *Field) SetElement(e *Element, a, b *big.Int) *Element {
	e.ensure(f)
	f.setCoord(e.a, a)
	f.setCoord(e.b, b)
	return e
}

func (f *Field) setCoord(dst []uint64, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(f.p) >= 0 {
		v = new(big.Int).Mod(v, f.p)
	}
	// In range after the reduction above, so FromBig cannot fail; the
	// second reduction is defensive (keeps this path panic-free).
	if err := f.fp.FromBig(dst, v); err != nil {
		f.fp.SetZero(dst)
	}
}

// NewElements returns n zero elements of f whose coordinates share one
// slab: two allocations for any n, where n separate elements take 2n.
func (f *Field) NewElements(n int) []Element {
	k := f.fp.Limbs()
	es, slab := make([]Element, n), make([]uint64, 2*k*n)
	for i := range es {
		ab := slab[2*k*i : 2*k*(i+1)]
		es[i] = Element{f: f, a: ab[:k:k], b: ab[k:]}
	}
	return es
}

// SetMont loads the Montgomery-form F_p coordinates (re, im) into e. This
// is the zero-conversion entry point for limb-level producers such as the
// pairing line evaluator; the slices are copied, not retained.
func (f *Field) SetMont(e *Element, re, im []uint64) *Element {
	e.ensure(f)
	f.fp.Set(e.a, re)
	f.fp.Set(e.b, im)
	return e
}

// Field returns the field the element belongs to.
func (e *Element) Field() *Field { return e.f }

// Re returns a copy of the real coordinate. Each call converts out of
// Montgomery form and allocates; not for hot loops.
func (e *Element) Re() *big.Int { return e.f.fp.ToBig(e.a) }

// Im returns a copy of the imaginary coordinate (same cost caveat as Re).
func (e *Element) Im() *big.Int { return e.f.fp.ToBig(e.b) }

// Copy returns an independent copy of e.
func (e *Element) Copy() *Element {
	c := new(Element)
	return c.Set(e)
}

// Set copies x into e and returns e.
func (e *Element) Set(x *Element) *Element {
	e.ensure(x.f)
	x.f.fp.Set(e.a, x.a)
	x.f.fp.Set(e.b, x.b)
	return e
}

// IsZero reports whether e is the additive identity.
func (e *Element) IsZero() bool { return e.f.fp.IsZero(e.a) && e.f.fp.IsZero(e.b) }

// IsOne reports whether e is the multiplicative identity.
func (e *Element) IsOne() bool { return e.f.fp.IsOne(e.a) && e.f.fp.IsZero(e.b) }

// Equal reports whether e and x denote the same field element.
func (e *Element) Equal(x *Element) bool {
	return e.f.fp.Equal(e.a, x.a) && e.f.fp.Equal(e.b, x.b)
}

// Add sets e = x + y and returns e. The coordinate-wise operations are
// aliasing-safe (each output coordinate depends only on the matching input
// coordinates), so the receiver's storage is reused directly.
func (e *Element) Add(x, y *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.Add(e.a, x.a, y.a)
	f.fp.Add(e.b, x.b, y.b)
	return e
}

// Sub sets e = x − y and returns e.
func (e *Element) Sub(x, y *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.Sub(e.a, x.a, y.a)
	f.fp.Sub(e.b, x.b, y.b)
	return e
}

// Neg sets e = −x and returns e.
func (e *Element) Neg(x *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.Neg(e.a, x.a)
	f.fp.Neg(e.b, x.b)
	return e
}

// Mul sets e = x · y and returns e. The tower multiplication is Karatsuba
// over the limb backend (three base-field multiplications, with lazy
// reduction when the modulus leaves headroom in its top limb; at paper size
// on an ADX CPU, one assembly call — fp.Field.MulFp2).
func (e *Element) Mul(x, y *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.MulFp2(e.a, e.b, x.a, x.b, y.a, y.b)
	return e
}

// MulLine sets e = e · ((alpha·x + beta) + y·i) for F_p values given as
// Montgomery limbs and returns e: a fixed-argument Miller program's line
// evaluated at the second argument (x, y) and folded into the accumulator
// e, in one fp.Field.MulLine. e must already hold an element of the field.
func (e *Element) MulLine(alpha, beta, x, y []uint64) *Element {
	e.f.fp.MulLine(e.a, e.b, alpha, beta, x, y)
	return e
}

// The ring F_p[j]/(j² + s), for a nonzero square s = y² of F_p, is F_p²
// again, by j ↦ y·i. An element a + b·j is stored as a + b·i is, so a
// pairing that knows s = x³ + x but not y (pairing.FixedPair.PairX) runs its
// Miller loop on Elements; SquareJ, MulJ and MulLineJ are Square, Mul and
// MulLine in that ring, and ExpUnitaryPart takes s. With s = 1 the ring is
// F_p² itself.

// SquareJ sets e = x² = (a² − s·b²) + 2ab·j in F_p[j]/(j² + s) and returns
// e: four products, where Square, with s = 1 folded in, needs two.
func (e *Element) SquareJ(x *Element, s []uint64) *Element {
	f := x.f
	F := f.fp
	var t1, t2 [fp.MaxLimbs]uint64
	n := F.Limbs()
	aa, sbb := t1[:n], t2[:n]
	F.Square(aa, x.a)
	F.Square(sbb, x.b)
	F.Mul(sbb, sbb, s)
	e.ensure(f)
	F.Mul(e.b, x.a, x.b) // x.a is read here for the last time: e may alias x
	F.Double(e.b, e.b)
	F.Sub(e.a, aa, sbb)
	return e
}

// MulJ sets e = x·y = (x₀y₀ − s·x₁y₁) + (x₀y₁ + x₁y₀)·j in F_p[j]/(j² + s)
// and returns e, by Karatsuba: four products.
func (e *Element) MulJ(x, y *Element, s []uint64) *Element {
	f := x.f
	F := f.fp
	var t1, t2, t3, t4 [fp.MaxLimbs]uint64
	n := F.Limbs()
	t0, u1, sx, sy := t1[:n], t2[:n], t3[:n], t4[:n]
	F.Mul(t0, x.a, y.a)
	F.Mul(u1, x.b, y.b)
	F.Add(sx, x.a, x.b)
	F.Add(sy, y.a, y.b)
	F.Mul(sx, sx, sy)
	F.Sub(sx, sx, t0)
	F.Sub(sx, sx, u1)
	F.Mul(u1, u1, s)
	e.ensure(f)
	F.Sub(e.a, t0, u1)
	F.Set(e.b, sx)
	return e
}

// MulLineJ sets e = e·(L + j) = (aL − s·b) + (a + bL)·j in F_p[j]/(j² + s)
// for L = alpha·x + beta, and returns e: a fixed-argument Miller program's
// line evaluated at an evaluation point of abscissa x (MulLine's line with
// j for y·i), four products. e must already hold an element of the field.
func (e *Element) MulLineJ(alpha, beta, x, s []uint64) *Element {
	F := e.f.fp
	var t1, t2, t3 [fp.MaxLimbs]uint64
	n := F.Limbs()
	l, sb, bl := t1[:n], t2[:n], t3[:n]
	F.Mul(l, alpha, x)
	F.Add(l, l, beta)
	F.Mul(sb, e.b, s)
	F.Mul(bl, e.b, l)
	F.Add(e.b, e.a, bl)
	F.Mul(e.a, e.a, l)
	F.Sub(e.a, e.a, sb)
	return e
}

// ReplayJ sets e to a fixed-argument Miller program's replay in
// F_p[j]/(j² + s) at the abscissa x, times an F_p* factor (a pairing's
// final exponentiation removes it), in one call of the lane engine
// (fp.Field.ReplayJ, which has the program's layout), and reports whether
// it did; false leaves e alone, where the field's kernel has no lanes.
func (e *Element) ReplayJ(kinds []byte, lines, x, s []uint64) bool {
	return e.f.fp.ReplayJ(e.a, e.b, kinds, lines, x, s)
}

// WalkJ runs steps doubling steps of a one-pair Miller walk with e as its
// accumulator in F_p[j]/(j² + s), on the lane engine (fp.Field.WalkJ, which
// has the step), and reports whether it did; false leaves e and the
// running point (X, Y, Z) alone, where the field's kernel has no lanes.
func (e *Element) WalkJ(X, Y, Z, x, s []uint64, steps int) bool {
	return e.f.fp.WalkJ(X, Y, Z, e.a, e.b, x, s, steps)
}

// FromJ sets e = a + (b·y)·i for x = a + b·j of F_p[j]/(j² + y²) and
// returns e: the ring's isomorphism onto F_p², for the holder of y.
func (e *Element) FromJ(x *Element, y []uint64) *Element {
	e.Set(x)
	e.f.fp.Mul(e.b, e.b, y)
	return e
}

// MulScalar sets e = k · x for k ∈ F_p and returns e.
func (e *Element) MulScalar(x *Element, k *big.Int) *Element {
	f := x.f
	e.ensure(f)
	var buf [fp.MaxLimbs]uint64
	km := buf[:f.fp.Limbs()]
	f.setCoord(km, k)
	f.fp.Mul(e.a, x.a, km)
	f.fp.Mul(e.b, x.b, km)
	return e
}

// Square sets e = x² and returns e, using (a+bi)² = (a+b)(a−b) + 2ab·i.
func (e *Element) Square(x *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.SquareFp2(e.a, e.b, x.a, x.b)
	return e
}

// SquareUnitary sets e = x² for a *unitary* x (norm a² + b² = 1, e.g. any
// value of the form y^(p−1) = conj(y)/y, which is what a pairing final
// exponentiation produces after its easy part) and returns e. The norm
// relation collapses the square to
//
//	(a + bi)² = (2a² − 1) + ((a + b)² − 1)·i,
//
// two base-field squarings instead of the three multiplications of Square.
// The caller must guarantee unitarity; for a general x the result is
// simply wrong.
func (e *Element) SquareUnitary(x *Element) *Element {
	f := x.f
	e.ensure(f)
	var t1, t2 [fp.MaxLimbs]uint64
	n := f.fp.Limbs()
	aa, s := t1[:n], t2[:n]
	f.fp.Square(aa, x.a)
	f.fp.Double(aa, aa)
	f.fp.Sub(aa, aa, f.one)
	f.fp.Add(s, x.a, x.b)
	f.fp.Square(s, s)
	f.fp.Sub(s, s, f.one)
	f.fp.Set(e.a, aa)
	f.fp.Set(e.b, s)
	return e
}

// IsUnitary reports whether e has norm a² + b² = 1 — the precondition of
// SquareUnitary, and of taking Conjugate for the inverse. It is IsUnitaryJ
// in F_p² itself.
func (e *Element) IsUnitary() bool { return e.IsUnitaryJ(nil) }

// IsUnitaryJ reports whether e = a + b·j has norm a² + s·b² = 1 in
// F_p[j]/(j² + s) (see SquareJ; nil s is 1, F_p²) — the trace ladder's
// precondition there, as norm 1 is in F_p².
func (e *Element) IsUnitaryJ(s []uint64) bool {
	f := e.f
	var t1, t2 [fp.MaxLimbs]uint64
	n := f.fp.Limbs()
	aa, bb := t1[:n], t2[:n]
	f.fp.Square(aa, e.a)
	f.fp.Square(bb, e.b)
	if s != nil {
		f.fp.Mul(bb, bb, s)
	}
	f.fp.Add(aa, aa, bb)
	return f.fp.IsOne(aa)
}

// Conjugate sets e = a − b·i for x = a + b·i and returns e. Conjugation is
// the Frobenius map x ↦ x^p on F_p².
func (e *Element) Conjugate(x *Element) *Element {
	f := x.f
	e.ensure(f)
	f.fp.Set(e.a, x.a)
	f.fp.Neg(e.b, x.b)
	return e
}

// Inverse sets e = x⁻¹ and returns e, via x⁻¹ = conj(x)/(a² + b²), with the
// norm inverted by fp.Field.Inv (constant-time). It returns ErrNotInvertible
// for x = 0.
func (e *Element) Inverse(x *Element) (*Element, error) {
	if x.IsZero() {
		return nil, ErrNotInvertible
	}
	f := x.f
	var t1, t2 [fp.MaxLimbs]uint64
	n := f.fp.Limbs()
	norm, bb := t1[:n], t2[:n]
	f.fp.Square(norm, x.a)
	f.fp.Square(bb, x.b)
	f.fp.Add(norm, norm, bb)
	if err := f.fp.Inv(norm, norm); err != nil {
		return nil, ErrNotInvertible
	}
	e.ensure(f)
	f.fp.Mul(bb, x.b, norm) // before e.a is written: e may alias x
	f.fp.Mul(e.a, x.a, norm)
	f.fp.Neg(e.b, bb)
	return e, nil
}

// Exp sets e = x^k (k ≥ 0) and returns e, by square-and-multiply.
// A negative k is rejected; invert first when needed.
func (e *Element) Exp(x *Element, k *big.Int) (*Element, error) {
	if k.Sign() < 0 {
		return nil, errors.New("gf: negative exponent")
	}
	result := x.f.One()
	base := x.Copy()
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			result.Mul(result, base)
		}
		base.Square(base)
	}
	return e.Set(result), nil
}

// ImInverse sets z = 1/Im(e), or 0 where Im(e) = 0, by the constant-time
// fp.Field.Inv: what ExpUnitaries divides by to recover a power's imaginary
// part. On the norm-1 group Im(e) = 0 only for e = ±1, whose powers have no
// imaginary part to recover. A caller that raises one element to many
// exponents computes it once.
func (e *Element) ImInverse(z []uint64) { e.ImInverseJ(z, nil) }

// ImInverseJ is ImInverse for e = a + b·j in F_p[j]/(j² + s) (nil s is 1,
// F_p²): z = 1/(b·s), or 0 where b = 0 — what ExpUnitaries divides by to
// recover a power's j-coordinate, since through j ↦ y·i it divides by the
// imaginary part b·y and the j-coordinate is that quotient over y again.
func (e *Element) ImInverseJ(z []uint64, s []uint64) {
	F := e.f.fp
	var tb [fp.MaxLimbs]uint64
	t := tb[:F.Limbs()]
	F.Set(t, e.b)
	if s != nil {
		F.Mul(t, t, s)
	}
	if err := F.Inv(z, t); err != nil {
		F.SetZero(z)
	}
}

// ExpUnitaries sets es[m] = xs[m]^k for unitary elements xs[m] and an
// exponent 0 ≤ k < 2^bits, given invIm[m] = xs[m].ImInverse: the element
// Exp computes, by the trace ladder (expUnitaries) over exactly bits bits,
// fp.MaxLadders elements to one fp.Field.LucasLadders call — the same
// products for every k of that size, and no inversion. It is the secret
// exponent's kernel: bits is the public bound (|q|), never k's length. A
// non-unitary element gets a wrong answer; callers check. es[m] may alias
// xs[m].
func (f *Field) ExpUnitaries(es, xs []*Element, invIm [][]uint64, k *big.Int, bits int) {
	var as [fp.MaxLadders][]uint64
	for i := 0; i < len(xs); i += fp.MaxLadders {
		j := min(i+fp.MaxLadders, len(xs))
		for m, x := range xs[i:j] {
			as[m] = x.a
		}
		f.expUnitaries(es[i:j], as[:j-i], invIm[i:j], k, bits)
	}
}

// expUnitaries sets es[m] = (a_m + b_m·i)^k for up to fp.MaxLadders unitary
// elements, given their real parts as[m] and invB[m] = 1/b_m (0 for b_m = 0,
// the elements ±1). For a unitary g the norm relation makes the traces of
// its powers, V_j = g^j + g^−j = 2·Re(g^j), a sequence of their own — the
// Lucas sequence V_j(2a, 1), i.e. 2·T_j(a) for the Chebyshev polynomial
// T_j — so fp.Field.LucasLadders reaches (V_k, V_(k+1)) with one base-field
// squaring and one multiplication per exponent bit (one assembly call at
// paper size, for all the elements on the lane engine), against two
// squarings plus a share of a general multiplication for square-and-multiply
// over SquareUnitary; on the trace rather than the real parts c_j = V_j/2 a
// step needs no doubling. Then c_k = V_k/2, and c_(k+1) = a·c_k − b·s_k
// recovers the imaginary part s_k = (a·V_k − V_(k+1))/2b; for b = 0 the
// numerator is 0, and so is s_k. The ladder walks bits bits of k; its bits
// only steer selections, bits is the loop bound.
func (f *Field) expUnitaries(es []*Element, as, invB [][]uint64, k *big.Int, bits int) {
	F := f.fp
	n := F.Limbs()
	var b1, b2, b3 [fp.MaxLadders][fp.MaxLimbs]uint64
	var vk, vk1, v1 [fp.MaxLadders][]uint64
	for m, a := range as {
		vk[m], vk1[m], v1[m] = b1[m][:n], b2[m][:n], b3[m][:n]
		F.Double(v1[m], a)
	}
	c := len(as)
	F.LucasLadders(vk[:c], vk1[:c], v1[:c], k, bits)
	for m, e := range es {
		e.ensure(f)
		F.Mul(e.b, as[m], vk[m])
		F.Sub(e.b, e.b, vk1[m])
		F.Mul(e.b, e.b, invB[m])
		F.Mul(e.b, e.b, f.half)
		F.Mul(e.a, vk[m], f.half)
	}
}

// ExpUnitaryPart sets e = (x^(p−1))^k = (x̄/x)^k for k ≥ 0 and returns e —
// the shape of a pairing final exponentiation, whose easy part x^(p−1)
// projects x onto the unitary subgroup and whose tail k then runs on the
// trace ladder (expUnitaries). x and the result are in F_p[j]/(j² + s) for
// a nonzero square s (see SquareJ; nil s is 1, F_p² itself), where the
// Frobenius is again a + b·j ↦ a − b·j. With x = u + v·j and
// N = u² + s·v², the norm,
//
//	x̄/x = x̄²/N = ((u² − s·v²) − 2uv·j)/N,
//
// so one inversion, of N·2uv·s, serves both the division by N and the
// 1/(s·b) the ladder needs to recover the power's j-coordinate, b = −2uv/N
// being x̄/x's: through j ↦ y·i the ladder divides by the imaginary part
// b·y, and the j-coordinate is that quotient over y again, b·y² = s·b in
// all. x̄/x = ±1 (uv = 0) has no such inverse and is answered directly.
// The result is the same field element Inverse, Conjugate, Mul and Exp
// produce, read through j ↦ y·i. ErrNotInvertible for x = 0. It is
// ExpUnitaryParts for one element.
func (e *Element) ExpUnitaryPart(x *Element, s []uint64, k *big.Int) (*Element, error) {
	if err := x.f.ExpUnitaryParts([]*Element{e}, []*Element{x}, [][]uint64{s}, k); err != nil {
		return nil, err
	}
	return e, nil
}

// ExpUnitaryParts sets es[i] = ExpUnitaryPart(xs[i], ss[i], k) for every i,
// the same elements, finishing up to fp.MaxLadders of them together: one
// inversion for all their N·2uv·s by Montgomery's trick (a product chain,
// one fp.Field.Inv and three products an element back), and one
// fp.Field.LucasLadders call for all their ladders, which read only the
// traces, so elements of different rings (different s) share it.
// ErrNotInvertible if any xs[i] is 0, before anything is written. es[i] may
// alias xs[i], and no other xs.
func (f *Field) ExpUnitaryParts(es, xs []*Element, ss [][]uint64, k *big.Int) error {
	if len(es) != len(xs) || len(ss) != len(xs) {
		return errors.New("gf: ExpUnitaryParts needs one result and one ring per element")
	}
	if k.Sign() < 0 {
		return errors.New("gf: negative exponent")
	}
	for _, x := range xs {
		if x.IsZero() {
			return ErrNotInvertible
		}
	}
	for i := 0; i < len(xs); i += fp.MaxLadders {
		j := min(i+fp.MaxLadders, len(xs))
		if err := f.expUnitaryParts(es[i:j], xs[i:j], ss[i:j], k); err != nil {
			return err
		}
	}
	return nil
}

// expUnitaryParts is ExpUnitaryParts for up to fp.MaxLadders nonzero
// elements.
func (f *Field) expUnitaryParts(es, xs []*Element, ss [][]uint64, k *big.Int) error {
	F := f.fp
	n := F.Limbs()
	const L = fp.MaxLadders
	var ab, nb, mb, pb [L][fp.MaxLimbs]uint64
	var as, invB [L][]uint64
	var ladder [L]*Element
	c := 0
	for i, x := range xs {
		if F.IsZero(x.a) || F.IsZero(x.b) {
			// x real: x̄/x = 1. x imaginary: x̄/x = −1, and (−1)^k = ±1.
			minus := F.IsZero(x.a) && k.Bit(0) == 1
			e := es[i]
			e.ensure(f)
			F.Set(e.a, f.one)
			if minus {
				F.Neg(e.a, e.a)
			}
			F.SetZero(e.b)
			continue
		}
		s := ss[i]
		if s == nil {
			s = f.one
		}
		a, norm, m := ab[c][:n], nb[c][:n], mb[c][:n]
		F.Square(a, x.a)
		F.Square(m, x.b)
		F.Mul(m, m, s)
		F.Add(norm, a, m) // N
		F.Sub(a, a, m)    // u² − s·v²
		F.Mul(m, x.a, x.b)
		F.Double(m, m) // 2uv
		F.Mul(m, m, s) // 2uv·s
		as[c], invB[c], ladder[c] = a, norm, es[i]
		c++
	}
	if c == 0 {
		return nil
	}
	// prefix[l] = Π_(i<l) N_i·2u_iv_i·s_i; acc ends as the inverse of all.
	var accb, db [fp.MaxLimbs]uint64
	acc, d := accb[:n], db[:n]
	F.SetOne(acc)
	for l := range c {
		F.Set(pb[l][:n], acc)
		F.Mul(d, nb[l][:n], mb[l][:n])
		F.Mul(acc, acc, d)
	}
	if err := F.Inv(acc, acc); err != nil {
		// N = 0 needs −s to be a square, which a square s and
		// p ≡ 3 (mod 4) exclude.
		return ErrNotInvertible
	}
	for l := c - 1; l >= 0; l-- {
		inv, norm, m := pb[l][:n], nb[l][:n], mb[l][:n]
		F.Mul(inv, inv, acc) // 1/(N·2uv·s)
		F.Mul(d, norm, m)
		F.Mul(acc, acc, d)
		// a = (u² − s·v²)/N = (u² − s·v²)·2uv·s·inv; 1/(s·b) = −N/(2uv·s) = −N²·inv.
		F.Mul(as[l], as[l], m)
		F.Mul(as[l], as[l], inv)
		F.Square(norm, norm)
		F.Mul(norm, norm, inv)
		F.Neg(norm, norm)
	}
	f.expUnitaries(ladder[:c], as[:c], invB[:c], k, k.BitLen())
	return nil
}

// UnitaryOrderDivides reports whether e is unitary and e^k = 1 (k ≥ 0) —
// membership in the order-k subgroup of the norm-1 group when k divides
// p+1, which is how the pairing's GT check uses it. For a unitary element
// the trace alone decides: V_k = 2, i.e. c_k = 1, forces s_k² = 1 − c_k² = 0. When k
// divides p+1 the verdict is Exp(e, k).IsOne()'s on every input — an
// element of such an order is unitary to begin with, and zero is neither.
func (e *Element) UnitaryOrderDivides(k *big.Int) bool {
	if k.Sign() < 0 {
		return false
	}
	var ok [1]bool
	e.f.orderDivides([]*Element{e}, k, ok[:])
	return ok[0]
}

// orderDivides sets ok[i] to UnitaryOrderDivides(es[i], k) for up to
// fp.MaxLadders elements, their ladders in one LucasLadders call.
func (f *Field) orderDivides(es []*Element, k *big.Int, ok []bool) {
	F := f.fp
	n := F.Limbs()
	var b1, b2, b3 [fp.MaxLadders][fp.MaxLimbs]uint64
	var vk, vk1, v1 [fp.MaxLadders][]uint64
	var at [fp.MaxLadders]int
	c := 0
	for i, e := range es {
		if ok[i] = e.IsUnitary(); !ok[i] {
			continue
		}
		vk[c], vk1[c], v1[c], at[c] = b1[c][:n], b2[c][:n], b3[c][:n], i
		F.Double(v1[c], e.a)
		c++
	}
	F.LucasLadders(vk[:c], vk1[:c], v1[:c], k, k.BitLen())
	for l := range c {
		ok[at[l]] = F.Equal(vk[l], f.two)
	}
}

// UnitaryTracesMeet reports whether e is unitary and its traces at 2^a and
// 2^b + 1 agree, V_(2^a) = V_(2^b+1), for 0 ≤ b < a. Since
//
//	V_x − V_y = (g^x − g^y)(1 − g^−(x+y)),
//
// that holds exactly when e^(2^a + 2^b + 1) = 1 or e^(2^a − 2^b − 1) = 1. It
// is a membership test for the first group only where no element of the
// norm-1 group but 1 lies in the second, which is UnitarySubgroup's gcd
// condition; alone it proves nothing about e's order.
func (e *Element) UnitaryTracesMeet(a, b int) bool {
	if b < 0 || b >= a {
		return false
	}
	var ok [1]bool
	e.f.tracesMeet([]*Element{e}, new(big.Int).Lsh(big.NewInt(1), uint(b)), a-b, ok[:])
	return ok[0]
}

// tracesMeet sets ok[i] to UnitaryTracesMeet(es[i], a, b) with low = 2^b
// and gap = a − b, for up to fp.MaxLadders elements: the trace ladder over
// 2^b gives (V_(2^b), V_(2^b+1)) in b + 1 steps, every element's in one
// LucasLadders call, and gap doublings V_2j = V_j² − 2 carry the first to
// V_(2^a) (LucasDoublings: one lane ladder over 2^gap for two elements or
// more, squarings otherwise).
func (f *Field) tracesMeet(es []*Element, low *big.Int, gap int, ok []bool) {
	F := f.fp
	n := F.Limbs()
	var b1, b2, b3 [fp.MaxLadders][fp.MaxLimbs]uint64
	var v, w, v1 [fp.MaxLadders][]uint64
	var at [fp.MaxLadders]int
	c := 0
	for i, e := range es {
		if ok[i] = e.IsUnitary(); !ok[i] {
			continue
		}
		v[c], w[c], v1[c], at[c] = b1[c][:n], b2[c][:n], b3[c][:n], i
		F.Double(v1[c], e.a)
		c++
	}
	F.LucasLadders(v[:c], w[:c], v1[:c], low, low.BitLen())
	F.LucasDoublings(v[:c], gap)
	for l := range c {
		ok[at[l]] = F.Equal(v[l], w[l])
	}
}

// UnitarySubgroup is the subgroup of order q of F_p²'s norm-1 group, for an
// odd q dividing p + 1, with its membership test decided once, at
// construction, from p and q alone. Contains is the verdict of "e is unitary
// and e^q = 1" on every input. Where q = 2^a + 2^b + 1 (b < a) and
// gcd(p + 1, 2^a − 2^b − 1) = 1, it compares two traces (UnitaryTracesMeet):
// b + 1 ladder steps and a − b squarings, where the ladder over q takes a + 1
// steps of a squaring and a multiplication each. Every other q runs that
// ladder (UnitaryOrderDivides). Immutable and safe for concurrent use.
type UnitarySubgroup struct {
	f     *Field
	order *big.Int
	low   *big.Int // 2^b when the traces decide, nil when the ladder does
	gap   int      // a − b
}

// NewUnitarySubgroup returns the order-q subgroup of f's norm-1 group; q must
// be odd and divide p + 1.
func (f *Field) NewUnitarySubgroup(q *big.Int) (*UnitarySubgroup, error) {
	one := big.NewInt(1)
	norm1 := new(big.Int).Add(f.p, one) // the norm-1 group's order
	if q.Sign() <= 0 || q.Bit(0) == 0 || new(big.Int).Mod(norm1, q).Sign() != 0 {
		return nil, errors.New("gf: subgroup order must be odd and divide p + 1")
	}
	s := &UnitarySubgroup{f: f, order: new(big.Int).Set(q)}
	m := new(big.Int).Sub(q, one)
	a, b := m.BitLen()-1, int(m.TrailingZeroBits())
	if b >= a || m.Cmp(new(big.Int).SetBit(new(big.Int).Lsh(one, uint(a)), b, 1)) != 0 {
		return s, nil // q − 1 is not two powers of 2
	}
	mirror := new(big.Int).Lsh(one, uint(a))
	mirror.Sub(mirror, new(big.Int).Lsh(one, uint(b))).Sub(mirror, one)
	if new(big.Int).GCD(nil, nil, norm1, mirror).Cmp(one) == 0 {
		s.low, s.gap = new(big.Int).Lsh(one, uint(b)), a-b
	}
	return s, nil
}

// Contains reports whether e lies in the subgroup.
func (s *UnitarySubgroup) Contains(e *Element) bool {
	var ok [1]bool
	s.ContainsEach([]*Element{e}, ok[:])
	return ok[0]
}

// ContainsEach sets ok[i] to Contains(es[i]) for every i: each element's
// own verdict, never one test on a combination of them. Up to fp.MaxLadders
// elements share each ladder call, which on the lane engine costs what one
// element's does.
func (s *UnitarySubgroup) ContainsEach(es []*Element, ok []bool) {
	for i := 0; i < len(es); i += fp.MaxLadders {
		j := min(i+fp.MaxLadders, len(es))
		if s.low == nil {
			s.f.orderDivides(es[i:j], s.order, ok[i:j])
		} else {
			s.f.tracesMeet(es[i:j], s.low, s.gap, ok[i:j])
		}
	}
}

// ComparesTraces reports which test Contains runs: the trace comparison
// (true) or the ladder over q (false).
func (s *UnitarySubgroup) ComparesTraces() bool { return s.low != nil }

// String renders the element as "a + b·i" for debugging.
func (e *Element) String() string {
	return fmt.Sprintf("%v + %v·i", e.Re(), e.Im()) //cryptolint:public (String is the debug rendering; secretleak judges who prints which element at String's call sites)
}

// Bytes serializes the element as the fixed-width big-endian concatenation
// a ‖ b, each ⌈|p|/8⌉ bytes, straight from the limbs.
func (e *Element) Bytes() []byte {
	size := e.f.size
	out := make([]byte, 2*size)
	e.f.fp.FillBytes(out[:size], e.a)
	e.f.fp.FillBytes(out[size:], e.b)
	return out
}

// ElementFromBytes parses the serialization produced by Element.Bytes
// straight into limbs.
func (f *Field) ElementFromBytes(data []byte) (*Element, error) {
	size := f.size
	if len(data) != 2*size {
		return nil, fmt.Errorf("gf: element encoding must be %d bytes, got %d", 2*size, len(data))
	}
	e := f.Zero()
	if f.fp.SetBytes(e.a, data[:size]) != nil || f.fp.SetBytes(e.b, data[size:]) != nil {
		return nil, fmt.Errorf("gf: coordinate out of field range")
	}
	return e, nil
}
