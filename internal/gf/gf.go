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
// SquareUnitary, and of taking Conjugate for the inverse.
func (e *Element) IsUnitary() bool {
	f := e.f
	var t1, t2 [fp.MaxLimbs]uint64
	n := f.fp.Limbs()
	aa, bb := t1[:n], t2[:n]
	f.fp.Square(aa, e.a)
	f.fp.Square(bb, e.b)
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

// expSecretWindow is ExpSecret's fixed window: a table of the sixteen powers
// x⁰ … x¹⁵, read in full for every four exponent bits.
const expSecretWindow = 4

// expOps counts what ExpSecret did, for the test that requires the counts to
// be the same for every exponent.
type expOps struct {
	Squares, Muls, EntriesRead int
}

// ExpSecret sets e = x^k for a secret exponent 0 ≤ k < 2^size, where size is
// public (the bit length of the group order), and returns e: the field
// element Exp computes, by a fixed-window ladder that runs the same squarings
// and multiplications and reads the same table entries for every such k —
// the exponent's bits pick table entries through fp.Select only, and a zero
// window multiplies by x⁰ like any other. No inversion and nothing allocated;
// slightly under Exp's price at 160 bits (a multiplication every fourth bit
// instead of every second).
func (e *Element) ExpSecret(x *Element, k *big.Int, size int) (*Element, error) {
	if _, err := e.expSecret(x, k, size); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Element) expSecret(x *Element, k *big.Int, size int) (ops expOps, err error) {
	if k.Sign() < 0 || k.BitLen() > size || size > 64*fp.MaxLimbs {
		return ops, errors.New("gf: secret exponent out of range")
	}
	f := x.f
	F := f.fp
	n := F.Limbs()
	const w = expSecretWindow

	// Entry i is x^i as the 2n words a ‖ b, all in one stack slab: even
	// powers by squaring, odd ones by one more factor x.
	var slab [(1 << w) * 2 * fp.MaxLimbs]uint64
	table := slab[: (1<<w)*2*n : (1<<w)*2*n]
	re := func(i int) []uint64 { return table[2*n*i : 2*n*i+n] }
	im := func(i int) []uint64 { return table[2*n*i+n : 2*n*(i+1)] }
	F.Set(re(0), f.one)
	F.Set(re(1), x.a)
	F.Set(im(1), x.b)
	for i := 2; i < 1<<w; i += 2 {
		F.SquareFp2(re(i), im(i), re(i/2), im(i/2))
		F.MulFp2(re(i+1), im(i+1), re(i), im(i), x.a, x.b)
		ops.Squares++
		ops.Muls++
	}

	// The exponent as fixed-width big-endian bytes: window i is a nibble.
	var kb [8 * fp.MaxLimbs]byte
	kbytes := kb[:(size+7)/8]
	k.FillBytes(kbytes)
	var rb, sb [2 * fp.MaxLimbs]uint64
	r, sel := rb[:2*n], sb[:2*n]
	digits := (size + w - 1) / w
	for i := digits - 1; i >= 0; i-- {
		d := kbytes[len(kbytes)-1-i/2] >> (w * uint(i&1)) & (1<<w - 1)
		fp.Lookup(sel, table, uint64(d))
		ops.EntriesRead += 1 << w
		if i == digits-1 {
			copy(r, sel)
			continue
		}
		for j := 0; j < w; j++ {
			F.SquareFp2(r[:n], r[n:], r[:n], r[n:])
		}
		F.MulFp2(r[:n], r[n:], r[:n], r[n:], sel[:n], sel[n:])
		ops.Squares += w
		ops.Muls++
	}
	e.ensure(f)
	F.Set(e.a, r[:n])
	F.Set(e.b, r[n:])
	return ops, nil
}

// expUnitary sets e = (a + b·i)^k for a unitary a + b·i with b ≠ 0, given
// invB = 1/b. For a unitary g the norm relation makes the traces of its
// powers, V_j = g^j + g^−j = 2·Re(g^j), a sequence of their own — the Lucas
// sequence V_j(2a, 1), i.e. 2·T_j(a) for the Chebyshev polynomial T_j — so
// fp.Field.LucasLadder reaches (V_k, V_(k+1)) with one base-field squaring
// and one multiplication per exponent bit (one assembly call at paper
// size), against two squarings plus a share of a general multiplication for
// square-and-multiply over SquareUnitary; on the trace rather than the real
// parts c_j = V_j/2 a step needs no doubling. Then c_k = V_k/2, and
// c_(k+1) = a·c_k − b·s_k recovers the imaginary part
// s_k = (a·V_k − V_(k+1))/2b. The exponents that reach the ladder — q and
// (p+1)/q — are public; its bits only steer selections, its length is the
// loop bound.
func (f *Field) expUnitary(e *Element, a, invB []uint64, k *big.Int) *Element {
	F := f.fp
	var b1, b2, b3 [fp.MaxLimbs]uint64
	n := F.Limbs()
	vk, vk1, v1 := b1[:n], b2[:n], b3[:n]
	F.Double(v1, a)
	F.LucasLadder(vk, vk1, v1, k)
	e.ensure(f)
	F.Mul(e.b, a, vk)
	F.Sub(e.b, e.b, vk1)
	F.Mul(e.b, e.b, invB)
	F.Mul(e.b, e.b, f.half)
	F.Mul(e.a, vk, f.half)
	return e
}

// ExpUnitaryPart sets e = (x^(p−1))^k = (x̄/x)^k for k ≥ 0 and returns e —
// the shape of a pairing final exponentiation, whose easy part x^(p−1)
// projects x onto the unitary subgroup and whose tail k then runs on the
// trace ladder (expUnitary). With x = u + v·i and N = u² + v²,
//
//	x̄/x = x̄²/N = ((u² − v²) − 2uv·i)/N,
//
// so one inversion, of N·2uv, serves both the division by N and the 1/b the
// ladder needs to recover the imaginary part; x̄/x = ±1 (uv = 0) has no such
// inverse and is answered directly. The result is the same field element
// Inverse, Conjugate, Mul and Exp produce. ErrNotInvertible for x = 0.
func (e *Element) ExpUnitaryPart(x *Element, k *big.Int) (*Element, error) {
	if x.IsZero() {
		return nil, ErrNotInvertible
	}
	if k.Sign() < 0 {
		return nil, errors.New("gf: negative exponent")
	}
	f := x.f
	F := f.fp
	if F.IsZero(x.a) || F.IsZero(x.b) {
		// x real: x̄/x = 1. x imaginary: x̄/x = −1, and (−1)^k = ±1.
		minus := F.IsZero(x.a) && k.Bit(0) == 1
		e.ensure(f)
		F.Set(e.a, f.one)
		if minus {
			F.Neg(e.a, e.a)
		}
		F.SetZero(e.b)
		return e, nil
	}
	var b1, b2, b3, b4 [fp.MaxLimbs]uint64
	n := F.Limbs()
	a, norm, m, inv := b1[:n], b2[:n], b3[:n], b4[:n]
	F.Square(a, x.a)
	F.Square(inv, x.b)
	F.Add(norm, a, inv) // N
	F.Sub(a, a, inv)    // u² − v²
	F.Mul(m, x.a, x.b)
	F.Double(m, m) // 2uv
	F.Mul(inv, norm, m)
	if err := F.Inv(inv, inv); err != nil {
		// N = 0 needs −1 to be a square, which p ≡ 3 (mod 4) excludes.
		return nil, ErrNotInvertible
	}
	// a = (u² − v²)/N = (u² − v²)·2uv·inv; 1/b = −N/2uv = −N²·inv.
	F.Mul(a, a, m)
	F.Mul(a, a, inv)
	invB := norm
	F.Square(invB, norm)
	F.Mul(invB, invB, inv)
	F.Neg(invB, invB)
	return f.expUnitary(e, a, invB, k), nil
}

// UnitaryOrderDivides reports whether e is unitary and e^k = 1 (k ≥ 0) —
// membership in the order-k subgroup of the norm-1 group when k divides
// p+1, which is how the pairing's GT check uses it. For a unitary element
// the trace alone decides: V_k = 2, i.e. c_k = 1, forces s_k² = 1 − c_k² = 0. When k
// divides p+1 the verdict is Exp(e, k).IsOne()'s on every input — an
// element of such an order is unitary to begin with, and zero is neither.
func (e *Element) UnitaryOrderDivides(k *big.Int) bool {
	if k.Sign() < 0 || !e.IsUnitary() {
		return false
	}
	f := e.f
	var b1, b2, b3 [fp.MaxLimbs]uint64
	n := f.fp.Limbs()
	vk, vk1, v1 := b1[:n], b2[:n], b3[:n]
	f.fp.Double(v1, e.a)
	f.fp.LucasLadder(vk, vk1, v1, k)
	return f.fp.Equal(vk, f.two)
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
	return e.unitaryTracesMeet(new(big.Int).Lsh(big.NewInt(1), uint(b)), a-b)
}

// unitaryTracesMeet is UnitaryTracesMeet with low = 2^b and gap = a − b: the
// trace ladder over 2^b gives (V_(2^b), V_(2^b+1)) in b + 1 steps, and gap
// squarings V_2j = V_j² − 2 carry the first to V_(2^a).
func (e *Element) unitaryTracesMeet(low *big.Int, gap int) bool {
	if !e.IsUnitary() {
		return false
	}
	f := e.f
	F := f.fp
	var b1, b2, b3 [fp.MaxLimbs]uint64
	n := F.Limbs()
	v, w, v1 := b1[:n], b2[:n], b3[:n]
	F.Double(v1, e.a)
	F.LucasLadder(v, w, v1, low)
	for i := 0; i < gap; i++ {
		F.Square(v, v)
		F.Sub(v, v, f.two)
	}
	return F.Equal(v, w)
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
	if s.low == nil {
		return e.UnitaryOrderDivides(s.order)
	}
	return e.unitaryTracesMeet(s.low, s.gap)
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
