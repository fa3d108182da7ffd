// Package fp is a Montgomery-representation prime-field backend on raw
// little-endian []uint64 limb vectors, built from math/bits primitives
// (Add64/Sub64/Mul64) with no math/big on any arithmetic path.
//
// This is the layer every pairing, scalar multiplication and SEM token in
// the repository bottoms out in: internal/gf stores its F_p² coordinates as
// fp limb vectors and the Miller-loop machinery in internal/pairing runs
// its point arithmetic directly on them. math/big survives only at the
// edges — serialization, hashing, scalar I/O — where a value crosses into
// or out of the field (see FromBig/ToBig).
//
// Representation. An element is a []uint64 of exactly Field.Limbs() limbs,
// least-significant first, holding a·R mod p for the logical value a, where
// R = 2^(64·limbs) (Montgomery form). All operations require fully reduced
// inputs (< p) and produce fully reduced outputs. Multiplication is CIOS
// (coarsely integrated operand scanning) Montgomery multiplication. The
// paper shape — 512-bit p, 8 limbs — takes straight-line kernels for Mul,
// Square, Add and Sub (fp8.go, generated by gen8.go), selected by limb
// count; every other width takes the any-width loops in this file, which
// are also the reference the kernels are tested against. On an amd64 CPU
// with ADX and BMI2, Mul and Square at 8 limbs run the one assembly
// function of the package instead (mul8 in fp8_amd64.s, from the same
// generator; see Kernel): the same function of its operands, bit for bit,
// on MULX with two carry chains. The purego build tag leaves it out.
//
// Allocation. No operation allocates: scratch lives in fixed-size stack
// arrays bounded by MaxLimbs, and destinations are caller-provided slices
// (obtain them with NewElt or reuse). This zero-alloc property is
// regression-gated by the benchtab baseline (allocs_per_op column).
//
// Timing. The arithmetic is branch-free on element values: carries are
// folded with masks (ConstantTimeSelect-style on limbs, see ctSelect /
// nonzeroMask), and Equal/IsZero accumulate over all limbs before
// collapsing to a bool. Inv is Bernstein–Yang's safegcd (inv.go): a number
// of divstep batches fixed by |p|, masks throughout. Branching on public
// quantities — the modulus, limb counts, the bits of Exp's exponent — is
// fine and used freely.
package fp

//go:generate go run gen8.go

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// MaxLimbs bounds the supported modulus width (16 limbs = 1024 bits). The
// bound exists so per-operation scratch can live in fixed-size stack
// arrays; every parameter set in the repository (96- to 512-bit p) is far
// below it.
const MaxLimbs = 16

// ErrNotInvertible is returned by Inv for the zero element.
var ErrNotInvertible = errors.New("fp: zero is not invertible")

// Field holds the modulus-derived constants of one F_p. Immutable after
// New and safe for concurrent use; all scratch is per-call.
type Field struct {
	n    int      // limb count
	p    []uint64 // modulus, little-endian limbs
	n0   uint64   // −p⁻¹ mod 2^64 (Montgomery constant)
	one  []uint64 // R mod p: the Montgomery form of 1
	rr   []uint64 // R² mod p: converts standard → Montgomery via one Mul
	pBig *big.Int // the modulus (for edge conversions and errors)

	// Inv's constants (inv.go): p in signed 62-bit limbs, R³ mod p and the
	// number of 62-divstep batches |p| calls for.
	p62     s62
	r3      []uint64
	batches int

	// lazy is set when p leaves at least two spare bits in its top limb
	// (bitlen(p) ≤ 64n − 2). Then sums of up to four limb products stay
	// below p·R and the F_p² tower can accumulate wide products and pay a
	// single Montgomery reduction per output coordinate (see MulFp2).
	lazy bool
	p2w  []uint64 // 2·p² as 2n limbs (offset making lazy differences non-negative)

	two []uint64 // 2 in Montgomery form, for LucasLadders

	lanes *laneField // the lane engine's constants, at 8 limbs (lane.go)
}

// New constructs the field of the odd prime p (at most MaxLimbs·64 bits).
// Primality is the caller's contract — Inv answers ErrNotInvertible for an x
// sharing a factor with a composite p, but nothing else here checks — and is
// not re-verified; every caller in this repository passes a generated or
// fixed pairing prime.
func New(p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() <= 1 {
		return nil, fmt.Errorf("fp: modulus must be an odd prime > 2")
	}
	n := (p.BitLen() + 63) / 64
	if n > MaxLimbs {
		return nil, fmt.Errorf("fp: modulus of %d bits exceeds the %d-bit limb-vector bound", p.BitLen(), MaxLimbs*64)
	}
	f := &Field{
		n:    n,
		p:    make([]uint64, n),
		pBig: new(big.Int).Set(p),
	}
	limbsFromBig(f.p, p)

	// n0 = −p⁻¹ mod 2^64 by Newton iteration: y ← y·(2 − p₀·y) doubles the
	// number of correct low bits each round; 6 rounds cover 64 bits.
	y := f.p[0]
	for i := 0; i < 6; i++ {
		y *= 2 - f.p[0]*y
	}
	f.n0 = -y

	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	r.Mod(r, p)
	f.one = make([]uint64, n)
	limbsFromBig(f.one, r)
	rr := new(big.Int).Lsh(big.NewInt(1), uint(128*n))
	rr.Mod(rr, p)
	f.rr = make([]uint64, n)
	limbsFromBig(f.rr, rr)
	f.two = make([]uint64, n)
	f.Add(f.two, f.one, f.one)

	f.lazy = p.BitLen() <= 64*n-2
	if f.lazy {
		p2 := new(big.Int).Mul(p, p)
		p2.Lsh(p2, 1)
		f.p2w = make([]uint64, 2*n)
		limbsFromBig(f.p2w, p2)
	}
	f.initInv(p)
	if n == 8 {
		f.lanes = newLaneField(f)
	}
	return f, nil
}

// Limbs returns the limb count of an element.
func (f *Field) Limbs() int { return f.n }

// P returns a copy of the modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.pBig) }

// NewElt allocates a zero element.
func (f *Field) NewElt() []uint64 { return make([]uint64, f.n) }

// SetZero sets z = 0.
//
//cryptolint:hotpath
func (f *Field) SetZero(z []uint64) {
	for i := range z {
		z[i] = 0
	}
}

// SetOne sets z = 1 (Montgomery form R mod p).
//
//cryptolint:hotpath
func (f *Field) SetOne(z []uint64) { copy(z, f.one) }

// Set copies x into z.
//
//cryptolint:hotpath
func (f *Field) Set(z, x []uint64) { copy(z, x) }

// IsZero reports whether x = 0, accumulating over all limbs before the
// final collapse (no data-dependent early exit).
//
//cryptolint:hotpath
func (f *Field) IsZero(x []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// IsOne reports whether x = 1 (branch-free over the limbs).
//
//cryptolint:hotpath
func (f *Field) IsOne(x []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i] ^ f.one[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// Equal reports whether x = y. Like IsZero it XOR-accumulates every limb
// pair before collapsing, so timing is independent of where the vectors
// first differ.
//
//cryptolint:hotpath
func (f *Field) Equal(x, y []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i] ^ y[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// Select sets z = x if v = 1 and z = y if v = 0, in constant time
// (crypto/subtle's ConstantTimeSelect lifted to limb vectors).
//
//cryptolint:hotpath
func Select(z, x, y []uint64, v int) {
	m := uint64(0) - uint64(v&1)
	for i := range z {
		z[i] = (x[i] & m) | (y[i] &^ m)
	}
}

// nonzeroMask returns all-ones if v ≠ 0 and zero otherwise, branch-free.
func nonzeroMask(v uint64) uint64 {
	return -((v | -v) >> 63)
}

// ctSelect folds the CIOS/Add tail: z[i] = keep[i] if mask is all-ones,
// else z[i] unchanged (z already holds the other candidate).
//
//cryptolint:hotpath
func ctSelect(z, keep []uint64, mask uint64) {
	for i := range z {
		z[i] = (keep[i] & mask) | (z[i] &^ mask)
	}
}

// Add sets z = x + y mod p. Aliasing of z with x or y is allowed (all
// linear ops here are single-pass with carries in registers).
//
//cryptolint:hotpath
func (f *Field) Add(z, x, y []uint64) {
	if f.n == 8 {
		f.add8(z, x, y)
		return
	}
	f.addGeneric(z, x, y)
}

// addGeneric is Add for any width up to MaxLimbs.
//
//cryptolint:hotpath
func (f *Field) addGeneric(z, x, y []uint64) {
	n := f.n
	var sb [MaxLimbs]uint64
	s := sb[:n]
	var c uint64
	for i := 0; i < n; i++ {
		s[i], c = bits.Add64(x[i], y[i], c)
	}
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(s[i], f.p[i], b)
	}
	// Keep the raw sum only when it did not overflow (c = 0) and the
	// subtraction borrowed (sum < p): mask = (c < b).
	_, keepSum := bits.Sub64(c, b, 0)
	ctSelect(z, s, -keepSum)
}

// Double sets z = 2x mod p.
//
//cryptolint:hotpath
func (f *Field) Double(z, x []uint64) { f.Add(z, x, x) }

// Sub sets z = x − y mod p (aliasing allowed).
//
//cryptolint:hotpath
func (f *Field) Sub(z, x, y []uint64) {
	if f.n == 8 {
		f.sub8(z, x, y)
		return
	}
	f.subGeneric(z, x, y)
}

// subGeneric is Sub for any width up to MaxLimbs.
//
//cryptolint:hotpath
func (f *Field) subGeneric(z, x, y []uint64) {
	n := f.n
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	// Add p back iff the subtraction borrowed, via a masked addend.
	m := -b
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(z[i], f.p[i]&m, c)
	}
}

// Neg sets z = −x mod p (0 maps to 0).
//
//cryptolint:hotpath
func (f *Field) Neg(z, x []uint64) {
	n := f.n
	var acc uint64
	for i := 0; i < n; i++ {
		acc |= x[i]
	}
	m := nonzeroMask(acc) // all-ones unless x = 0 (p − 0 = p would be unreduced)
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(f.p[i], x[i], b)
		z[i] &= m
	}
}

// madd returns the high and low words of a·b + c + d. The sum cannot
// overflow 128 bits: (2^64−1)² + 2·(2^64−1) = 2^128 − 1.
//
//cryptolint:hotpath
func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return
}

// Mul sets z = x·y·R⁻¹ mod p — the Montgomery product, which is ordinary
// multiplication when all three live in Montgomery form. Aliasing of z
// with x and/or y is allowed. The paper shape takes an 8-limb kernel — mul8
// where the CPU has it (Kernel), the straight-line Go one elsewhere — and
// any other width the generic CIOS loop.
//
//cryptolint:hotpath
func (f *Field) Mul(z, x, y []uint64) {
	switch {
	case f.n != 8:
		f.montMulGeneric(z, x, y)
	case useAsm:
		mul8((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(f.p), f.n0)
	default:
		f.montMul8(z, x, y)
	}
}

// Square sets z = x²·R⁻¹ mod p (z may alias x). At 8 limbs it is mul8(x, x)
// where that is selected — a dedicated assembly squaring measured no gain
// end to end (DESIGN §5c) — and the Go squaring kernel elsewhere; Mul(x, x)
// at any other width.
//
//cryptolint:hotpath
func (f *Field) Square(z, x []uint64) {
	switch {
	case f.n != 8:
		f.montMulGeneric(z, x, x)
	case useAsm:
		xp := (*[8]uint64)(x)
		mul8((*[8]uint64)(z), xp, xp, (*[8]uint64)(f.p), f.n0)
	default:
		f.montSqr8(z, x)
	}
}

// Kernel names the field kernels at 8 limbs in this process: "go" for the
// portable kernels, "amd64-adx" for the assembly under Mul and Square, and
// "amd64-adx+ifma" where the lane engine (lane.go) also runs ReplayJ, WalkJ
// and LucasLadders. It is decided by CPUID and XCR0 at package init and the
// purego build tag, and by nothing a caller can set.
func Kernel() string {
	switch {
	case useLanes:
		return "amd64-adx+ifma"
	case useAsm:
		return "amd64-adx"
	}
	return "go"
}

// MulGeneric is Mul on the any-width path whatever the limb count. It is
// the reference the 8-limb kernels are tested and benchmarked against
// (benchtab's fp.mul.go ÷ fp.mul.generic gate); nothing else calls it.
//
//cryptolint:hotpath
func (f *Field) MulGeneric(z, x, y []uint64) { f.montMulGeneric(z, x, y) }

// MulGo and SquareGo are Mul and Square with the assembly left out
// whatever the CPU: the portable kernels under their own names, for
// benchtab's fp.mul.go / fp.square.go entries and the fp.mul ÷ fp.mul.go
// gate. Nothing else calls them.
//
//cryptolint:hotpath
func (f *Field) MulGo(z, x, y []uint64) {
	if f.n == 8 {
		f.montMul8(z, x, y)
		return
	}
	f.montMulGeneric(z, x, y)
}

// SquareGo is Square on the Go kernels; see MulGo.
//
//cryptolint:hotpath
func (f *Field) SquareGo(z, x []uint64) {
	if f.n == 8 {
		f.montSqr8(z, x)
		return
	}
	f.montMulGeneric(z, x, x)
}

// montMulGeneric is CIOS Montgomery multiplication for any width up to
// MaxLimbs: one fused pass interleaving the product accumulation of x·y[i]
// with the reduction step that cancels the lowest live limb.
//
//cryptolint:hotpath
func (f *Field) montMulGeneric(z, x, y []uint64) {
	n := f.n
	p := f.p
	var tb [MaxLimbs + 2]uint64
	t := tb[: n+2 : n+2]
	for i := 0; i <= n+1; i++ {
		t[i] = 0
	}
	for i := 0; i < n; i++ {
		// t += x · y[i]
		xi := y[i]
		var c uint64
		for j := 0; j < n; j++ {
			c, t[j] = madd(x[j], xi, t[j], c)
		}
		var c2 uint64
		t[n], c2 = bits.Add64(t[n], c, 0)
		t[n+1] = c2

		// m cancels t[0]; shift the vector down one limb while adding m·p.
		m := t[0] * f.n0
		c, _ = madd(m, p[0], t[0], 0)
		for j := 1; j < n; j++ {
			c, t[j-1] = madd(m, p[j], t[j], c)
		}
		t[n-1], c = bits.Add64(t[n], c, 0)
		t[n], _ = bits.Add64(t[n+1], c, 0)
	}
	// t < 2p over n+1 limbs: one conditional subtraction finishes.
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(t[i], p[i], b)
	}
	_, keepT := bits.Sub64(t[n], 0, b) // borrow ⇒ t < p ⇒ keep t
	ctSelect(z, t[:n], -keepT)
}

// FromBig converts a standard-form value into Montgomery form. The input
// must already be reduced: 0 ≤ x < p. This is an edge operation (key
// loading, hashing, deserialization) and the only fp entry point fed by
// math/big values.
func (f *Field) FromBig(z []uint64, x *big.Int) error {
	if x.Sign() < 0 || x.Cmp(f.pBig) >= 0 { //cryptolint:public (range-validity check against the public modulus at the sanctioned big.Int edge)
		return fmt.Errorf("fp: FromBig input out of range [0, p)")
	}
	limbsFromBig(z, x)
	f.Mul(z, z, f.rr) // x·R² · R⁻¹ = x·R
	return nil
}

// ToBig converts a Montgomery-form element back to a standard big.Int
// (edge operation; allocates its result by design).
func (f *Field) ToBig(x []uint64) *big.Int {
	s := f.canonical(x)
	return limbsToBig(s[:f.n])
}

// canonical returns the canonical residue of the Montgomery-form x in the
// low Limbs() words: REDC(x) = x·R⁻¹ undoes the form.
func (f *Field) canonical(x []uint64) (s [MaxLimbs]uint64) {
	var tb [2 * MaxLimbs]uint64
	t := tb[: 2*f.n : 2*f.n]
	copy(t, x) // high half stays zero
	f.reduceWide(s[:f.n], t)
	return s
}

// ByteLen is the length of an element's fixed-width big-endian encoding,
// ⌈|p|/8⌉ bytes.
func (f *Field) ByteLen() int { return (f.pBig.BitLen() + 7) / 8 }

// SetBytes decodes the ByteLen-byte big-endian encoding b of a canonical
// residue straight into Montgomery form — the wire's way into the field, with
// no math/big value in between. An encoding of the wrong length or of a value
// ≥ p is refused; the comparison is against the public modulus.
func (f *Field) SetBytes(z []uint64, b []byte) error {
	if len(b) != f.ByteLen() {
		return fmt.Errorf("fp: element encoding must be %d bytes, got %d", f.ByteLen(), len(b))
	}
	f.SetZero(z)
	for i, v := range b {
		k := len(b) - 1 - i
		z[k/8] |= uint64(v) << (8 * uint(k%8))
	}
	var borrow uint64
	for i := 0; i < f.n; i++ {
		_, borrow = bits.Sub64(z[i], f.p[i], borrow)
	}
	if borrow == 0 { //cryptolint:public (range-validity check against the public modulus at the decode edge)
		return fmt.Errorf("fp: element encoding out of range [0, p)")
	}
	f.Mul(z, z, f.rr) // x·R² · R⁻¹ = x·R
	return nil
}

// FillBytes writes the ByteLen-byte big-endian encoding of x into b.
func (f *Field) FillBytes(b []byte, x []uint64) {
	s := f.canonical(x)
	for i := range b {
		k := len(b) - 1 - i
		b[i] = byte(s[k/8] >> (8 * uint(k%8)))
	}
}

// Parity returns the lowest bit of x's canonical residue — the sign tag of a
// compressed point.
func (f *Field) Parity(x []uint64) uint {
	s := f.canonical(x)
	return uint(s[0] & 1)
}

// expWindow is the sliding-window width of Exp; its table holds the
// 2^(expWindow−1) odd powers below 2^expWindow.
const expWindow = 5

// Exp sets z = x^e mod p (Montgomery in, Montgomery out) with an MSB-first
// sliding window over the odd powers x, x³, …, x³¹: a squaring per exponent
// bit and one multiplication per window, ≈ |e|/6 of them where
// square-and-multiply pays |e|/2 (at 510 bits ≈ 150 fewer multiplications
// after the 16 that build the table). Where the windows fall is decided by
// the bit pattern of e alone, which is treated as public: the in-repo
// exponent is derived from the modulus — (p+1)/4, curve's square root, taken
// on every point decode and every hash onto the curve.
//
//cryptolint:hotpath
func (f *Field) Exp(z, x []uint64, e *big.Int) {
	n := f.n
	bits := e.BitLen()
	// odd[k] = x^(2k+1).
	var odd [1 << (expWindow - 1)][MaxLimbs]uint64
	copy(odd[0][:n], x)
	var sb [MaxLimbs]uint64
	sq := sb[:n]
	f.Square(sq, x)
	for k := 1; k < len(odd); k++ {
		f.Mul(odd[k][:n], odd[k-1][:n], sq)
	}

	var rb [MaxLimbs]uint64
	r := rb[:n]
	f.SetOne(r)
	for i := bits - 1; i >= 0; {
		if e.Bit(i) == 0 {
			f.Square(r, r)
			i--
			continue
		}
		// The window is bits i … j: at most expWindow of them, ending in a one.
		j := max(i-expWindow+1, 0)
		for e.Bit(j) == 0 {
			j++
		}
		v := uint(0)
		for k := i; k >= j; k-- {
			f.Square(r, r)
			v = v<<1 | e.Bit(k)
		}
		f.Mul(r, r, odd[v>>1][:n])
		i = j - 1
	}
	copy(z, r)
}

// MaxExpLanes is how many bases share one walk of ExpEach's exponent on
// the lane engine: one a lane.
const MaxExpLanes = 8

// ExpEach sets zs[i] = xs[i]^e for every i, for one public exponent e:
// each the element Exp gives. At 8 limbs on the lane engine every
// MaxExpLanes bases, when there are two or more, walk e once together
// (expLanes: Exp's sliding window with every product a lane product of all
// the bases, ≈ 1.4 scalar products whatever their number); a lone base,
// and every base on the scalar kernels or at another width, runs Exp, which
// costs less than the walk alone. zs[i] may alias xs[i].
//
//cryptolint:hotpath
func (f *Field) ExpEach(zs, xs [][]uint64, e *big.Int) {
	if f.n == 8 && useLanes && len(xs) > 1 && e.Sign() > 0 {
		for i := 0; i < len(xs); i += MaxExpLanes {
			j := min(i+MaxExpLanes, len(xs))
			f.expLanes(zs[i:j], xs[i:j], e)
		}
		return
	}
	for i, x := range xs {
		f.Exp(zs[i], x, e)
	}
}

// --- wide (2n-limb) accumulation: the F_p² lazy-reduction layer ---

// Lazy reports whether the modulus leaves the two spare top bits that make
// single-reduction wide accumulation sound (see MulFp2).
func (f *Field) Lazy() bool { return f.lazy }

// mulWide sets t (2n limbs) = x·y, full product, no reduction.
//
//cryptolint:hotpath
func (f *Field) mulWide(t, x, y []uint64) {
	n := f.n
	for i := 0; i < 2*n; i++ {
		t[i] = 0
	}
	for i := 0; i < n; i++ {
		t[i+n] = addMulVVW(t[i:i+n], x, y[i])
	}
}

// addMulVVW sets z += x·y for a single word y and returns the carry out of
// the top; len(x) = len(z).
//
//cryptolint:hotpath
func addMulVVW(z, x []uint64, y uint64) (carry uint64) {
	for i := 0; i < len(z); i++ {
		hi, lo := bits.Mul64(x[i], y)
		var c uint64
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		z[i], c = bits.Add64(z[i], lo, 0)
		carry = hi + c
	}
	return
}

// reduceWide performs the Montgomery reduction z = t·R⁻¹ mod p of a
// 2n-limb accumulator t < p·R, destroying t. This is the REDC half of a
// Montgomery multiplication, split out so the F_p² tower can sum several
// wide products first and reduce once.
//
//cryptolint:hotpath
func (f *Field) reduceWide(z, t []uint64) {
	n := f.n
	p := f.p
	var c uint64
	for i := 0; i < n; i++ {
		m := t[i] * f.n0
		c2 := addMulVVW(t[i:i+n], p, m)
		nx, c3 := bits.Add64(t[i+n], c, 0)
		nx, c4 := bits.Add64(nx, c2, 0)
		t[i+n] = nx
		c = c3 + c4
	}
	// Result in t[n:2n] with top carry c; t/R < 2p, conditional subtract.
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(t[i+n], p[i], b)
	}
	_, keepT := bits.Sub64(c, 0, b)
	ctSelect(z, t[n:2*n], -keepT)
}

// addWide sets t += u over 2n limbs (caller guarantees no overflow; all
// lazy-path sums are bounded below p·R < 2^(128n)/4).
//
//cryptolint:hotpath
func addWide(t, u []uint64) {
	var c uint64
	for i := 0; i < len(t); i++ {
		t[i], c = bits.Add64(t[i], u[i], c)
	}
}

// subWide sets t −= u over 2n limbs (caller guarantees t ≥ u).
//
//cryptolint:hotpath
func subWide(t, u []uint64) {
	var b uint64
	for i := 0; i < len(t); i++ {
		t[i], b = bits.Sub64(t[i], u[i], b)
	}
}

// MulFp2 computes the product (zr + zi·i) = (ar + ai·i)·(br + bi·i) in
// F_p[i]/(i² + 1) — the quadratic extension internal/gf exposes — with the
// Karatsuba split
//
//	v0 = ar·br, v1 = ai·bi, v2 = (ar+ai)·(br+bi)
//	zr = v0 − v1,           zi = v2 − v0 − v1
//
// i.e. three base multiplications instead of four. When the modulus has
// two spare top bits (Lazy), the three products are accumulated at full
// double width and each output coordinate pays exactly one Montgomery
// reduction: zr reduces v0 + 2p² − v1 (the 2p² offset keeps the
// accumulator non-negative; it is ≡ 0 mod p and the bound 3p² < p·R holds
// by the spare bits), zi reduces v2 − v0 − v1 ≥ 0 directly (< 4p² < p·R).
// Without spare bits each product is reduced individually — still three
// reductions against schoolbook's four multiplications. At 8 limbs where
// the assembly is selected (Kernel) the whole product is one call,
// mulFp2x8, the fully reduced form for any modulus.
//
// Any of zr, zi may alias any input coordinate.
//
//cryptolint:hotpath
func (f *Field) MulFp2(zr, zi, ar, ai, br, bi []uint64) {
	n := f.n
	if n == 8 && useAsm {
		mulFp2x8((*[8]uint64)(zr), (*[8]uint64)(zi), (*[8]uint64)(ar), (*[8]uint64)(ai), (*[8]uint64)(br), (*[8]uint64)(bi), (*[8]uint64)(f.p), f.n0)
		return
	}
	var sb1, sb2 [MaxLimbs]uint64
	s1 := sb1[:n] // ar + ai
	s2 := sb2[:n] // br + bi
	if f.lazy {
		// Plain (non-modular) sums: bounded by 2p, safe for the 4p² product
		// bound. Carry out of the top limb is impossible with 2 spare bits.
		var c uint64
		for i := 0; i < n; i++ {
			s1[i], c = bits.Add64(ar[i], ai[i], c)
		}
		c = 0
		for i := 0; i < n; i++ {
			s2[i], c = bits.Add64(br[i], bi[i], c)
		}
		var w0, w1, w2 [2 * MaxLimbs]uint64
		t0 := w0[: 2*n : 2*n]
		t1 := w1[: 2*n : 2*n]
		t2 := w2[: 2*n : 2*n]
		f.mulWide(t0, ar, br)
		f.mulWide(t1, ai, bi)
		f.mulWide(t2, s1, s2)
		subWide(t2, t0) // t2 = cross products + t1
		subWide(t2, t1) // ≥ 0 by the Karatsuba identity
		addWide(t0, f.p2w)
		subWide(t0, t1) // v0 − v1 + 2p² ≥ 0
		f.reduceWide(zr, t0)
		f.reduceWide(zi, t2)
		return
	}
	// Fully reduced Karatsuba: three CIOS products, modular linear fixes.
	f.Add(s1, ar, ai)
	f.Add(s2, br, bi)
	var vb0, vb1, vb2 [MaxLimbs]uint64
	v0 := vb0[:n]
	v1 := vb1[:n]
	v2 := vb2[:n]
	f.Mul(v0, ar, br)
	f.Mul(v1, ai, bi)
	f.Mul(v2, s1, s2)
	f.Sub(zr, v0, v1)
	f.Sub(v2, v2, v0)
	f.Sub(zi, v2, v1)
}

// MulLine sets (ar + ai·i) ← (ar + ai·i)·((alpha·x + beta) + y·i): a
// Miller program's line, normalised to (α·x_Q + β) + y_Q·i, evaluated at
// the point (x, y) and folded into the accumulator — one multiplication and
// one MulFp2, and at 8 limbs on the assembly one call (lineMul8).
//
//cryptolint:hotpath
func (f *Field) MulLine(ar, ai, alpha, beta, x, y []uint64) {
	if f.n == 8 && useAsm {
		lineMul8((*[8]uint64)(ar), (*[8]uint64)(ai), (*[8]uint64)(alpha), (*[8]uint64)(beta), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(f.p), f.n0)
		return
	}
	var rb [MaxLimbs]uint64
	r := rb[:f.n]
	f.Mul(r, alpha, x)
	f.Add(r, r, beta)
	f.MulFp2(ar, ai, ar, ai, r, y)
}

// SquareFp2 computes (zr + zi·i) = (ar + ai·i)² via
// (a+bi)² = (a+b)(a−b) + (2ab)i — two base multiplications; at 8 limbs on
// the assembly, one call (sqrFp2x8). Outputs may alias inputs.
//
//cryptolint:hotpath
func (f *Field) SquareFp2(zr, zi, ar, ai []uint64) {
	n := f.n
	if n == 8 && useAsm {
		sqrFp2x8((*[8]uint64)(zr), (*[8]uint64)(zi), (*[8]uint64)(ar), (*[8]uint64)(ai), (*[8]uint64)(f.p), f.n0)
		return
	}
	var sb, db, rb [MaxLimbs]uint64
	s := sb[:n]
	d := db[:n]
	r := rb[:n]
	f.Add(s, ar, ai)
	f.Sub(d, ar, ai)
	f.Mul(r, ar, ai) // before zr/zi clobber aliased inputs
	f.Mul(zr, s, d)
	f.Double(zi, r)
}

// MaxLadders is how many trace ladders share one lane call (LucasLadders,
// LucasDoublings): on the lane engine each takes a pair of the eight lanes.
const MaxLadders = 4

// LucasLadder sets (vk, vk1) = (V_k, V_(k+1)) for k ≥ 0, where V_j is the
// Lucas sequence with V_0 = 2 and V_1 = v1 — for a norm-1 element g of F_p²
// with trace v1, the traces V_j = g^j + g^−j = 2·Re(g^j) of its powers. It
// walks k's bits from the top keeping the adjacent pair, by
//
//	V_2j = V_j² − 2,   V_(2j+1) = V_j·V_(j+1) − V_1,
//
// one multiplication and one squaring per bit, with no doubling and no
// constant but 2. It is LucasLadders for one ladder over k.BitLen() bits,
// for a public k; a secret one goes through LucasLadders with its bound's
// bit count. vk and vk1 must not alias v1 or each other.
//
//cryptolint:hotpath
func (f *Field) LucasLadder(vk, vk1, v1 []uint64, k *big.Int) {
	var a, b, c [1][]uint64
	a[0], b[0], c[0] = vk, vk1, v1
	f.LucasLadders(a[:], b[:], c[:], k, k.BitLen())
}

// LucasLadders sets (vk[m], vk1[m]) = (V_k, V_(k+1)) of the Lucas sequence
// with V_1 = v1[m], for every ladder m < len(v1) over one exponent
// 0 ≤ k < 2^bits, walking exactly bits bits of it: leading zero bits keep
// the pair (V_0, V_1) = (2, V_1) where it is, so the result does not
// depend on bits, and the work depends on nothing else. The bits only steer
// constant-time selections. At 8 limbs on the assembly every MaxLadders
// ladders are one call on the lane engine (laneLadder8, every step's
// products of every ladder in one lane product) where Kernel names it, and
// each ladder is one lucasLadder8 call elsewhere; the any-width loop and
// the Go kernels run lucasStep. Every path gives the same field elements.
// vk and vk1 must be as long as v1, and vk[m] and vk1[m] must not alias any
// v1 or each other.
//
//cryptolint:hotpath
func (f *Field) LucasLadders(vk, vk1, v1 [][]uint64, k *big.Int, bits int) {
	var kw [2 * MaxLimbs]uint64
	if f.n == 8 && useAsm && bits <= 64*len(kw) {
		for i, w := range k.Bits() {
			if i < len(kw) {
				kw[i] = uint64(w)
			}
		}
		if useLanes {
			for i := 0; i < len(v1); i += MaxLadders {
				j := min(i+MaxLadders, len(v1))
				f.lucasLanes(vk[i:j], vk1[i:j], v1[i:j], &kw[0], bits)
			}
			return
		}
		for m := range v1 {
			lucasLadder8((*[8]uint64)(vk[m]), (*[8]uint64)(vk1[m]), (*[8]uint64)(v1[m]), (*[8]uint64)(f.two), (*[8]uint64)(f.p), f.n0, &kw[0], uint64(bits))
		}
		return
	}
	for m := range v1 {
		f.Set(vk[m], f.two)
		f.Set(vk1[m], v1[m])
	}
	for i := bits - 1; i >= 0; i-- {
		bit := k.Bit(i)
		for m := range v1 {
			f.lucasStep(vk[m], vk1[m], v1[m], bit)
		}
	}
}

// LucasDoublings sets each v[m] to V_(2^d) of the Lucas sequence with
// V_1 = v[m] — d doublings of the index, V_2j = V_j² − 2. Since V_a of the
// sequence with V_1 = V_b is V_ab, that is also one ladder over 2^d: on the
// lane engine every MaxLadders values, when there are two or more, run as
// one laneLadder8 call of d + 1 lane products, which costs less than d
// squarings each from two values on. A lone value, and every value on the
// scalar kernels, takes the d squarings. The same field elements either way.
//
//cryptolint:hotpath
func (f *Field) LucasDoublings(v [][]uint64, d int) {
	var kw [2 * MaxLimbs]uint64
	if f.n == 8 && useLanes && len(v) > 1 && d < 64*len(kw) { //cryptolint:public (the kernel, the batch size and the public count d)
		kw[d/64] = 1 << (d % 64)
		for i := 0; i < len(v); i += MaxLadders {
			j := min(i+MaxLadders, len(v))
			f.lucasLanes(v[i:j], nil, v[i:j], &kw[0], d+1)
		}
		return
	}
	for _, x := range v {
		for range d {
			f.Square(x, x)
			f.Sub(x, x, f.two)
		}
	}
}

// lucasStep is one bit of LucasLadders: from (u, v) = (V_j, V_(j+1)) it
// sets (u, v) to (V_2j, V_(2j+1)) for bit 0 and (V_(2j+1), V_(2j+2)) for
// bit 1, the bit steering selections only.
//
//cryptolint:hotpath
func (f *Field) lucasStep(u, v, v1 []uint64, bit uint) {
	var mb, sb [MaxLimbs]uint64
	mid, sq := mb[:f.n], sb[:f.n]
	f.Mul(mid, u, v)
	f.Sub(mid, mid, v1)
	Select(sq, v, u, int(bit))
	f.Square(sq, sq)
	f.Sub(sq, sq, f.two)
	Select(u, mid, sq, int(bit))
	Select(v, sq, mid, int(bit))
}

// --- limb ↔ big.Int edges (allocation confined to ToBig/limbsToBig) ---

// limbsFromBig fills z (little-endian limbs, zero-padded) from a
// non-negative x that fits len(z) limbs.
func limbsFromBig(z []uint64, x *big.Int) {
	for i := range z {
		z[i] = 0
	}
	words := x.Bits()
	if bits.UintSize == 64 {
		for i, w := range words {
			z[i] = uint64(w)
		}
		return
	}
	for i, w := range words { // 32-bit big.Word
		z[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// limbsToBig builds a big.Int from little-endian limbs.
func limbsToBig(x []uint64) *big.Int {
	if bits.UintSize == 64 {
		words := make([]big.Word, len(x))
		for i, w := range x {
			words[i] = big.Word(w)
		}
		return new(big.Int).SetBits(words)
	}
	words := make([]big.Word, 2*len(x))
	for i, w := range x {
		words[2*i] = big.Word(uint32(w))
		words[2*i+1] = big.Word(uint32(w >> 32))
	}
	return new(big.Int).SetBits(words)
}
