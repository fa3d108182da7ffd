package fp

import (
	"math/big"
	"math/bits"
)

// Field inversion by Bernstein and Yang's safegcd ("Fast constant-time gcd
// computation and modular inversion", TCHES 2019, eprint 2019/266), laid out
// the way libsecp256k1's modinv64 lays it out: integers in signed 62-bit
// limbs, the divsteps run 62 at a time on the low limbs of f and g alone, and
// each batch's transition matrix then applied to the whole of (f, g) exactly
// and to (d, e) modulo p. Everything is masks and fixed-length loops: the
// number of batches is fixed by |p| (the same for every input of a field), no
// branch or index follows a value, and nothing is allocated.
//
// A divstep maps (δ, f, g) with f odd to
//
//	(1 − δ, g, (g − f)/2)            if δ > 0 and g is odd,
//	(1 + δ, f, (g + (g mod 2)·f)/2)  otherwise,
//
// and from (1, p, x) reaches g = 0 with f = ±gcd(p, x) within
// ⌊(49d + 80)/17⌋ steps for d ≥ 46 and ⌊(49d + 57)/17⌋ below, d = |p| (the
// paper's Theorem 11.2: f² + 4g² ≤ 5·2^(2d) holds for 0 ≤ x < p). Alongside,
// d·x ≡ f and e·x ≡ g (mod p) from (d, e) = (0, 1), so f = ±1 leaves
// x⁻¹ = ±d.

const (
	// s62Limbs bounds the signed 62-bit limbs of an operand: an n-limb
	// field takes n + 1, room for the ±2p the (d, e) updates reach while
	// 62(n + 1) > 64n + 1, which holds for every n up to MaxLimbs.
	s62Limbs = MaxLimbs + 1
	m62      = 1<<62 - 1
)

// s62 is an integer in signed 62-bit limbs, least significant first: every
// limb but the last in [0, 2^62), the last signed.
type s62 [s62Limbs]int64

// trans is the matrix of 62 divsteps scaled by 2^62: u·f + v·g = 2^62·f′ and
// q·f + r·g = 2^62·g′. |u| + |v| and |q| + |r| are at most 2^62.
type trans struct{ u, v, q, r int64 }

// initInv sets the inverse's constants for the prime p: p in signed 62-bit
// limbs, R³ mod p and the batch count.
func (f *Field) initInv(p *big.Int) {
	toS62(&f.p62, f.p)
	r3 := new(big.Int).Lsh(big.NewInt(1), uint(192*f.n))
	f.r3 = make([]uint64, f.n)
	limbsFromBig(f.r3, r3.Mod(r3, p))
	f.batches = (divstepBound(p.BitLen()) + 61) / 62
}

// divstepBound is Theorem 11.2's count of divsteps that take (1, f, g) to
// g = 0 whenever f² + 4g² ≤ 5·2^(2d).
func divstepBound(d int) int {
	if d < 46 {
		return (49*d + 57) / 17
	}
	return (49*d + 80) / 17
}

// invState is what a batch of divsteps reads and its matrix rewrites: f
// and g, and d and e with d·x ≡ f, e·x ≡ g (mod p).
type invState struct{ f, g, d, e s62 }

// Inv sets z = x⁻¹ mod p; ErrNotInvertible for x = 0. The inverse of the
// Montgomery form x·R as an integer is x⁻¹·R⁻¹, and one Mul by R³ takes it to
// x⁻¹·R. Constant-time, allocation-free, no math/big; z may alias x.
//
//cryptolint:hotpath
func (f *Field) Inv(z, x []uint64) error {
	k := f.n + 1
	// Each batch reads one state and writes the other.
	var st [2]invState
	cur := &st[0]
	cur.f = f.p62
	toS62(&cur.g, x[:f.n])
	cur.e[0] = 1
	eps := int64(-2) // −δ − 1 for δ = 1
	for i := range f.batches {
		cur, next := &st[i&1], &st[i&1^1]
		var t trans
		eps, t = divsteps62(eps, uint64(cur.f[0]), uint64(cur.g[0]))
		rowFG(next.f[:k], cur.f[:k], cur.g[:k], t.u, t.v)
		rowFG(next.g[:k], cur.f[:k], cur.g[:k], t.q, t.r)
		sd, se := sign(cur.d[k-1]), sign(cur.e[k-1])
		f.rowDE(next.d[:k], cur.d[:k], cur.e[:k], t.u, t.v, sd, se)
		f.rowDE(next.e[:k], cur.d[:k], cur.e[:k], t.q, t.r, sd, se)
	}
	fin := &st[f.batches&1]

	// gcd(p, x) = 1 exactly when f ended at +1 or at −1 (every lower limb
	// m62, the top one −1); then x⁻¹ = d·sign(f).
	fv := fin.f[:k]
	plus, minus := fv[0]^1, fv[0]^m62
	for i := 1; i < k-1; i++ {
		plus |= fv[i]
		minus |= fv[i] ^ m62
	}
	plus |= fv[k-1]
	minus |= ^fv[k-1]
	f.normalize(fin.d[:k], fv[k-1]>>63)
	fromS62(z[:f.n], &fin.d)
	f.Mul(z, z, f.r3)
	if plus != 0 && minus != 0 { //cryptolint:public (the verdict every inverse reports: x = 0, the only non-unit of a prime field)
		return ErrNotInvertible
	}
	return nil
}

// divsteps62 runs 62 divsteps from ε = −δ − 1 on the low limbs f0 (odd) and
// g0 of (f, g), all they depend on, and returns the new ε and the matrix:
// four runs of divstepsN, each on the low words of (f, g) the matrix so far
// leaves (62 valid bits, then 46, 30 and 14: enough for the runs still to
// come), the matrices multiplied together.
//
//cryptolint:hotpath
func divsteps62(eps int64, f0, g0 uint64) (int64, trans) {
	f, g := int64(f0), int64(g0)
	eps, t := divstepsN(eps, f, g, 16)
	done := uint(16)
	for _, n := range [...]uint{16, 16, 14} {
		var s trans
		eps, s = divstepsN(eps, (t.u*f+t.v*g)>>done, (t.q*f+t.r*g)>>done, n)
		t = trans{s.u*t.u + s.v*t.q, s.u*t.v + s.v*t.r, s.q*t.u + s.r*t.q, s.q*t.v + s.r*t.r}
		done += n
	}
	return eps, t
}

// The rows (f, u, v) and (g, q, r) of a run of n ≤ 16 divsteps travel packed
// in one word each, F = f + u·2^laneU + v·2^laneV: every step does the same
// thing to the three entries of a row, so it is one operation on the word.
// The matrix starts at 2^n·I so that halving a row is exact in every lane,
// and it ends scaled by 2^n; f and g start as their low laneU − 1 bits, so
// |f|, |g| < 2^(laneU−1) throughout. Then |u|·2^laneU + |f| < 2^(laneV−1)
// decodes the lanes by rounding, and |S| < 2^(n+1+laneV) + 2^laneU, the
// largest any word gets (the g row before it is halved), stays below 2^63.
const (
	laneU = 21
	laneV = 42
)

// divstepsN runs an even n ≤ 16 divsteps from ε on the low bits of f (odd)
// and g, two to a loop iteration.
//
//cryptolint:hotpath
func divstepsN(eps, f, g int64, n uint) (int64, trans) {
	const low = 1<<(laneU-1) - 1
	F := f&low + 1<<(n+laneU)
	S := (g&low + 1<<(n+laneV)) << 1
	pos := (eps + 1) >> 63 // δ > 0: |ε| never comes near 2^63
	for i := uint(0); i < n; i += 2 {
		eps, pos, F, S = divstep(eps, pos, F, S)
		eps, pos, F, S = divstep(eps, pos, F, S)
	}
	G := S >> 1
	v := (F + 1<<(laneV-1)) >> laneV
	u := (F - v<<laneV + 1<<(laneU-1)) >> laneU
	r := (G + 1<<(laneV-1)) >> laneV
	q := (G - r<<laneV + 1<<(laneU-1)) >> laneU
	return eps, trans{u, v, q, r}
}

// divstep is one divstep on the packed rows F and S = 2G, with pos the mask
// of δ > 0 and ε = −δ − 1. With g odd, g −= f when δ > 0 (and then f takes
// g's old value, δ ← 1 − δ), else g += f and δ ← 1 + δ; then g is halved. The
// three cases are one sequence of masked operations (modinv64's
// divsteps_59, with δ for its ζ, g's parity read before the halving and f's
// new value selected from g's old one, both off the longest dependency
// chain).
//
//cryptolint:hotpath
func divstep(eps, pos, F, S int64) (int64, int64, int64, int64) {
	G := S >> 1
	odd := S << 62 >> 63
	x := (F ^ pos) - pos
	swap := pos & odd
	F ^= (F ^ G) & swap
	// A swap leaves δ ≤ 0; otherwise 1 + δ > 0 iff δ ≥ 0, i.e. ε < 0,
	// which a swap implies — so pos′ = (ε < 0) with the swap's bits cleared.
	return (eps ^ swap) + swap - 1, eps>>63 ^ swap, F, G + x&odd
}

// rowFG sets out = (a·x + b·y) / 2^62 over k = len(out) limbs, a row of a
// batch's matrix applied to (f, g): exact, and within ±p.
//
//cryptolint:hotpath
func rowFG(out, x, y []int64, a, b int64) {
	k := len(out)
	x, y = x[:k], y[:k]
	sa, sb := sign(a), sign(b)
	c := mul(a, sa, x[0]).add(mul(b, sb, y[0])).shr62()
	for i := 1; i < k-1; i++ {
		// The limb's products are summed apart from the carry chain.
		c = c.add(mul(a, sa, x[i]).add(mul(b, sb, y[i])))
		out[i-1] = int64(c.lo & m62)
		c = c.shr62()
	}
	// The top limbs are signed.
	c = c.add(mulSigned(a, x[k-1]).add(mulSigned(b, y[k-1])))
	out[k-2] = int64(c.lo & m62)
	out[k-1] = int64(c.shr62().lo)
}

// rowDE sets out = (a·d + b·e + m·p) / 2^62 over k = len(out) limbs, a row of
// a batch's matrix applied to (d, e) modulo p; sd and se are the sign masks
// of d and e. m is p added for each of d, e that is negative, less what
// clears the low 62 bits. From d, e in (−2p, p) the row is in (−2p, p) again
// (modinv64's update_de_62).
//
//cryptolint:hotpath
func (f *Field) rowDE(out, d, e []int64, a, b int64, sd, se uint64) {
	k := len(out)
	d, e = d[:k], e[:k]
	p := f.p62[:k]
	sa, sb := sign(a), sign(b)
	m := a&int64(sd) + b&int64(se)
	// −n0 is p⁻¹ mod 2^64; the low 62 bits of a·d₀ + b·e₀ + m·p₀ vanish.
	low := uint64(a)*uint64(d[0]) + uint64(b)*uint64(e[0])
	m -= int64((-f.n0*low + uint64(m)) & m62)
	sm := sign(m)
	c := mul(a, sa, d[0]).add(mul(b, sb, e[0])).add(mul(m, sm, p[0])).shr62()
	for i := 1; i < k-1; i++ {
		c = c.add(mul(a, sa, d[i]).add(mul(b, sb, e[i])).add(mul(m, sm, p[i])))
		out[i-1] = int64(c.lo & m62)
		c = c.shr62()
	}
	c = c.add(mulSigned(a, d[k-1]).add(mulSigned(b, e[k-1])).add(mul(m, sm, p[k-1])))
	out[k-2] = int64(c.lo & m62)
	out[k-1] = int64(c.shr62().lo)
}

// normalize takes d in (−2p, p) to d·(−1)^neg mod p in [0, p), neg all ones
// or zero (modinv64's normalize_62): p added if negative, the sign applied,
// the limbs carried back into [0, 2^62), p added again if still negative.
//
//cryptolint:hotpath
func (f *Field) normalize(d []int64, neg int64) {
	p := f.p62[:len(d)]
	k := len(d)
	add := d[k-1] >> 63
	for i := range d {
		d[i] = ((d[i] + p[i]&add) ^ neg) - neg
	}
	carry62(d)
	add = d[k-1] >> 63
	for i := range d {
		d[i] += p[i] & add
	}
	carry62(d)
}

// carry62 brings every limb but the last into [0, 2^62), moving the excess
// (of either sign) up.
//
//cryptolint:hotpath
func carry62(d []int64) {
	for i := 0; i < len(d)-1; i++ {
		d[i+1] += d[i] >> 62
		d[i] &= m62
	}
}

// toS62 sets z to the non-negative integer of 64-bit limbs x, in len(x) + 1
// signed 62-bit limbs (the rest of z zero).
//
//cryptolint:hotpath
func toS62(z *s62, x []uint64) {
	*z = s62{}
	for i := 0; i <= len(x); i++ {
		w, s := 62*i/64, uint(62*i%64)
		var v uint64
		if w < len(x) {
			v = x[w] >> s
		}
		if w+1 < len(x) {
			v |= x[w+1] << (64 - s) // s = 0 shifts everything out
		}
		z[i] = int64(v & m62)
	}
}

// fromS62 sets the 64-bit limbs z to the integer a, which is in [0, 2^(64·len(z)))
// with its len(z) + 1 limbs carried.
//
//cryptolint:hotpath
func fromS62(z []uint64, a *s62) {
	clear(z)
	for i := 0; i <= len(z); i++ {
		w, s := 62*i/64, uint(62*i%64)
		v := uint64(a[i])
		if w < len(z) {
			z[w] |= v << s
		}
		if w+1 < len(z) {
			z[w+1] |= v >> (64 - s) // s = 0 shifts everything out
		}
	}
}

// i128 is a two's-complement 128-bit accumulator.
type i128 struct{ hi, lo uint64 }

// mul returns a·b for a signed a with sign mask sa and a b in [0, 2^63): the
// unsigned product, less 2^64·b where a is negative.
//
//cryptolint:hotpath
func mul(a int64, sa uint64, b int64) i128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return i128{hi - sa&uint64(b), lo}
}

// mulSigned returns a·b for signed a and b.
//
//cryptolint:hotpath
func mulSigned(a, b int64) i128 {
	c := mul(a, sign(a), b)
	c.hi -= sign(b) & uint64(a)
	return c
}

// sign is x's sign mask: all ones for x < 0, else zero.
//
//cryptolint:hotpath
func sign(x int64) uint64 { return uint64(x >> 63) }

// add returns c + d.
//
//cryptolint:hotpath
func (c i128) add(d i128) i128 {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, d.lo, 0)
	c.hi, _ = bits.Add64(c.hi, d.hi, carry)
	return c
}

// shr62 returns c >> 62, arithmetic.
//
//cryptolint:hotpath
func (c i128) shr62() i128 {
	return i128{hi: uint64(int64(c.hi) >> 62), lo: c.lo>>62 | c.hi<<2}
}
