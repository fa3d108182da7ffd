package fp

import (
	"math/big"
	"math/bits"
)

// The Legendre symbol by Bernstein and Yang's divsteps with the Jacobi
// symbol tracked along the way (Hamburg, "Computing the Jacobi symbol using
// Bernstein-Yang", eprint 2021/1271), in the variable-time "posdivstep" form
// libsecp256k1's jacobi64_maybe_var takes: f and g stay positive, g's trailing
// zeros go in one shift, and up to six low bits of g are cancelled with one
// multiple of f. It reuses Inv's signed 62-bit limbs and its row update for
// (f, g); (d, e) are not needed. Each step keeps (g | f) up to a sign it
// records:
//
//   - g ← g + w·f leaves (g | f) as it is;
//   - g ← g/2 flips it when f ≡ 3, 5 (mod 8), since (2 | f) = −1 there;
//   - swapping f and g flips it when f ≡ g ≡ 3 (mod 4), by reciprocity.
//
// From (f, g) = (p, x) the walk reaches f = gcd(p, x) = 1, where (g | 1) = 1,
// so the symbol is the product of the recorded signs.

// legendreBatchesPer62 bounds the walk: posdivsteps carry no proven bound
// like Inv's, and in tests the 512-bit walks finish within 60% of it; a walk
// that does not is answered by Euler's criterion instead.
const legendreBatchesPer62 = 3

// Legendre returns the Legendre symbol of x modulo p: 1 when x is a nonzero
// square, −1 when it is not a square, 0 for x = 0. x is in Montgomery form,
// x·R, and R = 2^(64n) is an even power of two and so a square: the symbol of
// x·R is that of x.
//
// Variable time: the walk's length and branches follow x, so x must be
// public — a point's abscissa off the wire, not a secret. Allocation-free
// except on the fallback no test has reached.
//
//cryptolint:vartime (the walk's branches and length follow x, a public abscissa: every caller decodes it from a peer's bytes)
func (f *Field) Legendre(x []uint64) int {
	if f.IsZero(x) {
		return 0
	}
	var st [2]struct{ f, g s62 }
	st[0].f = f.p62
	toS62(&st[0].g, x[:f.n])
	k := f.n + 1
	eta := int64(-1) // −δ
	var jac uint64   // bit 0: the sign flips so far
	for i := range legendreBatchesPer62 * f.batches {
		cur, next := &st[i&1], &st[i&1^1]
		var t trans
		eta, t, jac = posdivsteps62(eta, low64(&cur.f), low64(&cur.g), jac)
		rowFG(next.f[:k], cur.f[:k], cur.g[:k], t.u, t.v)
		rowFG(next.g[:k], cur.f[:k], cur.g[:k], t.q, t.r)
		fv := next.f[:k]
		if fv[0] == 1 {
			rest := int64(0)
			for _, l := range fv[1:] {
				rest |= l
			}
			if rest == 0 {
				return 1 - 2*int(jac&1)
			}
		}
		// Drop a top limb both have cleared; two limbs stay, so the low 64
		// bits are always read from the current state.
		if k > 2 && fv[k-1] == 0 && next.g[k-1] == 0 {
			k--
		}
	}
	return f.legendreEuler(x)
}

// legendreEuler is Euler's criterion, x^((p−1)/2) = ±1.
//
//cryptolint:vartime (Legendre's fallback, for the same public x; the exponent (p−1)/2 is public)
func (f *Field) legendreEuler(x []uint64) int {
	var zb [MaxLimbs]uint64
	z := zb[:f.n]
	f.Exp(z, x, new(big.Int).Rsh(f.pBig, 1))
	if f.IsOne(z) {
		return 1
	}
	return -1
}

// low64 returns the low 64 bits of a non-negative s62.
func low64(a *s62) uint64 { return uint64(a[0]) | uint64(a[1])<<62 }

// posdivsteps62 runs 62 posdivsteps from η = −δ on the low 64 bits of f and g
// (both odd, positive), f0 and g0: 64 rather than Inv's 62 bits, because the
// sign tracking reads f mod 8 after 61 steps. It returns the new η, the
// matrix scaled by 2^62 — u·f + v·g = 2^62·f′, q·f + r·g = 2^62·g′, all four
// non-negative — and jac with bit 0 flipped once for every sign change of
// (g | f).
func posdivsteps62(eta int64, f0, g0, jac uint64) (int64, trans, uint64) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := 62
	for {
		// Divide g by its trailing zeros at once, counting no more than
		// the i steps left (the sentinel bits).
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		jac ^= uint64(zeros) & (f>>1 ^ f>>2)
		if i == 0 {
			break
		}
		// g is odd. For η < 0 swap f and g and negate η; then add the
		// multiple w·f of f that clears the low bits of g — at most
		// min(η + 1, i) of them, six after a swap and four otherwise.
		var m, w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, f
			u, q = q, u
			v, r = r, v
			jac ^= (f & g) >> 1
			m = ^uint64(0) >> (64 - min(int(eta)+1, i)) & 63
			w = f * g * (f*f - 2) & m // −g/f mod 2^6: f(2 − f²) is 1/f mod 2^6
		} else {
			m = ^uint64(0) >> (64 - min(int(eta)+1, i)) & 15
			w = f + (f+1)&4<<1 // 1/f mod 2^4
			w = -w * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, trans{int64(u), int64(v), int64(q), int64(r)}, jac
}
