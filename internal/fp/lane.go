package fp

//go:generate go run genlane.go

import (
	"math/big"
	"math/bits"
	"unsafe"
)

// The lane engine: the 8-limb field on AVX-512 IFMA (lane_amd64.s,
// generated by genlane.go). A lane vector holds eight elements, each in ten
// 52-bit limbs — limb j of lane l at word 8j + l, so limb j of all eight is
// one ZMM register — and one lane product multiplies all eight pairs at the
// cost of ≈ 1.4 scalar products, however many lanes carry work. Lane form
// is Montgomery form for R = 2^520: v·2^520 mod p, any representative below
// 16p with every limb below 2^52; a product leaves it below 2p.
//
// A token's field work has few independent products per step, not eight,
// and the kernels fill what there is: ReplayJ runs a Miller step's three
// squares in one product and its five line products in the next, LucasLadders
// a step's product and square in one, for up to four ladders at once. Where the CPU lacks IFMA (Kernel) the
// scalar kernels run instead; the results are the same field elements.

const laneLimbs = 10

const mask52 = 1<<52 - 1

// laneVec is eight field elements in lane layout.
type laneVec [laneLimbs * 8]uint64

// set writes the limbs e into lane l.
func (v *laneVec) set(l int, e *[laneLimbs]uint64) {
	for j := range e {
		v[8*j+l] = e[j]
	}
}

// laneField is one 8-limb field's constants for the lane kernels, which
// read them by the offsets in go_asm.h.
type laneField struct {
	p      [laneLimbs]uint64 // p in radix 2^52
	n0     uint64            // −p⁻¹ mod 2^52
	one    [laneLimbs]uint64 // 2^512 mod p, the lane form of 2^−8: ·one takes lane form to R = 2^512
	fInit  laneVec           // [1, 0, 1, 0, …] in lane form: the replay's f = 1
	c42    laneVec           // [4p, 2p, 4p, 2p, …]: keeps a replay step's lane sums positive
	gather [8]uint64         // 0, 16, …, 112: one word of eight consecutive program lines
	// Permutation indices (genlane.go, laneReplayJ8): the square's y, the
	// operands of the second product after a square with and without a
	// line, and the terms of the new f after each step kind.
	idxSq, idxSL, idxS            [8]uint64
	sl1, sl2, sl3, l1, l2, s1, s2 [8]uint64

	toLane [8]uint64         // 2^8 in Montgomery form: Mul(x, toLane) is x's lane form
	two    [laneLimbs]uint64 // 2 in lane form
	p2     [laneLimbs]uint64 // 2p
	in     [laneLimbs]uint64 // 2^528 mod p: a lane product by it takes Montgomery form to lane form
}

// replayScratch is laneReplayJ8's memory: the line table of the current
// eight program lines (L′ then sL′), f while the table is refilled, each
// step kind's constant y lanes, x and s in lane form, and the result.
type replayScratch struct {
	lines       [2]laneVec
	state       laneVec
	cSL, cL, cS laneVec
	xs          [2][laneLimbs]uint64
	out         laneVec
}

// walkScratch is laneWalkJ8's memory: the state [X, Y, Z, u, v, x, s] in
// and out, x and s in lane form, and each step's products and operands.
type walkScratch struct {
	st, xs               laneVec
	m1, z3, m2, e, m3, y laneVec
}

// ladderScratch is laneLadder8's memory: the starting pair [V_1, 2], the
// per-step addend [2p − V_1, 2p − 2], the next product's y and the result.
type ladderScratch struct {
	q, d, y, out laneVec
}

// radix52 sets e to the 52-bit limbs of x, at most nine words below 2^520.
func radix52(e *[laneLimbs]uint64, x []uint64) {
	var w [9]uint64
	copy(w[:], x)
	for j := range e {
		k, s := 52*j/64, uint(52*j%64)
		v := w[k] >> s
		if s > 12 {
			v |= w[k+1] << (64 - s)
		}
		e[j] = v & mask52
	}
}

// bigRadix52 sets e to the 52-bit limbs of v < 2^520 (construction only).
func bigRadix52(e *[laneLimbs]uint64, v *big.Int) {
	var w [9]uint64
	limbsFromBig(w[:], v)
	radix52(e, w[:])
}

// sub52 sets z = x − y for normalised x ≥ y, normalised.
func sub52(z, x, y *[laneLimbs]uint64) {
	var b uint64
	for j := range z {
		d := x[j] - y[j] - b
		b = d >> 63
		z[j] = d & mask52
	}
}

// fromLane sets z to lane l of v, a value below 2p normalised to 52-bit
// limbs, fully reduced in the 64-bit limbs of Montgomery form.
//
//cryptolint:hotpath
func (f *Field) fromLane(z []uint64, v *laneVec, l int) {
	var w [9]uint64
	for j := 0; j < laneLimbs; j++ {
		e, k, s := v[8*j+l], 52*j/64, uint(52*j%64)
		w[k] |= e << s
		if s > 12 {
			w[k+1] |= e >> (64 - s)
		}
	}
	var d [8]uint64
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(w[i], f.p[i], b)
	}
	_, b = bits.Sub64(w[8], 0, b)
	keep := -b // a borrow: w < p
	for i := range d {
		z[i] = (w[i] & keep) | (d[i] &^ keep)
	}
}

func newLaneField(f *Field) *laneField {
	lf := &laneField{n0: f.n0 & mask52}
	p := f.pBig
	modp := func(e uint) *big.Int { return new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), e), p) }
	bigRadix52(&lf.p, p)
	radix52(&lf.one, f.one)
	var r [laneLimbs]uint64
	bigRadix52(&r, modp(520))
	var p4 [laneLimbs]uint64
	bigRadix52(&lf.p2, new(big.Int).Lsh(p, 1))
	bigRadix52(&p4, new(big.Int).Lsh(p, 2))
	for l := 0; l < 8; l += 2 {
		lf.fInit.set(l, &r)
		lf.c42.set(l, &p4)
		lf.c42.set(l+1, &lf.p2)
	}
	limbsFromBig(lf.toLane[:], modp(520))
	bigRadix52(&lf.two, new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(2), 520), p))
	bigRadix52(&lf.in, modp(528))
	for l := range lf.gather {
		lf.gather[l] = uint64(16 * l)
	}
	alt := func(v *[8]uint64, re, im uint64) {
		for l := 0; l < 8; l += 2 {
			v[l], v[l+1] = re, im
		}
	}
	lf.idxSq = [8]uint64{0, 1, 1}
	lf.idxSL = [8]uint64{0, 1, 2, 1, 2, 0}
	lf.idxS = [8]uint64{0, 1, 2}
	alt(&lf.sl1, 0, 5)
	alt(&lf.sl2, 1, 3)
	alt(&lf.sl3, 2, 4)
	alt(&lf.l1, 0, 2)
	alt(&lf.l2, 1, 3)
	alt(&lf.s1, 0, 2)
	alt(&lf.s2, 1, 2)
	return lf
}

// ReplayJ runs a Miller program's replay in F_p[j]/(j² + s) on the lane
// engine and reports whether it did: false, leaving a and b alone, at any
// width but 8 limbs or where Kernel does not name the lanes. From f = 1,
// step i squares f if bit 0 of kinds[i] is set and then, if bit 1 is, folds
// in the next line, f ← f·((α·x + β) + j), the lines being lines' (β, α)
// pairs of eight limbs each in order. The result a + b·j is that f times
// 2^(−8m), m the number of steps that square or fold — the lane form of a
// program's (α, β) is 2^−8 times theirs — an F_p* factor a pairing's final
// exponentiation removes. A program whose lines run short is refused.
//
//cryptolint:hotpath
func (f *Field) ReplayJ(a, b []uint64, kinds []byte, lines, x, s []uint64) bool {
	if !f.Lanes() {
		return false
	}
	nl := 0
	for _, k := range kinds {
		if k > 3 { //cryptolint:public (step kinds are the program's shape, which q fixes)
			return false
		}
		nl += int(k >> 1)
	}
	if 16*nl > len(lines) { //cryptolint:public (the line count is the program's shape, which q fixes)
		return false
	}
	lf := f.lanes
	var sc replayScratch
	var t [8]uint64
	f.Mul(t[:], x, lf.toLane[:])
	radix52(&sc.xs[0], t[:])
	f.Mul(t[:], s, lf.toLane[:])
	radix52(&sc.xs[1], t[:])
	// s′ = s·2^−8 is s's Montgomery form read as lane form.
	var s52 [laneLimbs]uint64
	radix52(&s52, s)
	sc.cSL.set(2, &s52)
	sc.cSL.set(3, &s52)
	sc.cSL.set(5, &lf.one)
	sc.cL.set(1, &s52)
	sc.cL.set(2, &lf.one)
	sc.cS.set(0, &lf.one)
	sc.cS.set(1, &s52)
	sc.cS.set(2, &lf.one)
	laneReplayJ8(&sc, lf, unsafe.SliceData(kinds), uint64(len(kinds)), unsafe.SliceData(lines), uint64(nl))
	f.fromLane(a, &sc.out, 0)
	f.fromLane(b, &sc.out, 1)
	return true
}

// Lanes reports whether ReplayJ and WalkJ run on the lane engine: at 8
// limbs, where Kernel names it. A caller that has to prepare their
// operands asks first.
func (f *Field) Lanes() bool { return f.n == 8 && useLanes }

// WalkJ runs steps doubling steps of a one-pair Miller walk in
// F_p[j]/(j² + s) on the lane engine and reports whether it did: false,
// leaving every argument alone, where Lanes does not hold. A step squares
// the accumulator f = a + b·j, doubles the running point V = (X, Y, Z)
// (Jacobian, on y² = x³ + x) by the b = 0 formulas of a pairing's walk —
// X₃ = E², Y₃ = E·(E² + 8AC), Z₃ = 2YZ with A = X², C = Z⁴, E = A − C — and
// folds in the tangent's line at the abscissa x, f ← f²·((a + b·x) + c·j)
// with a = X·E, b = (3A + C)·Z², c = Z₃·Z². The results are those field
// elements, each in Montgomery form. A step from V = O or to 2V = O (Z = 0
// or Y = 0) leaves Z = 0, and every later step keeps it there, so the
// caller finds such a step in the Z it gets back; the kernel does not
// branch on it, nor on anything but steps.
//
//cryptolint:hotpath
func (f *Field) WalkJ(X, Y, Z, a, b, x, s []uint64, steps int) bool {
	if !f.Lanes() {
		return false
	}
	var sc walkScratch
	var e [laneLimbs]uint64
	for l, v := range [...][]uint64{X, Y, Z, a, b, x, s} {
		radix52(&e, v)
		sc.st.set(l, &e)
	}
	laneWalkJ8(&sc, f.lanes, uint64(steps))
	for l, v := range [...][]uint64{X, Y, Z, a, b} {
		f.fromLane(v, &sc.st, l)
	}
	return true
}

// expLanes is ExpEach on the lane engine for up to eight bases and e > 0,
// base l in lane l: Exp's sliding window, the table of odd powers and every
// squaring and product of the walk one lane product for all the bases. The
// windows fall where e's bits put them, the same for every lane, so the
// kernel is laneMul8 alone and the walk branches on e only. Lanes without
// a base carry zeros.
//
//cryptolint:hotpath
func (f *Field) expLanes(zs, xs [][]uint64, e *big.Int) {
	lf := f.lanes
	var odd [1 << (expWindow - 1)]laneVec // odd[k] = x^(2k+1), lane by lane
	var r, sq laneVec
	var t [8]uint64
	var v [laneLimbs]uint64
	for l, x := range xs {
		f.Mul(t[:], x, lf.toLane[:])
		radix52(&v, t[:])
		odd[0].set(l, &v)
	}
	laneMul8(&sq, &odd[0], &odd[0], lf)
	for k := 1; k < len(odd); k++ {
		laneMul8(&odd[k], &odd[k-1], &sq, lf)
	}
	// The top bit of e is set: the walk starts from its first window's
	// power instead of squaring 1.
	started := false
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			laneMul8(&r, &r, &r, lf)
			i--
			continue
		}
		j := max(i-expWindow+1, 0)
		for e.Bit(j) == 0 {
			j++
		}
		w := uint(0)
		for k := i; k >= j; k-- {
			if started {
				laneMul8(&r, &r, &r, lf)
			}
			w = w<<1 | e.Bit(k)
		}
		if started {
			laneMul8(&r, &r, &odd[w>>1], lf)
		} else {
			r, started = odd[w>>1], true
		}
		i = j - 1
	}
	// ·2^512 (lf.one) takes lane form back to Montgomery form for R = 2^512.
	for l := range 8 {
		sq.set(l, &lf.one)
	}
	laneMul8(&r, &r, &sq, lf)
	for l := range xs {
		f.fromLane(zs[l], &r, l)
	}
}

// lucasLanes is LucasLadders on the lane engine, for k's words in kw:
// ladder m in lanes 2m and 2m + 1. A nil vk1 skips the V_(k+1) outputs. The
// inputs are read before anything is written, so vk may alias v1.
//
//cryptolint:hotpath
func (f *Field) lucasLanes(vk, vk1, v1 [][]uint64, kw *uint64, bits int) {
	lf := f.lanes
	var sc ladderScratch
	var t [8]uint64
	var v, d, d2 [laneLimbs]uint64
	sub52(&d2, &lf.p2, &lf.two)
	for m := range v1 {
		f.Mul(t[:], v1[m], lf.toLane[:])
		radix52(&v, t[:])
		sc.q.set(2*m, &v)
		sc.q.set(2*m+1, &lf.two)
		sub52(&d, &lf.p2, &v)
		sc.d.set(2*m, &d)
		sc.d.set(2*m+1, &d2)
	}
	laneLadder8(&sc, lf, kw, uint64(bits))
	for m := range vk {
		f.fromLane(vk[m], &sc.out, 2*m)
		if vk1 != nil {
			f.fromLane(vk1[m], &sc.out, 2*m+1)
		}
	}
}
