//go:build ignore

// gen8 writes fp8.go — the straight-line 8-limb Go kernels behind
// Field.Mul, Square, Add and Sub — and fp8_amd64.s, the same Montgomery
// multiplication on MULX/ADCX/ADOX for amd64 CPUs that have them, alone
// (mul8) and as the products of four one-call kernels: the F_p² product
// and square (MulFp2, SquareFp2), the Miller program's line folded into its
// accumulator (MulLine) and the Lucas ladder on the trace (LucasLadder).
// Run it with `go generate ./internal/fp`; CI re-runs it and fails on any
// difference from the committed output.
//
// The generator is a program rather than ~1000 hand-kept lines because the
// kernels are pure repetition with shifting indices: every word of the
// accumulator, the operand and the modulus is a local variable, and every
// multi-word addition is one run of bits.Add64 calls in which each carry
// out is the next carry in. That is the shape the Go compiler turns into an
// ADD/ADC run with no carry materialised in between; it does not unroll
// loops, so the loop form keeps the accumulator in a stack array and pays
// a load, a store and two carry fix-ups per word product.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

const n = 8 // limbs

var out bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

// seq returns prefix<lo> … prefix<hi−1>.
func seq(prefix string, lo, hi int) []string {
	var s []string
	for i := lo; i < hi; i++ {
		s = append(s, fmt.Sprintf("%s%d", prefix, i))
	}
	return s
}

// names is seq as a declaration list: "prefix0, prefix1, …".
func names(prefix string, lo, hi int) string { return strings.Join(seq(prefix, lo, hi), ", ") }

// load emits "prefix0 … prefix7 := ptr[0] … ptr[7]".
func load(prefix, ptr string) {
	var src []string
	for i := 0; i < n; i++ {
		src = append(src, fmt.Sprintf("%s[%d]", ptr, i))
	}
	p("%s := %s", names(prefix, 0, n), strings.Join(src, ", "))
}

// products emits the eight word products (h_j, l_j) = a_j·b.
func products(a, b string) {
	for j := 0; j < n; j++ {
		p("h%d, l%d = bits.Mul64(%s%d, %s)", j, j, a, j, b)
	}
}

// chain emits one carry chain dst[k] = a[k] + b[k] + carry, k = 0…len−1.
// An operand "0" is the constant zero; the chain starts with carry 0 and
// leaves its carry out in c.
func chain(dst, a, b []string) {
	for k := range dst {
		p("%s, c = bits.Add64(%s, %s, %s)", dst[k], a[k], b[k], carryIn(k, "c"))
	}
}

// carryIn names the carry (or borrow) into step k of a chain: the first
// step has none.
func carryIn(k int, v string) string {
	if k == 0 {
		return "0"
	}
	return v
}

// finish emits the shared tail: with the result t < 2p in words
// t[lo…lo+7] and the 0/1 word top above them, subtract p once and keep,
// by mask, whichever of t and t − p is the reduced value.
func finish(lo int, top string) {
	p("")
	p("// t < 2p: subtract p once; a borrow out of the top word means t < p.")
	p("var b uint64")
	for i := 0; i < n; i++ {
		p("l%d, b = bits.Sub64(t%d, p%d, %s)", i, lo+i, i, carryIn(i, "b"))
	}
	p("_, b = bits.Sub64(%s, 0, b)", top)
	p("mask := -b // all ones: keep t")
	p("zp := (*[8]uint64)(z)")
	for i := 0; i < n; i++ {
		p("zp[%d] = (t%d & mask) | (l%d &^ mask)", i, lo+i, i)
	}
}

// reduceRound emits one Montgomery reduction round on the accumulator
// words t[i…i+8]: m = t[i]·n0, t += m·p·W^i, which zeroes t[i]. The carry
// out of word i+8 lands in e — by the bound in the kernel's comment it is
// at most one, so the two partial carries are never both set.
func reduceRound(i int) {
	p("m = t%d * n0", i)
	products("p", "m")
	// Lows into words i…i+7 (word i cancels), the pending carry into i+8.
	top := fmt.Sprintf("t%d", i+n)
	dst := append(append([]string{"_"}, seq("t", i+1, i+n)...), top)
	chain(dst, append(seq("t", i, i+n), top), append(seq("l", 0, n), "e"))
	p("e = c")
	// Highs into words i+1…i+8.
	chain(seq("t", i+1, i+n+1), seq("t", i+1, i+n+1), seq("h", 0, n))
	p("e += c")
}

func genMul() {
	p(`// montMul8 sets z = x·y·R⁻¹ mod p for any odd 8-limb modulus; z may alias
// x and/or y. It is CIOS Montgomery multiplication — the same eight
// rounds, the same intermediate values and so the same result, bit for
// bit, as montMulGeneric — with the nine accumulator words t0…t8, the
// operand x and the modulus held in locals.
//
// Round i adds x·y[i] and then m·p with m = t0·n0 (which zeroes the low
// word) and shifts down one limb. Each half is eight bits.Mul64 into
// (h_j, l_j) followed by two carry chains: the lows into t0…t7 and the
// highs into t1…t8. Between rounds t < 2p, so t8 ≤ 1; inside a round
// t + x·y[i] < 2p + p·2⁶⁴ can reach one bit into a tenth word, which lives
// in t9 until the shift brings it back down to t8. For a modulus with its
// top bit clear t9 is always zero, but the paper prime has all 512 bits.
//
//cryptolint:hotpath
func (f *Field) montMul8(z, x, y []uint64) {`)
	p("xp := (*[8]uint64)(x)")
	p("yp := (*[8]uint64)(y)")
	p("pp := (*[8]uint64)(f.p)")
	load("x", "xp")
	load("p", "pp")
	p("n0 := f.n0")
	p("var %s uint64", names("t", 0, n+2))
	p("var %s uint64", names("h", 0, n))
	p("var %s uint64", names("l", 0, n))
	p("var c, m, yi uint64")
	for i := 0; i < n; i++ {
		p("")
		p("// round %d", i)
		p("yi = yp[%d]", i)
		products("x", "yi")
		if i == 0 {
			// t = 0: the row product is the accumulator.
			p("t0 = l0")
			chain(seq("t", 1, n+1), append(seq("l", 1, n), "0"), seq("h", 0, n))
		} else {
			chain(seq("t", 0, n+1), seq("t", 0, n+1), append(seq("l", 0, n), "0"))
			p("t9 = c")
			chain(seq("t", 1, n+1), seq("t", 1, n+1), seq("h", 0, n))
			p("t9 += c")
		}
		p("m = t0 * n0")
		products("p", "m")
		// Lows of m·p, shifted down one limb: word 0 cancels.
		chain(append([]string{"_"}, seq("t", 0, n)...), seq("t", 0, n+1), append(seq("l", 0, n), "0"))
		if i == 0 {
			p("t8 = c")
		} else {
			p("t8 = t9 + c")
		}
		chain(seq("t", 0, n), seq("t", 0, n), seq("h", 0, n))
		p("t8 += c")
	}
	finish(0, "t8")
	p("}")
}

func genSqr() {
	p(`// montSqr8 sets z = x²·R⁻¹ mod p for any odd 8-limb modulus; z may alias
// x. Squaring gets its own kernel because x_i·x_j = x_j·x_i: the 28
// products above the diagonal are formed once and doubled, so with the 8
// diagonal squares the product costs 36 word multiplications against
// montMul8's 64 (the 64 of the reduction are common to both).
//
// The full square is built first in t0…t15 — off-diagonal rows, one
// doubling pass, then the diagonal — and reduced after, which is the
// separated (SOS) form of the same Montgomery reduction: round i adds
// m·p·W^i with m = t_i·n0. After round i the words below i+9 hold less
// than 2·W^(i+9), so the carry out of word i+8 is a single bit; it is
// carried in e into the next round, and after the last round e is the
// seventeenth word. The result t8…t15 + e·W⁸ is below 2p and congruent to
// x²·R⁻¹, hence after the final subtraction equal to montMul8(x, x).
//
//cryptolint:hotpath
func (f *Field) montSqr8(z, x []uint64) {`)
	p("xp := (*[8]uint64)(x)")
	p("pp := (*[8]uint64)(f.p)")
	load("x", "xp")
	load("p", "pp")
	p("n0 := f.n0")
	p("var %s uint64", names("t", 0, 2*n))
	p("var %s uint64", names("h", 0, n))
	p("var %s uint64", names("l", 0, n))
	p("var c, e, m uint64")
	p("")
	p("// Off-diagonal rows: row i adds x_i·(x_(i+1)…x_7)·W^(2i+1). The sum of")
	p("// rows 0…i is below W^(i+9), so word i+8 takes the row's last carry and")
	p("// nothing carries out of it.")
	for i := 0; i < n-1; i++ {
		k := n - 1 - i // products in this row
		for j := 0; j < k; j++ {
			p("h%d, l%d = bits.Mul64(x%d, x%d)", j, j, i, i+1+j)
		}
		lo := 2*i + 1 // word of l0
		if i == 0 {
			p("t1 = l0")
			if k > 1 {
				chain(seq("t", 2, k+1), seq("l", 1, k), seq("h", 0, k-1))
				p("t%d = h%d + c", k+1, k-1)
			}
			continue
		}
		chain(seq("t", lo, lo+k), seq("t", lo, lo+k), seq("l", 0, k))
		p("t%d = c", lo+k)
		chain(seq("t", lo+1, lo+k+1), seq("t", lo+1, lo+k+1), seq("h", 0, k))
	}
	p("")
	p("// Double (t15 is still zero and takes the top bit), then add the")
	p("// diagonal x_i²·W^(2i); x² < W¹⁶, so no carry leaves t15.")
	chain(seq("t", 1, 2*n-1), seq("t", 1, 2*n-1), seq("t", 1, 2*n-1))
	p("t15 = c")
	for i := 0; i < n; i++ {
		p("h%d, l%d = bits.Mul64(x%d, x%d)", i, i, i, i)
	}
	p("t0 = l0")
	var diag []string
	for i := 0; i < n; i++ {
		diag = append(diag, fmt.Sprintf("l%d", i), fmt.Sprintf("h%d", i))
	}
	chain(seq("t", 1, 2*n), seq("t", 1, 2*n), diag[1:])
	for i := 0; i < n; i++ {
		p("")
		p("// reduction round %d", i)
		reduceRound(i)
	}
	finish(n, "e")
	p("}")
}

func genAddSub() {
	p(`// add8 sets z = x + y mod p on 8 limbs; z may alias x or y. Add and Sub
// have kernels of their own because the tower and the curve formulas call
// them about as often as Mul: with every word in a local they are two
// carry chains and a masked select, where the any-width loops go through
// a [MaxLimbs] stack array and a slice-bounded ctSelect.
//
//cryptolint:hotpath
func (f *Field) add8(z, x, y []uint64) {`)
	p("xp := (*[8]uint64)(x)")
	p("yp := (*[8]uint64)(y)")
	p("pp := (*[8]uint64)(f.p)")
	p("var %s uint64", names("s", 0, n))
	p("var %s uint64", names("d", 0, n))
	p("var c, b uint64")
	for i := 0; i < n; i++ {
		p("s%d, c = bits.Add64(xp[%d], yp[%d], %s)", i, i, i, carryIn(i, "c"))
	}
	for i := 0; i < n; i++ {
		p("d%d, b = bits.Sub64(s%d, pp[%d], %s)", i, i, i, carryIn(i, "b"))
	}
	p("// Keep the raw sum only when it did not overflow (c = 0) and the")
	p("// subtraction borrowed (sum < p).")
	p("_, b = bits.Sub64(c, b, 0)")
	p("mask := -b")
	p("zp := (*[8]uint64)(z)")
	for i := 0; i < n; i++ {
		p("zp[%d] = (s%d & mask) | (d%d &^ mask)", i, i, i)
	}
	p("}")
	p("")
	p(`// sub8 sets z = x − y mod p on 8 limbs; z may alias x or y.
//
//cryptolint:hotpath
func (f *Field) sub8(z, x, y []uint64) {`)
	p("xp := (*[8]uint64)(x)")
	p("yp := (*[8]uint64)(y)")
	p("pp := (*[8]uint64)(f.p)")
	p("var %s uint64", names("d", 0, n))
	p("var c, b uint64")
	for i := 0; i < n; i++ {
		p("d%d, b = bits.Sub64(xp[%d], yp[%d], %s)", i, i, i, carryIn(i, "b"))
	}
	p("m := -b // add p back iff the subtraction borrowed")
	for i := 0; i < n; i++ {
		p("d%d, c = bits.Add64(d%d, pp[%d]&m, %s)", i, i, i, carryIn(i, "c"))
	}
	p("zp := (*[8]uint64)(z)")
	for i := 0; i < n; i++ {
		p("zp[%d] = d%d", i, i)
	}
	p("}")
}

// The registers of the assembly kernels. Ten accumulator words (t0…t8 and
// the one-bit tenth word), DX as MULX's implicit multiplicand, two product
// halves and the x and p pointers are all fifteen: BP is free because a
// non-zero frame makes the assembler save and restore it, R14 and R15
// because an ABI0 function that touches no global owes the runtime neither.
// Every other pointer, and n0, is re-read from the arguments where it is
// used.
var (
	acc        = []string{"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15", "DI", "BP"}
	lo, hi     = "AX", "BX"
	xPtr, pPtr = "SI", "CX"
)

// operand names word j of an eight-word value: a memory operand, or the
// registers holding it.
type operand func(j int) string

// at is the value whose address is in the register r.
func at(r string) operand {
	return func(j int) string { return fmt.Sprintf("%d(%s)", 8*j, r) }
}

// regs is the value held in the registers t.
func regs(t []string) operand { return func(j int) string { return t[j] } }

// frame is a kernel's stack: slots of eight words under the pseudo-SP,
// slot 0 lowest.
type frame int

func (fr frame) size() int { return 64 * int(fr) }

// slot is the value in stack slot s, its words named name0…name7.
func (fr frame) slot(name string, s int) operand {
	return func(j int) string { return fmt.Sprintf("%s%d-%d(SP)", name, j, fr.size()-64*s-8*j) }
}

// mulxChains emits t += DX·src over words 0…8, the carries out of word 8
// added into word 9: eight MULXQ, their low halves on the OF chain and
// their high halves, one word up, on the CF chain. The caller has cleared
// both flags; MOVQ leaves them alone.
func mulxChains(src operand, t []string) {
	for j := 0; j < n; j++ {
		p("\tMULXQ %s, %s, %s", src(j), lo, hi)
		p("\tADOXQ %s, %s", lo, t[j])
		p("\tADCXQ %s, %s", hi, t[j+1])
	}
	p("\tMOVQ $0, %s", lo)
	p("\tADOXQ %s, %s", lo, t[n])
	p("\tADCXQ %s, %s", lo, t[n+1])
	p("\tADOXQ %s, %s", lo, t[n+1])
}

// opening picks the instruction that starts a single carry run (no carry
// in) over the one that continues it.
func opening(first bool, start, cont string) string {
	if first {
		return start
	}
	return cont
}

// montRounds emits the eight CIOS rounds of x·y·R⁻¹ — x read in place, y[i]
// brought into DX by loadY(i), n0 the argument holding −p⁻¹ mod 2⁶⁴, p's
// address in CX — and returns the accumulator registers in word order: the
// value, below 2p, in words 0…7 and its 0/1 top in word 8. Every product
// of every kernel is this one sequence; only where its operands live
// differs.
func montRounds(x operand, loadY func(i int), n0 string) []string {
	t := acc
	for i := 0; i < n; i++ {
		p("")
		p("\t// round %d: t += x·y[%d]", i, i)
		loadY(i)
		if i == 0 {
			// t = 0: the row product is the accumulator, on one chain.
			p("\tMULXQ %s, %s, %s", x(0), t[0], t[1])
			for j := 1; j < n; j++ {
				p("\tMULXQ %s, %s, %s", x(j), lo, t[j+1])
				p("\t%s %s, %s", opening(j == 1, "ADDQ", "ADCQ"), lo, t[j])
			}
			p("\tADCQ $0, %s", t[n])
			p("\tMOVQ $0, %s", t[n+1])
		} else {
			p("\tXORQ %s, %s", lo, lo)
			p("\tMOVQ $0, %s", t[n+1])
			mulxChains(x, t)
		}
		p("\t// t += m·p, m = t0·n0: word 0 cancels")
		p("\tMOVQ %s, DX", n0)
		p("\tIMULQ %s, DX", t[0])
		p("\tXORQ %s, %s", lo, lo)
		mulxChains(at(pPtr), t)
		t = append(t[1:], t[0])
	}
	return t
}

// yArg loads y[i] through the pointer argument arg; yIn reads it in place.
func yArg(arg string) func(i int) {
	return func(i int) {
		p("\tMOVQ %s, DX", arg)
		p("\tMOVQ %d(DX), DX", 8*i)
	}
}

func yIn(y operand) func(i int) {
	return func(i int) { p("\tMOVQ %s, DX", y(i)) }
}

// subP emits the tail every sum and product here ends in: with t < 2p in
// t[0…7] and the 0/1 word t[8], subtract p once; a borrow out of word 8
// means t < p, and the copy kept in tmp comes back.
func subP(t []string, tmp operand) {
	p("\t// t < 2p: subtract p once; a borrow out of word 8 means t < p, and the")
	p("\t// stored t comes back.")
	move(tmp, regs(t))
	for k := 0; k < n; k++ {
		p("\t%s %d(%s), %s", opening(k == 0, "SUBQ", "SBBQ"), 8*k, pPtr, t[k])
	}
	p("\tSBBQ $0, %s", t[n])
	for k := 0; k < n; k++ {
		p("\tCMOVQCS %s, %s", tmp(k), t[k])
	}
}

// move emits dst = src word by word.
func move(dst, src operand) {
	for k := 0; k < n; k++ {
		p("\tMOVQ %s, %s", src(k), dst(k))
	}
}

// addMod emits t = t + y mod p for reduced t (in t[0…7]) and y; t[8] is
// the carry word.
func addMod(t []string, y, tmp operand) {
	for k := 0; k < n; k++ {
		p("\t%s %s, %s", opening(k == 0, "ADDQ", "ADCQ"), y(k), t[k])
	}
	p("\tMOVQ $0, %s", t[n])
	p("\tADCQ $0, %s", t[n])
	subP(t, tmp)
}

// subMod emits t = t − y mod p for reduced t (in t[0…7]) and y: subtract,
// keep the difference in tmp, add p, and take the kept difference back
// unless the subtraction borrowed. The borrow mask lives in BX.
func subMod(t []string, y, tmp operand) {
	for k := 0; k < n; k++ {
		p("\t%s %s, %s", opening(k == 0, "SUBQ", "SBBQ"), y(k), t[k])
	}
	p("\tSBBQ %s, %s", hi, hi)
	move(tmp, regs(t))
	for k := 0; k < n; k++ {
		p("\t%s %d(%s), %s", opening(k == 0, "ADDQ", "ADCQ"), 8*k, pPtr, t[k])
	}
	p("\tTESTQ %s, %s", hi, hi)
	for k := 0; k < n; k++ {
		p("\tCMOVQEQ %s, %s", tmp(k), t[k])
	}
}

func genMul8() {
	p(`// func mul8(z, x, y, p *[8]uint64, n0 uint64)
//
// mul8 sets z = x·y·R⁻¹ mod p for any odd 8-limb modulus; z may alias x
// and/or y (it is written after the last read). It is montMul8's CIOS
// round for round — add x·y[i], add m·p with m = t0·n0, shift down one limb
// — with each half's two carry runs, which the Go kernel makes one after
// the other, as one ADOX and one ADCX chain running side by side under
// eight MULX. A round's sum can reach one bit into a tenth word (the paper
// prime has all 512 bits), so each half ends by adding both chains' carries
// out of word 8 into word 9; the shift brings it back down to word 8. The
// shift itself is a renaming: the word the reduction zeroes becomes the
// next round's tenth. Straight-line, and no branch or address depends on
// an operand. The kernels after it are built from the same rounds.
TEXT ·mul8(SB), NOSPLIT, $64-40
	MOVQ x+8(FP), %s
	MOVQ p+24(FP), %s`, xPtr, pPtr)
	t := montRounds(at(xPtr), yArg("y+16(FP)"), "n0+32(FP)")
	p("")
	subP(t, frame(1).slot("t", 0))
	p("\tMOVQ z+0(FP), %s", lo)
	move(at(lo), regs(t))
	p("\tRET")
}

// val is an F_p value a kernel reads: a pointer argument (arg, the
// argument's FP reference) or a frame slot. name labels it in comments.
type val struct {
	name, arg string
	slot      operand
}

func argVal(arg string) val { return val{name: arg[:strings.IndexByte(arg, '+')], arg: arg} }

// in makes v readable in place: a slot as it is, an argument through the
// register r, which the emitted code loads here.
func (v val) in(r string) operand {
	if v.arg == "" {
		return v.slot
	}
	p("\tMOVQ %s, %s", v.arg, r)
	return at(r)
}

// asY is v as montRounds' y operand.
func (v val) asY() func(i int) {
	if v.arg == "" {
		return yIn(v.slot)
	}
	return yArg(v.arg)
}

// fp2Product emits (zr + zi·i) = (ar + ai·i)·(br + bi·i) by Karatsuba —
// v0 = ar·br, v1 = ai·bi, zr = v0 − v1, zi = (ar + ai)·(br + bi) − v0 − v1 —
// in slots 0…4 of fr, with n0 and p's address in CX as montRounds wants
// them and the outputs the pointer arguments zr and zi, written after the
// last read of an input.
func fp2Product(fr frame, n0, zr, zi string, ar, ai, br, bi val) {
	tmp, s, u, v0, v1 := fr.slot("t", 0), fr.slot("s", 1), fr.slot("u", 2), fr.slot("v", 3), fr.slot("w", 4)
	for _, sum := range []struct {
		dst  operand
		x, y val
	}{{s, ar, ai}, {u, br, bi}} {
		p("")
		p("\t// %s + %s", sum.x.name, sum.y.name)
		move(regs(acc), sum.x.in(xPtr))
		addMod(acc, sum.y.in("DX"), tmp)
		move(sum.dst, regs(acc))
	}
	for _, prod := range []struct {
		dst  operand
		x, y val
	}{{v0, ar, br}, {v1, ai, bi}} {
		p("")
		p("\t// %s·%s", prod.x.name, prod.y.name)
		t := montRounds(prod.x.in(xPtr), prod.y.asY(), n0)
		subP(t, tmp)
		move(prod.dst, regs(t))
	}
	p("")
	p("\t// (%s + %s)·(%s + %s), then %s = that − v0 − v1", ar.name, ai.name, br.name, bi.name, zi[:2])
	t := montRounds(s, yIn(u), n0)
	subP(t, tmp)
	subMod(t, v0, tmp)
	subMod(t, v1, tmp)
	p("\tMOVQ %s, %s", zi, lo)
	move(at(lo), regs(t))
	p("")
	p("\t// %s = v0 − v1", zr[:2])
	move(regs(acc), v0)
	subMod(acc, v1, tmp)
	p("\tMOVQ %s, %s", zr, lo)
	move(at(lo), regs(acc))
}

func genMulFp2() {
	fr := frame(5)
	p(`
// func mulFp2x8(zr, zi, ar, ai, br, bi, p *[8]uint64, n0 uint64)
//
// mulFp2x8 is MulFp2 at 8 limbs in one call: (zr + zi·i) = (ar + ai·i)·
// (br + bi·i) in F_p[i]/(i² + 1) by Karatsuba — v0 = ar·br, v1 = ai·bi,
// v2 = (ar + ai)·(br + bi), zr = v0 − v1, zi = v2 − v0 − v1 — with mul8's
// rounds for the three products and every sum and difference reduced mod p
// in registers; the intermediates live in the frame. The outputs are
// written after the last read of an input, so they may alias any input
// coordinate.
TEXT ·mulFp2x8(SB), NOSPLIT, $%d-64
	MOVQ p+48(FP), %s`, fr.size(), pPtr)
	fp2Product(fr, "n0+56(FP)", "zr+0(FP)", "zi+8(FP)",
		argVal("ar+16(FP)"), argVal("ai+24(FP)"), argVal("br+32(FP)"), argVal("bi+40(FP)"))
	p("\tRET")
}

func genLine() {
	fr := frame(6)
	r := fr.slot("r", 5)
	p(`
// func lineMul8(ar, ai, alpha, beta, x, y, p *[8]uint64, n0 uint64)
//
// lineMul8 is MulLine at 8 limbs in one call: r = alpha·x + beta, then
// (ar + ai·i) ← (ar + ai·i)·(r + y·i) as in mulFp2x8 — a Miller program's
// line evaluated at (x, y) and folded into the accumulator, four of mul8's
// products with r kept in the frame.
TEXT ·lineMul8(SB), NOSPLIT, $%d-64
	MOVQ p+48(FP), %s`, fr.size(), pPtr)
	p("\t// r = alpha·x + beta")
	t := montRounds(argVal("alpha+16(FP)").in(xPtr), yArg("x+32(FP)"), "n0+56(FP)")
	subP(t, fr.slot("t", 0))
	addMod(t, argVal("beta+24(FP)").in(xPtr), fr.slot("t", 0))
	move(r, regs(t))
	fp2Product(fr, "n0+56(FP)", "ar+0(FP)", "ai+8(FP)",
		argVal("ar+0(FP)"), argVal("ai+8(FP)"), val{name: "r", slot: r}, argVal("y+40(FP)"))
	p("\tRET")
}

func genSqrFp2() {
	fr := frame(3)
	tmp, s, d := fr.slot("t", 0), fr.slot("s", 1), fr.slot("d", 2)
	p(`
// func sqrFp2x8(zr, zi, ar, ai, p *[8]uint64, n0 uint64)
//
// sqrFp2x8 is SquareFp2 at 8 limbs in one call: (ar + ai·i)² =
// (ar + ai)·(ar − ai) + 2·ar·ai·i, mul8's rounds for the two products and
// the sum, difference and doubling reduced mod p in registers. The outputs
// are written after the last read of an input, so they may alias either
// input coordinate.
TEXT ·sqrFp2x8(SB), NOSPLIT, $%d-48
	MOVQ p+32(FP), %s
	MOVQ ar+16(FP), %s
	MOVQ ai+24(FP), DX`, fr.size(), pPtr, xPtr)
	p("\t// ar + ai, ar − ai")
	move(regs(acc), at(xPtr))
	addMod(acc, at("DX"), tmp)
	move(s, regs(acc))
	move(regs(acc), at(xPtr))
	subMod(acc, at("DX"), tmp)
	move(d, regs(acc))
	p("")
	p("\t// zi = 2·ar·ai")
	t := montRounds(at(xPtr), yArg("ai+24(FP)"), "n0+40(FP)")
	subP(t, tmp)
	addMod(t, regs(t), tmp)
	p("\tMOVQ zi+8(FP), %s", lo)
	move(at(lo), regs(t))
	p("")
	p("\t// zr = (ar + ai)·(ar − ai)")
	t = montRounds(s, yIn(d), "n0+40(FP)")
	subP(t, tmp)
	p("\tMOVQ zr+0(FP), %s", lo)
	move(at(lo), regs(t))
	p("\tRET")
}

// cswap emits (dx, dy) = (x, y), swapped where the mask in BX is all ones.
func cswap(dx, dy, x, y operand) {
	a, b, d := acc[0], acc[1], acc[2]
	for k := 0; k < n; k++ {
		p("\tMOVQ %s, %s", x(k), a)
		p("\tMOVQ %s, %s", y(k), b)
		p("\tMOVQ %s, %s", a, d)
		p("\tXORQ %s, %s", b, d)
		p("\tANDQ %s, %s", hi, d)
		p("\tXORQ %s, %s", d, a)
		p("\tXORQ %s, %s", d, b)
		p("\tMOVQ %s, %s", a, dx(k))
		p("\tMOVQ %s, %s", b, dy(k))
	}
}

func genLucas() {
	fr := frame(4)
	tmp, x, y, c := fr.slot("t", 0), fr.slot("x", 1), fr.slot("y", 2), fr.slot("c", 3)
	p(`
// func lucasLadder8(vk, vk1, v1, two, p *[8]uint64, n0 uint64, k *uint64, bits uint64)
//
// lucasLadder8 is LucasLadder at 8 limbs in one call: the trace ladder over
// the bits-bit exponent k (little-endian words), from (V_0, V_1) = (2, v1)
// to (V_k, V_(k+1)) in (vk, vk1). Each step maps the pair (V_j, V_(j+1)) to
// (V_2j, V_(2j+1)) for a 0 bit and (V_(2j+1), V_(2j+2)) for a 1, where
// V_2j = V_j² − 2 and V_(2j+1) = V_j·V_(j+1) − V_1. The frame holds the
// pair as the last step left it, (x, y) = (the square term, the product
// term), which is the pair's order swapped by that step's bit; a step swaps
// by its bit XOR the last one, so one swap per bit does for the two a
// branch-free ladder needs, and the same instructions run for every
// exponent of a length. The loop runs bits times; only the counter and the
// exponent word it reads depend on the step number, which is public.
TEXT ·lucasLadder8(SB), NOSPLIT, $%d-64
	MOVQ p+32(FP), %s`, fr.size(), pPtr)
	p("\t// (x, y) = (V_0, V_1); no swap pending")
	p("\tMOVQ two+24(FP), %s", xPtr)
	move(regs(acc), at(xPtr))
	move(x, regs(acc))
	p("\tMOVQ v1+16(FP), %s", xPtr)
	move(regs(acc), at(xPtr))
	move(y, regs(acc))
	p("\tMOVQ $0, %s", c(1))
	p("\tMOVQ bits+56(FP), %s", lo)
	p("\tMOVQ %s, %s", lo, c(0))
	p("\tTESTQ %s, %s", lo, lo)
	p("\tJEQ done")
	p("")
	p("loop:")
	p("\t// bit i of k, i = the counter after its decrement")
	p("\tMOVQ %s, %s", c(0), lo)
	p("\tDECQ %s", lo)
	p("\tMOVQ %s, %s", lo, c(0))
	p("\tMOVQ %s, %s", lo, hi)
	p("\tSHRQ $6, %s", hi)
	p("\tMOVQ k+48(FP), %s", xPtr)
	p("\tMOVQ (%s)(%s*8), DX", xPtr, hi)
	p("\tMOVQ %s, %s", lo, pPtr)
	p("\tANDQ $63, %s", pPtr)
	p("\tSHRQ %s, DX", pPtr)
	p("\tANDQ $1, DX")
	p("\t// swap by this bit XOR the last one")
	p("\tMOVQ %s, %s", c(1), hi)
	p("\tMOVQ DX, %s", c(1))
	p("\tXORQ DX, %s", hi)
	p("\tNEGQ %s", hi)
	p("\tMOVQ p+32(FP), %s", pPtr)
	cswap(x, y, x, y)
	p("")
	p("\t// y = x·y − V_1")
	t := montRounds(x, yIn(y), "n0+40(FP)")
	subP(t, tmp)
	p("\tMOVQ v1+16(FP), %s", xPtr)
	subMod(t, at(xPtr), tmp)
	move(y, regs(t))
	p("")
	p("\t// x = x² − 2")
	t = montRounds(x, yIn(x), "n0+40(FP)")
	subP(t, tmp)
	p("\tMOVQ two+24(FP), %s", xPtr)
	subMod(t, at(xPtr), tmp)
	move(x, regs(t))
	p("\tMOVQ %s, %s", c(0), lo)
	p("\tTESTQ %s, %s", lo, lo)
	p("\tJNE loop")
	p("")
	p("done:")
	p("\t// (vk, vk1) = (x, y) swapped by the last bit; p's register takes vk1")
	p("\tMOVQ %s, %s", c(1), hi)
	p("\tNEGQ %s", hi)
	p("\tMOVQ vk+0(FP), %s", xPtr)
	p("\tMOVQ vk1+8(FP), %s", pPtr)
	cswap(at(xPtr), at(pPtr), x, y)
	p("\tRET")
}

func genAsm() {
	p(`// Code generated by gen8.go; DO NOT EDIT.

//go:build !purego

#include "textflag.h"
`)
	genMul8()
	genMulFp2()
	genLine()
	genSqrFp2()
	genLucas()
	p(`
// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET`)
}

func main() {
	p(`// Code generated by gen8.go; DO NOT EDIT.

// The kernels for the paper shape: 8 limbs / 512-bit moduli.
//
// Generate produces runtime primes, so unlike the BLS12-381 stacks there
// is no compile-time modulus to bake into the code; the specialization is
// keyed off the limb count instead (the n == 8 dispatch in fp.go). The
// kernels are straight-line: the Go compiler does not unroll loops, so
// only code written out word by word keeps the accumulator out of memory
// and lets consecutive bits.Add64 calls compile to one ADC run. gen8.go
// explains the shape; DESIGN §5c has the measurements.

package fp

import "math/bits"
`)
	genMul()
	p("")
	genSqr()
	p("")
	genAddSub()

	src, err := format.Source(out.Bytes())
	if err != nil {
		os.Stdout.Write(out.Bytes())
		log.Fatal(err)
	}
	if err := os.WriteFile("fp8.go", src, 0o644); err != nil {
		log.Fatal(err)
	}

	out.Reset()
	genAsm()
	if err := os.WriteFile("fp8_amd64.s", out.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
