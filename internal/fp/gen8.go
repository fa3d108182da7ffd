//go:build ignore

// gen8 writes fp8.go: the straight-line 8-limb kernels behind Field.Mul,
// Square, Add and Sub. Run it with `go generate ./internal/fp`; CI re-runs
// it and fails on any difference from the committed output.
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
}
