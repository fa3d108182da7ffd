package fp

import (
	"bytes"
	"math/big"
	"testing"
)

// fuzzFields are constructed once: the three 8-limb primes (paper: all 512
// bits; lazy: spare top bits; max: top limb all ones) drive the 8-limb
// kernels — the one Field.Mul selects on this CPU and, through MulGo and
// SquareGo, the Go ones of fp8.go — and the 9-, 4-, 2- and 1-limb primes the
// any-width loops, so every fuzz input is replayed through every code path
// and the inverse at every width.
var fuzzFields = func() []*fuzzField {
	var out []*fuzzField
	for _, name := range []string{"paper-8limb", "9limb", "toy-2limb", "lazy-8limb", "max-8limb", "fast-4limb", "1limb"} {
		var p *big.Int
		for _, tm := range testModuli {
			if tm.name != name {
				continue
			}
			if tm.hex != "" {
				p, _ = new(big.Int).SetString(tm.hex, 16)
			} else {
				p = primeWithBits(tm.bits)
			}
		}
		f, err := New(p)
		if err != nil {
			panic(err)
		}
		out = append(out, &fuzzField{name: name, f: f, p: p})
	}
	return out
}()

type fuzzField struct {
	name string
	f    *Field
	p    *big.Int
}

// FuzzFpArith cross-checks every fp operation against a math/big oracle.
// The two input byte strings are reduced mod p to obtain field elements, so
// arbitrary fuzzer output maps onto the full input domain; the seed corpus
// pins the boundary cases (0, 1, 2, p−1, p−2, (p+1)/2, high-limb-set
// patterns).
func FuzzFpArith(f *testing.F) {
	// Boundary seeds, expressed for the widest modulus — reduction maps
	// them onto the corners of the smaller fields too.
	wide := fuzzFields[1].p // 9-limb
	seed := func(a, b *big.Int) {
		f.Add(a.Bytes(), b.Bytes())
	}
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(wide, one)
	pm2 := new(big.Int).Sub(pm1, one)
	top := new(big.Int).Lsh(one, 512) // sets only the top limb of the 9-limb field
	allHigh := new(big.Int).Sub(new(big.Int).Lsh(one, 576), one)
	half := new(big.Int).Rsh(new(big.Int).Add(wide, one), 1)
	for _, a := range []*big.Int{big.NewInt(0), one, big.NewInt(2), pm1, pm2, half, top, allHigh} {
		for _, b := range []*big.Int{big.NewInt(0), one, pm1, top} {
			seed(a, b)
		}
	}

	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		for _, ff := range fuzzFields {
			a := new(big.Int).Mod(new(big.Int).SetBytes(rawA), ff.p)
			b := new(big.Int).Mod(new(big.Int).SetBytes(rawB), ff.p)
			checkFieldOps(t, ff, a, b)
		}
	})
}

func checkFieldOps(t *testing.T, ff *fuzzField, a, b *big.Int) {
	t.Helper()
	f, p := ff.f, ff.p
	x, y, z := f.NewElt(), f.NewElt(), f.NewElt()
	if err := f.FromBig(x, a); err != nil {
		t.Fatalf("[%s] FromBig(%v): %v", ff.name, a, err)
	}
	if err := f.FromBig(y, b); err != nil {
		t.Fatalf("[%s] FromBig(%v): %v", ff.name, b, err)
	}

	// Round trip.
	if got := f.ToBig(x); got.Cmp(a) != 0 {
		t.Fatalf("[%s] round trip %v → %v", ff.name, a, got)
	}

	check := func(op string, want *big.Int) {
		t.Helper()
		if got := f.ToBig(z); got.Cmp(want) != 0 {
			t.Fatalf("[%s] %s(%v, %v) = %v, want %v", ff.name, op, a, b, got, want)
		}
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }

	f.Add(z, x, y)
	check("Add", mod(new(big.Int).Add(a, b)))
	f.Sub(z, x, y)
	check("Sub", mod(new(big.Int).Sub(a, b)))
	f.Mul(z, x, y)
	check("Mul", mod(new(big.Int).Mul(a, b)))
	f.Square(z, x)
	check("Square", mod(new(big.Int).Mul(a, a)))
	f.Neg(z, x)
	check("Neg", mod(new(big.Int).Neg(a)))
	f.Double(z, x)
	check("Double", mod(new(big.Int).Lsh(a, 1)))

	// The any-width loops are the 8-limb kernels' reference: limb for limb.
	ref := f.NewElt()
	for _, op := range []struct {
		name            string
		kernel, generic func(z, x, y []uint64)
	}{
		{"Mul", f.Mul, f.montMulGeneric},
		{"MulGo", f.MulGo, f.montMulGeneric},
		{"Add", f.Add, f.addGeneric},
		{"Sub", f.Sub, f.subGeneric},
	} {
		op.kernel(z, x, y)
		op.generic(ref, x, y)
		if !f.Equal(z, ref) {
			t.Fatalf("[%s] %s(%v, %v) differs from the generic loop", ff.name, op.name, a, b)
		}
	}
	f.montMulGeneric(ref, x, x)
	for name, square := range map[string]func(z, x []uint64){"Square": f.Square, "SquareGo": f.SquareGo} {
		square(z, x)
		if !f.Equal(z, ref) {
			t.Fatalf("[%s] %s(%v) differs from the generic loop", ff.name, name, a)
		}
	}

	// Predicates and constant-time equality.
	if f.IsZero(x) != (a.Sign() == 0) {
		t.Fatalf("[%s] IsZero(%v) wrong", ff.name, a)
	}
	if f.Equal(x, y) != (a.Cmp(b) == 0) {
		t.Fatalf("[%s] Equal(%v, %v) wrong", ff.name, a, b)
	}

	// Inverse: ErrNotInvertible iff zero, else big.Int.ModInverse's.
	checkInv(t, ff.name, f, p, a)

	if got, want := f.Legendre(x), big.Jacobi(a, p); got != want {
		t.Fatalf("[%s] Legendre(%v) = %d, want %d", ff.name, a, got, want)
	}

	// Exp against big.Int.Exp, using b as the exponent.
	f.Exp(z, x, b)
	check("Exp", new(big.Int).Exp(a, b, p))

	// F_p² tower: (a+bi)(b+ai) and (a+bi)².
	zi := f.NewElt()
	f.MulFp2(z, zi, x, y, y, x)
	wr := mod(new(big.Int).Sub(new(big.Int).Mul(a, b), new(big.Int).Mul(b, a))) // = 0
	wi := mod(new(big.Int).Add(new(big.Int).Mul(a, a), new(big.Int).Mul(b, b)))
	if gr, gi := f.ToBig(z), f.ToBig(zi); gr.Cmp(wr) != 0 || gi.Cmp(wi) != 0 {
		t.Fatalf("[%s] MulFp2 = (%v,%v), want (%v,%v)", ff.name, gr, gi, wr, wi)
	}
	f.SquareFp2(z, zi, x, y)
	sr := mod(new(big.Int).Sub(new(big.Int).Mul(a, a), new(big.Int).Mul(b, b)))
	si := mod(new(big.Int).Lsh(new(big.Int).Mul(a, b), 1))
	if gr, gi := f.ToBig(z), f.ToBig(zi); gr.Cmp(sr) != 0 || gi.Cmp(si) != 0 {
		t.Fatalf("[%s] SquareFp2 = (%v,%v), want (%v,%v)", ff.name, gr, gi, sr, si)
	}

	// Canonical byte round trip through the big.Int edge.
	ab := a.Bytes()
	if got := f.ToBig(x).Bytes(); !bytes.Equal(got, ab) {
		t.Fatalf("[%s] byte round trip mismatch", ff.name)
	}
}

// FuzzMul8 holds the 8-limb multiplication kernels — the assembly mul8
// where this CPU selects it, the Go montMul8 and montSqr8 everywhere — to
// montMulGeneric, limb for limb, over an arbitrary odd 8-limb modulus: the
// kernels are CIOS for any such modulus, prime or not, and the fuzzer moves
// the modulus bits (top limb full or nearly empty, long carry runs) as
// freely as the operands. Each input is run with the drawn operands and
// with 0, 1 and p − 1, in every aliasing form the callers use. The F_p²
// products and the Lucas ladder, whose assembly forms are built from mul8's
// rounds, are held to schoolbook formulas on the generic loops alongside.
func FuzzMul8(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 64)
	paper := testModulus(f, "paper-8limb").Bytes()
	for _, p := range [][]byte{paper, ones, {1}, append([]byte{0x80}, make([]byte, 63)...)} {
		f.Add(p, ones, paper)
		f.Add(p, []byte{2}, ones[:8])
	}
	f.Fuzz(func(t *testing.T, rawP, rawA, rawB []byte) {
		// Any 512-bit string with the top limb non-zero and the low bit set.
		p := new(big.Int).SetBytes(rawP)
		p.And(p, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1)))
		if p.BitLen() <= 448 {
			p.SetBit(p, 448, 1)
		}
		p.SetBit(p, 0, 1)
		fld, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if fld.Limbs() != 8 {
			t.Fatalf("modulus %x has %d limbs", p, fld.Limbs())
		}
		elt := func(v *big.Int) []uint64 {
			z := fld.NewElt()
			limbsFromBig(z, v)
			return z
		}
		clone := func(x []uint64) []uint64 { return append([]uint64(nil), x...) }
		kernels := map[string]func(z, x, y []uint64){"montMul8": fld.montMul8}
		if useAsm {
			kernels["mul8"] = fld.Mul
		}
		vals := [][]uint64{
			elt(new(big.Int).Mod(new(big.Int).SetBytes(rawA), p)),
			elt(new(big.Int).Mod(new(big.Int).SetBytes(rawB), p)),
			elt(big.NewInt(0)), elt(big.NewInt(1)), elt(new(big.Int).Sub(p, big.NewInt(1))),
		}
		ref, sq, z := fld.NewElt(), fld.NewElt(), fld.NewElt()
		for _, x := range vals {
			fld.montMulGeneric(sq, x, x)
			for _, y := range vals {
				fld.montMulGeneric(ref, x, y)
				for name, mul := range kernels {
					same := func(form string, got, want []uint64) {
						t.Helper()
						if !fld.Equal(got, want) {
							t.Fatalf("%s %s: p = %x, x = %x, y = %x: got %x, want %x", name, form, p, x, y, got, want)
						}
					}
					mul(z, x, y)
					same("z", z, ref)
					zx := clone(x)
					mul(zx, zx, y)
					same("z = x", zx, ref)
					zy := clone(y)
					mul(zy, x, zy)
					same("z = y", zy, ref)
					mul(z, x, x)
					same("x = y", z, sq)
					zx = clone(x)
					mul(zx, zx, zx)
					same("z = x = y", zx, sq)
				}
			}
			// The F_p² products and the Lucas ladder — one assembly call
			// each where that is selected — against schoolbook formulas on
			// the generic loops, with y and p − 1 as the other operands.
			gmul := func(u, v []uint64) []uint64 { z := fld.NewElt(); fld.montMulGeneric(z, u, v); return z }
			gadd := func(u, v []uint64) []uint64 { z := fld.NewElt(); fld.addGeneric(z, u, v); return z }
			gsub := func(u, v []uint64) []uint64 { z := fld.NewElt(); fld.subGeneric(z, u, v); return z }
			y, v1, zi := vals[1], vals[4], fld.NewElt()
			fp2 := func(name string, gotR, gotI, wantR, wantI []uint64) {
				t.Helper()
				if !fld.Equal(gotR, wantR) || !fld.Equal(gotI, wantI) {
					t.Fatalf("%s: p = %x, x = %x, y = %x: got (%x, %x), want (%x, %x)", name, p, x, y, gotR, gotI, wantR, wantI)
				}
			}
			fld.MulFp2(z, zi, x, y, y, x)
			fp2("MulFp2", z, zi, gsub(gmul(x, y), gmul(y, x)), gadd(gmul(x, x), gmul(y, y)))
			fld.SquareFp2(z, zi, x, y)
			fp2("SquareFp2", z, zi, gsub(gmul(x, x), gmul(y, y)), gadd(gmul(x, y), gmul(x, y)))
			r := gadd(gmul(y, x), v1) // the line y·x + V_1 at (x, V_1)
			u, v := clone(x), clone(y)
			fld.MulLine(u, v, y, v1, x, v1)
			fp2("MulLine", u, v, gsub(gmul(x, r), gmul(y, v1)), gadd(gmul(x, v1), gmul(y, r)))
			// The ladder over the low 16 bits of the drawn b, from V_1 = x.
			two := gadd(fld.one, fld.one)
			k := new(big.Int).SetBytes(rawB)
			k.And(k, big.NewInt(1<<16-1))
			wantK, wantK1 := clone(two), clone(x)
			for i := k.BitLen() - 1; i >= 0; i-- {
				mid := gsub(gmul(wantK, wantK1), x)
				if k.Bit(i) == 0 {
					wantK, wantK1 = gsub(gmul(wantK, wantK), two), mid
				} else {
					wantK, wantK1 = mid, gsub(gmul(wantK1, wantK1), two)
				}
			}
			fld.LucasLadder(u, v, x, k)
			fp2("LucasLadder", u, v, wantK, wantK1)
			for name, square := range map[string]func(z, x []uint64){"montSqr8": fld.montSqr8, "Square": fld.Square} {
				square(z, x)
				zx := clone(x)
				square(zx, zx)
				if !fld.Equal(z, sq) || !fld.Equal(zx, sq) {
					t.Fatalf("%s: p = %x, x = %x: got %x and in place %x, want %x", name, p, x, z, zx, sq)
				}
			}
		}
	})
}
