package fp

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// testModuli spans the dispatch space: single-limb, the toy/fast/paper
// pairing primes (2, 4 and 8 limbs — the 8-limb one exercises the fp8.go
// kernels and, being exactly 512 bits, the non-lazy F_p² path), a 505-bit
// prime whose 8 limbs leave spare bits (lazy path on the specialized
// width), a 510-bit one with exactly the two spare bits the lazy path asks
// for, 2⁵¹² − 569 (the largest 512-bit prime: top limb all ones, so the
// kernels' extra carry word is as live as it can be), and a 9-limb prime
// on the generic fallback. Entries without a hex literal are derived
// deterministically: the smallest prime ≥ 2^(bits−1)+1.
var testModuli = []struct {
	name string
	hex  string // known-prime literal, or ""
	bits int    // used when hex == ""
}{
	{name: "1limb", bits: 64},
	{name: "toy-2limb", hex: "c88410b59ac4fa20d9a0256b"},
	{name: "fast-4limb", hex: "db19579dd2a906bb3f2f4f74c236e52c70115d99c09f7c474e96cdbe63e4da07"},
	{name: "paper-8limb", hex: "b282da5c02935d5836473139df6751ee8e1fb07c917309c04088843b36435876d65dd173ce4ac63f883c05a59ad3a134e30ef32607e2a49c71e515d4dcc47eef"},
	{name: "paper-sparse-8limb", hex: "e6a30dc9bb2f27db4f2d112924218fa457702d317324509952984dbe937dd4f96ded3efffd8680e00e1780697ee844a3e981e0a4d64594888b2f7f881197f947"},
	{name: "lazy-8limb", bits: 505},
	{name: "spare2-8limb", bits: 510},
	{name: "max-8limb", hex: "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7"},
	{name: "9limb", bits: 513},
}

func primeWithBits(bits int) *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	p.Add(p, big.NewInt(1))
	for !p.ProbablyPrime(20) {
		p.Add(p, big.NewInt(2))
	}
	return p
}

func testModulus(t testing.TB, name string) *big.Int {
	t.Helper()
	for _, tm := range testModuli {
		if tm.name != name {
			continue
		}
		if tm.hex != "" {
			p, ok := new(big.Int).SetString(tm.hex, 16)
			if !ok {
				t.Fatalf("bad prime literal %q", tm.hex)
			}
			return p
		}
		return primeWithBits(tm.bits)
	}
	t.Fatalf("unknown test modulus %q", name)
	return nil
}

func mustField(t testing.TB, name string) (*Field, *big.Int) {
	t.Helper()
	p := testModulus(t, name)
	if !p.ProbablyPrime(20) {
		t.Fatalf("test modulus %s is not prime", name)
	}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return f, p
}

// boundaryValues returns the corner cases every op is checked on: 0, 1, 2,
// p−1, p−2, a value with only the top limb set, and one with all limbs
// high.
func boundaryValues(p *big.Int) []*big.Int {
	n := (p.BitLen() + 63) / 64
	top := new(big.Int).Lsh(big.NewInt(1), uint(64*(n-1)))
	top.Mod(top, p)
	all := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	all.Sub(all, big.NewInt(1))
	all.Mod(all, p)
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		top,
		all,
	}
}

func TestNewRejectsBadModuli(t *testing.T) {
	for _, bad := range []*big.Int{
		big.NewInt(0), big.NewInt(-7), big.NewInt(1), big.NewInt(10),
		new(big.Int).Lsh(big.NewInt(1), 64*MaxLimbs), // too wide (and even)
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64*MaxLimbs), big.NewInt(1)),
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%v) accepted", bad)
		}
	}
}

func TestRoundTripAndConstants(t *testing.T) {
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			for _, v := range boundaryValues(p) {
				z := f.NewElt()
				if err := f.FromBig(z, v); err != nil {
					t.Fatal(err)
				}
				if got := f.ToBig(z); got.Cmp(v) != 0 {
					t.Fatalf("round trip %v → %v", v, got)
				}
			}
			one := f.NewElt()
			f.SetOne(one)
			if got := f.ToBig(one); got.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("Montgomery one decodes to %v", got)
			}
			if !f.IsOne(one) || f.IsZero(one) {
				t.Fatal("IsOne/IsZero disagree on 1")
			}
			if err := f.FromBig(f.NewElt(), p); err == nil {
				t.Fatal("FromBig accepted p itself")
			}
		})
	}
}

// TestBytesCodec holds the bytes ↔ Montgomery codec to the big.Int edge it
// replaces on the wire: SetBytes is FromBig∘SetBytes, FillBytes is
// FillBytes∘ToBig and Parity is ToBig's low bit on every modulus width
// (ByteLen is not a whole number of limbs for most), p and everything above
// it is refused, so is any other length, and nothing allocates.
func TestBytesCodec(t *testing.T) {
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			size := f.ByteLen()
			if size != (p.BitLen()+7)/8 {
				t.Fatalf("ByteLen = %d for a %d-bit modulus", size, p.BitLen())
			}
			rng := rand.New(rand.NewSource(int64(size)))
			vals := boundaryValues(p)
			for i := 0; i < 50; i++ {
				vals = append(vals, new(big.Int).Rand(rng, p))
			}
			z, want := f.NewElt(), f.NewElt()
			enc, out := make([]byte, size), make([]byte, size)
			for _, v := range vals {
				v.FillBytes(enc)
				if err := f.SetBytes(z, enc); err != nil {
					t.Fatalf("SetBytes(%x): %v", enc, err)
				}
				if err := f.FromBig(want, v); err != nil {
					t.Fatal(err)
				}
				if !f.Equal(z, want) {
					t.Fatalf("SetBytes(%x) ≠ FromBig", enc)
				}
				if f.FillBytes(out, z); !bytes.Equal(out, enc) {
					t.Fatalf("FillBytes = %x, want %x", out, enc)
				}
				if f.Parity(z) != v.Bit(0) {
					t.Fatalf("Parity(%v) = %d", v, f.Parity(z))
				}
			}
			limit := new(big.Int).Lsh(big.NewInt(1), uint(8*size))
			for _, v := range []*big.Int{p, new(big.Int).Add(p, big.NewInt(1)), new(big.Int).Sub(limit, big.NewInt(1))} {
				if v.Cmp(limit) >= 0 {
					continue // p fills its last byte: nothing above it fits
				}
				if err := f.SetBytes(z, v.FillBytes(enc)); err == nil {
					t.Fatalf("SetBytes accepted %v ≥ p", v)
				}
			}
			if f.SetBytes(z, enc[:size-1]) == nil || f.SetBytes(z, append(enc, 0)) == nil {
				t.Fatal("SetBytes accepted an encoding of the wrong length")
			}
			vals[3].FillBytes(enc)
			for name, op := range map[string]func(){
				"SetBytes":  func() { _ = f.SetBytes(z, enc) },
				"FillBytes": func() { f.FillBytes(out, z) },
				"Parity":    func() { f.Parity(z) },
			} {
				if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
					t.Errorf("%s allocates %.1f objects/op, want 0", name, allocs)
				}
			}
		})
	}
}

func TestArithmeticMatchesBigInt(t *testing.T) {
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			vals := boundaryValues(p)
			// A couple of mid-range values derived from p.
			vals = append(vals,
				new(big.Int).Div(p, big.NewInt(3)),
				new(big.Int).Div(p, big.NewInt(7)))
			x, y, z := f.NewElt(), f.NewElt(), f.NewElt()
			for _, a := range vals {
				for _, b := range vals {
					if err := f.FromBig(x, a); err != nil {
						t.Fatal(err)
					}
					if err := f.FromBig(y, b); err != nil {
						t.Fatal(err)
					}
					check := func(op string, got []uint64, want *big.Int) {
						t.Helper()
						if g := f.ToBig(got); g.Cmp(want) != 0 {
							t.Fatalf("%s(%v, %v) = %v, want %v", op, a, b, g, want)
						}
					}
					f.Add(z, x, y)
					check("Add", z, new(big.Int).Mod(new(big.Int).Add(a, b), p))
					f.Sub(z, x, y)
					check("Sub", z, new(big.Int).Mod(new(big.Int).Sub(a, b), p))
					f.Mul(z, x, y)
					check("Mul", z, new(big.Int).Mod(new(big.Int).Mul(a, b), p))
				}
				if err := f.FromBig(x, a); err != nil {
					t.Fatal(err)
				}
				f.Square(z, x)
				wantSq := new(big.Int).Mod(new(big.Int).Mul(a, a), p)
				if g := f.ToBig(z); g.Cmp(wantSq) != 0 {
					t.Fatalf("Square(%v) = %v, want %v", a, g, wantSq)
				}
				f.Neg(z, x)
				wantNeg := new(big.Int).Mod(new(big.Int).Neg(a), p)
				if g := f.ToBig(z); g.Cmp(wantNeg) != 0 {
					t.Fatalf("Neg(%v) = %v, want %v", a, g, wantNeg)
				}
				f.Double(z, x)
				wantDbl := new(big.Int).Mod(new(big.Int).Lsh(a, 1), p)
				if g := f.ToBig(z); g.Cmp(wantDbl) != 0 {
					t.Fatalf("Double(%v) = %v, want %v", a, g, wantDbl)
				}
			}
			// Inv against ModInverse, on the values above and the inverse's
			// own edges: (p+1)/2 = 2⁻¹, p's top limb over all-ones lower
			// limbs, and seeded random values.
			s := uint(64 * (f.Limbs() - 1))
			topFull := new(big.Int).Lsh(new(big.Int).Rsh(p, s), s)
			vals = append(vals, new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 1), topFull.Sub(topFull, big.NewInt(1)))
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 64; i++ {
				vals = append(vals, new(big.Int).Rand(rng, p))
			}
			for _, a := range vals {
				checkInv(t, tm.name, f, p, a)
			}
		})
	}
}

// TestInvSmallPrimes inverts every x modulo every odd prime below 2¹², and
// checks on the way that the divstep bound Inv's batch count rests on covers
// every one of them: run a divstep at a time, (1, p, x) reaches g = 0 within
// it. Below 2¹² that is one batch, so a batch count one short inverts
// nothing; at the repository's widths it is 5 (96 bits), 12 (256) and 24
// (512).
func TestInvSmallPrimes(t *testing.T) {
	for name, want := range map[string]int{"toy-2limb": 5, "fast-4limb": 12, "paper-8limb": 24} {
		if f, _ := mustField(t, name); f.batches != want {
			t.Errorf("%s: %d batches, want %d", name, f.batches, want)
		}
	}
	divsteps := func(f, g int64) int {
		delta, n := int64(1), 0
		for ; g != 0; n++ {
			if delta > 0 && g&1 == 1 {
				delta, f, g = 1-delta, g, (g-f)/2
			} else {
				delta, g = 1+delta, (g+(g&1)*f)/2
			}
		}
		return n
	}
	primes := 0
	for p := int64(3); p < 1<<12; p += 2 {
		pb := big.NewInt(p)
		if !pb.ProbablyPrime(0) {
			continue
		}
		primes++
		f, err := New(pb)
		if err != nil {
			t.Fatal(err)
		}
		bound := divstepBound(pb.BitLen())
		if f.batches*62 < bound {
			t.Fatalf("p = %d: %d batches for a bound of %d divsteps", p, f.batches, bound)
		}
		x, z := f.NewElt(), f.NewElt()
		for a := int64(0); a < p; a++ {
			if n := divsteps(p, a); n > bound {
				t.Fatalf("p = %d, x = %d: %d divsteps, bound %d", p, a, n, bound)
			}
			x[0] = uint64(a)
			f.Mul(x, x, f.rr)
			err := f.Inv(z, x)
			if a == 0 {
				if err != ErrNotInvertible {
					t.Fatalf("p = %d: Inv(0) = %v", p, err)
				}
				continue
			}
			if f.Mul(z, z, x); err != nil || !f.IsOne(z) {
				t.Fatalf("p = %d: x·Inv(x) ≠ 1 for x = %d (%v)", p, a, err)
			}
		}
	}
	if primes != 563 {
		t.Fatalf("%d odd primes below 2¹², want 563", primes)
	}
}

// checkInv holds Inv(a) to big.Int.ModInverse, in place too, and Inv(0) to
// ErrNotInvertible.
func checkInv(t *testing.T, name string, f *Field, p, a *big.Int) {
	t.Helper()
	x, z := f.NewElt(), f.NewElt()
	if err := f.FromBig(x, a); err != nil {
		t.Fatal(err)
	}
	err := f.Inv(z, x)
	if a.Sign() == 0 {
		if err != ErrNotInvertible {
			t.Fatalf("[%s] Inv(0) = %v, want ErrNotInvertible", name, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("[%s] Inv(%v): %v", name, a, err)
	}
	if g, want := f.ToBig(z), new(big.Int).ModInverse(a, p); g.Cmp(want) != 0 {
		t.Fatalf("[%s] Inv(%v) = %v, want %v", name, a, g, want)
	}
	if err := f.Inv(x, x); err != nil || !f.Equal(x, z) {
		t.Fatalf("[%s] Inv(%v) in place = %v, %v", name, a, f.ToBig(x), err)
	}
}

func TestAliasing(t *testing.T) {
	f, p := mustField(t, "paper-8limb")
	a := new(big.Int).Div(p, big.NewInt(5))
	x := f.NewElt()
	if err := f.FromBig(x, a); err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mod(new(big.Int).Mul(a, a), p)
	f.Mul(x, x, x) // full aliasing
	if g := f.ToBig(x); g.Cmp(want) != 0 {
		t.Fatalf("aliased Mul = %v, want %v", g, want)
	}
	f.Add(x, x, x)
	want.Mod(want.Lsh(want, 1), p)
	if g := f.ToBig(x); g.Cmp(want) != 0 {
		t.Fatalf("aliased Add = %v, want %v", g, want)
	}
}

// eachKernel runs body under both selections of the 8-limb Mul/Square
// kernel: the Go kernels of fp8.go (the assembly switched off for the
// subtest) and mul8, which is skipped where it is not what Field.Mul runs
// anyway. No test in the package is parallel, so flipping the package
// variable is safe.
func eachKernel(t *testing.T, body func(t *testing.T)) {
	t.Run("go", func(t *testing.T) {
		defer setAsm(useAsm)
		setAsm(false)
		body(t)
	})
	t.Run("asm", func(t *testing.T) {
		if !useAsm {
			t.Skip("mul8 is not selected here (purego build, not amd64, or a CPU without ADX and BMI2)")
		}
		body(t)
	})
}

// TestKernels8 checks the 8-limb kernels — the straight-line Go ones of
// fp8.go and the assembly (mul8, and the one-call F_p² products and Lucas
// step), each selected in turn — against the any-width loops (limb for
// limb — all produce the canonical reduced Montgomery form) and against
// math/big, at the four 8-limb moduli: the
// paper prime (all 512 bits), a 505-bit and a 510-bit prime (spare top
// bits; the second has exactly two) and 2⁵¹² − 569 (top limb all ones).
// Operands are all pairs of the boundary values plus seeded random ones, in
// every aliasing form. Elements are put into Montgomery form through
// math/big, not FromBig, so the kernel under test has no part in building
// its own inputs or expectations.
func TestKernels8(t *testing.T) {
	eachKernel(t, testKernels8)
}

func testKernels8(t *testing.T) {
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb"} {
		t.Run(name, func(t *testing.T) {
			f, p := mustField(t, name)
			if f.Limbs() != 8 {
				t.Fatalf("%s has %d limbs", name, f.Limbs())
			}
			mont := func(v *big.Int) []uint64 {
				m := new(big.Int).Lsh(v, 512)
				z := f.NewElt()
				limbsFromBig(z, m.Mod(m, p))
				return z
			}
			clone := func(x []uint64) []uint64 { return append([]uint64(nil), x...) }
			mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }

			var pairs [][2]*big.Int
			vals := boundaryValues(p)
			for _, a := range vals {
				for _, b := range vals {
					pairs = append(pairs, [2]*big.Int{a, b})
				}
			}
			rng := rand.New(rand.NewSource(8))
			for i := 0; i < 3000; i++ {
				pairs = append(pairs, [2]*big.Int{new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p)})
			}

			binary := []struct {
				name            string
				kernel, generic func(z, x, y []uint64)
				want            func(a, b *big.Int) *big.Int
			}{
				{"Mul", f.Mul, f.montMulGeneric, func(a, b *big.Int) *big.Int { return mod(new(big.Int).Mul(a, b)) }},
				{"Add", f.Add, f.addGeneric, func(a, b *big.Int) *big.Int { return mod(new(big.Int).Add(a, b)) }},
				{"Sub", f.Sub, f.subGeneric, func(a, b *big.Int) *big.Int { return mod(new(big.Int).Sub(a, b)) }},
			}
			for k, pr := range pairs {
				a, b, c := pr[0], pr[1], pairs[(k+1)%len(pairs)][0]
				x, y, w := mont(a), mont(b), mont(c)
				same := func(what string, got, want []uint64) {
					t.Helper()
					if !f.Equal(got, want) {
						t.Fatalf("%s(%v, %v) = %x, want %x", what, a, b, got, want)
					}
				}
				for _, op := range binary {
					ref, z := f.NewElt(), f.NewElt()
					op.generic(ref, x, y)
					same(op.name+" generic vs big", ref, mont(op.want(a, b)))
					op.kernel(z, x, y)
					same(op.name, z, ref)
					zx := clone(x)
					op.kernel(zx, zx, y)
					same(op.name+" z=x", zx, ref)
					zy := clone(y)
					op.kernel(zy, x, zy)
					same(op.name+" z=y", zy, ref)

					op.generic(ref, x, x)
					same(op.name+" x=y generic vs big", ref, mont(op.want(a, a)))
					op.kernel(z, x, x)
					same(op.name+" x=y", z, ref)
					zx = clone(x)
					op.kernel(zx, zx, zx)
					same(op.name+" z=x=y", zx, ref)
				}

				z, zx := f.NewElt(), clone(x)
				sq := mont(mod(new(big.Int).Mul(a, a)))
				f.Square(z, x)
				same("Square", z, sq)
				f.Square(zx, zx)
				same("Square in place", zx, sq)

				dbl := mont(mod(new(big.Int).Lsh(a, 1)))
				zx = clone(x)
				f.Double(z, x)
				same("Double", z, dbl)
				f.Double(zx, zx)
				same("Double in place", zx, dbl)

				neg := mont(mod(new(big.Int).Neg(a)))
				zx = clone(x)
				f.Neg(z, x)
				same("Neg", z, neg)
				f.Neg(zx, zx)
				same("Neg in place", zx, neg)

				// The tower and the Lucas ladder (one assembly call each where
				// that is selected): (a + b·i)·(b + c·i), the same times the
				// line (c·b + a) + c·i and (a + b·i)², in the aliasing forms
				// their callers use.
				mul := func(u, v *big.Int) *big.Int { return new(big.Int).Mul(u, v) }
				zi := f.NewElt()
				re, im := mont(mod(mul(a, b).Sub(mul(a, b), mul(b, c)))), mont(mod(mul(a, c).Add(mul(a, c), mul(b, b))))
				f.MulFp2(z, zi, x, y, y, w)
				same("MulFp2 re", z, re)
				same("MulFp2 im", zi, im)
				zx, zy := clone(x), clone(y)
				f.MulFp2(zx, zy, zx, zy, y, w)
				same("MulFp2 in place re", zx, re)
				same("MulFp2 in place im", zy, im)
				r := mul(c, b).Add(mul(c, b), a) // the line c·x + a at x = b, y = c
				re, im = mont(mod(mul(a, r).Sub(mul(a, r), mul(b, c)))), mont(mod(mul(a, c).Add(mul(a, c), mul(b, r))))
				zx, zy = clone(x), clone(y)
				f.MulLine(zx, zy, w, x, y, w)
				same("MulLine re", zx, re)
				same("MulLine im", zy, im)
				re, im = mont(mod(mul(a, a).Sub(mul(a, a), mul(b, b)))), mont(mod(mul(a, b).Lsh(mul(a, b), 1)))
				f.SquareFp2(z, zi, x, y)
				same("SquareFp2 re", z, re)
				same("SquareFp2 im", zi, im)
				zx, zy = clone(x), clone(y)
				f.SquareFp2(zx, zy, zx, zy)
				same("SquareFp2 in place re", zx, re)
				same("SquareFp2 in place im", zy, im)
				// The ladder with V_1 = c: over the low 24 bits of b, and over
				// all of b for the first pairs (the boundary values).
				e := new(big.Int).And(b, big.NewInt(1<<24-1))
				if k < 8 {
					e = b
				}
				vk, vk1 := lucasRef(c, e, p)
				f.LucasLadder(z, zi, w, e)
				same(fmt.Sprintf("LucasLadder V_k, k = %v", e), z, mont(vk))
				same(fmt.Sprintf("LucasLadder V_(k+1), k = %v", e), zi, mont(vk1))
			}
		})
	}
}

// lucasRef is LucasLadder in math/big: (V_k, V_(k+1)) mod p for V_0 = 2,
// V_1 = v1, one bit at a time from the top.
func lucasRef(v1, k, p *big.Int) (*big.Int, *big.Int) {
	u, v := big.NewInt(2), new(big.Int).Set(v1)
	for i := k.BitLen() - 1; i >= 0; i-- {
		mid := new(big.Int).Mul(u, v)
		mid.Sub(mid, v1).Mod(mid, p)
		if k.Bit(i) == 0 {
			u.Mul(u, u).Sub(u, big.NewInt(2)).Mod(u, p)
			v = mid
		} else {
			v.Mul(v, v).Sub(v, big.NewInt(2)).Mod(v, p)
			u = mid
		}
	}
	return u, v
}

// TestExp holds Exp to big.Int.Exp at every width: the edges (0, 1, a lone
// top bit and a run of ones at lengths around a small window, a limb and the
// modulus), a modulus-sized exponent and the root's (p+1)/4, and seeded
// random ones of every length.
func TestExp(t *testing.T) {
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			x, z := f.NewElt(), f.NewElt()
			exps := []*big.Int{
				big.NewInt(0), big.NewInt(1),
				new(big.Int).Div(p, big.NewInt(13)),
				new(big.Int).Sub(p, big.NewInt(2)),
				new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2),
			}
			for _, k := range []uint{1, 4, 5, 6, 10, 11, 63, 64, 65, uint(p.BitLen()) - 1, uint(p.BitLen())} {
				pow := new(big.Int).Lsh(big.NewInt(1), k)
				exps = append(exps, pow, new(big.Int).Sub(pow, big.NewInt(1)))
			}
			rng := rand.New(rand.NewSource(22))
			for i := 0; i < 40; i++ {
				limit := new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(p.BitLen()+8)))
				exps = append(exps, new(big.Int).Rand(rng, limit))
			}
			bases := append(boundaryValues(p), new(big.Int).Div(p, big.NewInt(11)))
			for i, e := range exps {
				a := bases[i%len(bases)]
				if err := f.FromBig(x, a); err != nil {
					t.Fatal(err)
				}
				f.Exp(z, x, e)
				if g, want := f.ToBig(z), new(big.Int).Exp(a, e, p); g.Cmp(want) != 0 {
					t.Fatalf("Exp(%v, %v) = %v, want %v", a, e, g, want)
				}
				f.Exp(x, x, e) // in place
				if !f.Equal(x, z) {
					t.Fatalf("Exp(%v, %v) in place differs", a, e)
				}
			}
		})
	}
}

func TestFp2TowerMatchesOracle(t *testing.T) {
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			vals := boundaryValues(p)
			ar, ai, br, bi := f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt()
			zr, zi := f.NewElt(), f.NewElt()
			for i, a := range vals {
				for j, b := range vals {
					c := vals[(i+3)%len(vals)]
					d := vals[(j+5)%len(vals)]
					for _, e := range [][]*big.Int{{a, b, c, d}, {a, a, a, a}} {
						a, b, c, d := e[0], e[1], e[2], e[3]
						if err := f.FromBig(ar, a); err != nil {
							t.Fatal(err)
						}
						if err := f.FromBig(ai, b); err != nil {
							t.Fatal(err)
						}
						if err := f.FromBig(br, c); err != nil {
							t.Fatal(err)
						}
						if err := f.FromBig(bi, d); err != nil {
							t.Fatal(err)
						}
						// (a+bi)(c+di) = (ac − bd) + (ad + bc)i
						wr := new(big.Int).Sub(new(big.Int).Mul(a, c), new(big.Int).Mul(b, d))
						wr.Mod(wr, p)
						wi := new(big.Int).Add(new(big.Int).Mul(a, d), new(big.Int).Mul(b, c))
						wi.Mod(wi, p)
						f.MulFp2(zr, zi, ar, ai, br, bi)
						if gr, gi := f.ToBig(zr), f.ToBig(zi); gr.Cmp(wr) != 0 || gi.Cmp(wi) != 0 {
							t.Fatalf("MulFp2((%v,%v),(%v,%v)) = (%v,%v), want (%v,%v)", a, b, c, d, gr, gi, wr, wi)
						}
						// (a+bi)²
						sr := new(big.Int).Sub(new(big.Int).Mul(a, a), new(big.Int).Mul(b, b))
						sr.Mod(sr, p)
						si := new(big.Int).Mul(a, b)
						si.Lsh(si, 1)
						si.Mod(si, p)
						f.SquareFp2(zr, zi, ar, ai)
						if gr, gi := f.ToBig(zr), f.ToBig(zi); gr.Cmp(sr) != 0 || gi.Cmp(si) != 0 {
							t.Fatalf("SquareFp2(%v,%v) = (%v,%v), want (%v,%v)", a, b, gr, gi, sr, si)
						}
						// Aliased outputs.
						f.MulFp2(ar, ai, ar, ai, br, bi)
						if gr, gi := f.ToBig(ar), f.ToBig(ai); gr.Cmp(wr) != 0 || gi.Cmp(wi) != 0 {
							t.Fatalf("aliased MulFp2 = (%v,%v), want (%v,%v)", gr, gi, wr, wi)
						}
					}
				}
			}
		})
	}
}

func TestLazyFlagPerModulus(t *testing.T) {
	expect := map[string]bool{
		"1limb":              false, // 2^64 − 977 uses all 64 bits
		"toy-2limb":          true,  // 96 bits in 128
		"fast-4limb":         false, // exactly 256 bits
		"paper-8limb":        false, // exactly 512 bits
		"lazy-8limb":         true,  // 505 bits in 512
		"paper-sparse-8limb": false, // exactly 512 bits
		"spare2-8limb":       true,  // 510 bits in 512: the widest lazy modulus
		"max-8limb":          false, // exactly 512 bits
		"9limb":              true,  // 513 bits in 576
	}
	for _, tm := range testModuli {
		f, p := mustField(t, tm.name)
		want, ok := expect[tm.name]
		if !ok {
			t.Fatalf("no expectation for %s", tm.name)
		}
		if f.Lazy() != want {
			t.Errorf("%s (bitlen %d, %d limbs): Lazy() = %v, want %v",
				tm.name, p.BitLen(), f.Limbs(), f.Lazy(), want)
		}
	}
}

func TestSelectAndEqual(t *testing.T) {
	f, p := mustField(t, "paper-8limb")
	x, y, z := f.NewElt(), f.NewElt(), f.NewElt()
	if err := f.FromBig(x, big.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	if err := f.FromBig(y, new(big.Int).Sub(p, big.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	Select(z, x, y, 1)
	if !f.Equal(z, x) {
		t.Fatal("Select(v=1) did not pick x")
	}
	Select(z, x, y, 0)
	if !f.Equal(z, y) {
		t.Fatal("Select(v=0) did not pick y")
	}
	if f.Equal(x, y) {
		t.Fatal("Equal confuses distinct elements")
	}
}

// TestZeroAllocs pins the headline property: no heap allocation per
// operation, on the 8-limb kernels — Go and assembly — and the generic
// fallback.
func TestZeroAllocs(t *testing.T) {
	eachKernel(t, testZeroAllocs)
}

func testZeroAllocs(t *testing.T) {
	for _, name := range []string{"paper-8limb", "9limb", "lazy-8limb", "max-8limb"} {
		t.Run(name, func(t *testing.T) {
			f, p := mustField(t, name)
			x, y, z, zi := f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt()
			if err := f.FromBig(x, new(big.Int).Div(p, big.NewInt(3))); err != nil {
				t.Fatal(err)
			}
			if err := f.FromBig(y, new(big.Int).Div(p, big.NewInt(7))); err != nil {
				t.Fatal(err)
			}
			ops := map[string]func(){
				"Add":         func() { f.Add(z, x, y) },
				"Sub":         func() { f.Sub(z, x, y) },
				"Neg":         func() { f.Neg(z, x) },
				"Double":      func() { f.Double(z, x) },
				"Mul":         func() { f.Mul(z, x, y) },
				"Square":      func() { f.Square(z, x) },
				"MulFp2":      func() { f.MulFp2(z, zi, x, y, y, x) },
				"SquareFp2":   func() { f.SquareFp2(z, zi, x, y) },
				"LucasLadder": func() { f.LucasLadder(z, zi, x, p) },
				"MulLine":     func() { f.MulLine(z, zi, x, y, x, y) },
				"Inv":         func() { _ = f.Inv(z, x) },
				"Legendre":    func() { _ = f.Legendre(x) },
				"Exp":         func() { f.Exp(z, x, p) },
			}
			for opName, op := range ops {
				if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
					t.Errorf("%s allocates %.1f objects/op, want 0", opName, allocs)
				}
			}
		})
	}
}

// BenchmarkOps times the four operations that have 8-limb kernels — Mul and
// Square as dispatched (the assembly where the CPU has it) and on the Go
// kernels — the generic multiplication they replaced and Inv, at the paper
// prime; the 9-limb rows are the any-width loops at the nearest other
// width. BenchmarkExp is one modulus-sized exponentiation, the size of a
// point decode's square root.
func BenchmarkOps(b *testing.B) {
	for _, tm := range []string{"paper-8limb", "9limb"} {
		f, p := mustField(b, tm)
		x, y, z, zi := f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt()
		if err := f.FromBig(x, new(big.Int).Div(p, big.NewInt(3))); err != nil {
			b.Fatal(err)
		}
		if err := f.FromBig(y, new(big.Int).Div(p, big.NewInt(7))); err != nil {
			b.Fatal(err)
		}
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Mul", func() { f.Mul(z, x, y) }},
			{"MulGeneric", func() { f.MulGeneric(z, x, y) }},
			{"MulGo", func() { f.MulGo(z, x, y) }},
			{"Square", func() { f.Square(z, x) }},
			{"SquareGo", func() { f.SquareGo(z, x) }},
			{"Add", func() { f.Add(z, x, y) }},
			{"Sub", func() { f.Sub(z, x, y) }},
			{"Inv", func() { _ = f.Inv(z, x) }},
			{"Legendre", func() { _ = f.Legendre(y) }},
			{"MulFp2", func() { f.MulFp2(z, zi, x, y, y, x) }},
			{"SquareFp2", func() { f.SquareFp2(z, zi, x, y) }},
			{"LucasLadder", func() { f.LucasLadder(z, zi, x, p) }},
			{"MulLine", func() { f.MulLine(z, zi, x, y, x, y) }},
		} {
			b.Run(tm+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.fn()
				}
			})
		}
	}
}

func BenchmarkExp(b *testing.B) {
	f, p := mustField(b, "paper-8limb")
	x, z := f.NewElt(), f.NewElt()
	if err := f.FromBig(x, new(big.Int).Div(p, big.NewInt(3))); err != nil {
		b.Fatal(err)
	}
	e := new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Exp(z, x, e)
	}
}

// TestLegendreSmallPrimes holds Legendre to big.Jacobi for every x modulo
// every odd prime below 2¹², on the divstep walk alone: none of them may
// fall through to Euler's criterion.
func TestLegendreSmallPrimes(t *testing.T) {
	for p := int64(3); p < 1<<12; p += 2 {
		pb := big.NewInt(p)
		if !pb.ProbablyPrime(0) {
			continue
		}
		f, err := New(pb)
		if err != nil {
			t.Fatal(err)
		}
		x := f.NewElt()
		for a := int64(0); a < p; a++ {
			x[0] = uint64(a)
			f.Mul(x, x, f.rr)
			if got, want := f.Legendre(x), big.Jacobi(big.NewInt(a), pb); got != want {
				t.Fatalf("p = %d: Legendre(%d) = %d, want %d", p, a, got, want)
			}
		}
	}
}

// TestLegendreMatchesJacobi holds Legendre to big.Jacobi at every test
// width, on the boundary values, random elements, and squares and their
// negatives (p ≡ 3 mod 4 for the pairing primes, so −x² is a non-residue).
func TestLegendreMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tm := range testModuli {
		t.Run(tm.name, func(t *testing.T) {
			f, p := mustField(t, tm.name)
			vals := boundaryValues(p)
			for range 200 {
				r := new(big.Int).Rand(rng, p)
				sq := new(big.Int).Mul(r, r)
				vals = append(vals, r, sq.Mod(sq, p), new(big.Int).Sub(p, sq).Mod(new(big.Int).Sub(p, sq), p))
			}
			x := f.NewElt()
			for _, a := range vals {
				if err := f.FromBig(x, a); err != nil {
					t.Fatal(err)
				}
				if got, want := f.Legendre(x), big.Jacobi(a, p); got != want {
					t.Fatalf("Legendre(%v) = %d, want %d", a, got, want)
				}
				if got, want := f.legendreEuler(x), big.Jacobi(a, p); a.Sign() != 0 && got != want {
					t.Fatalf("legendreEuler(%v) = %d, want %d", a, got, want)
				}
			}
		})
	}
}
