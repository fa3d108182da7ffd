package fp

import (
	"bytes"
	"math/big"
	"testing"
)

// fuzzFields are constructed once: the three 8-limb primes (paper: all 512
// bits; lazy: spare top bits; max: top limb all ones) drive the fp8.go
// kernels and the 9-limb and toy primes the any-width loops, so every fuzz
// input is replayed through both code paths.
var fuzzFields = func() []*fuzzField {
	var out []*fuzzField
	for _, name := range []string{"paper-8limb", "9limb", "toy-2limb", "lazy-8limb", "max-8limb"} {
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
// pins the boundary cases (0, 1, p−1, p−2, high-limb-set patterns).
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
	for _, a := range []*big.Int{big.NewInt(0), one, pm1, pm2, top, allHigh} {
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
		{"Add", f.Add, f.addGeneric},
		{"Sub", f.Sub, f.subGeneric},
	} {
		op.kernel(z, x, y)
		op.generic(ref, x, y)
		if !f.Equal(z, ref) {
			t.Fatalf("[%s] %s(%v, %v) differs from the generic loop", ff.name, op.name, a, b)
		}
	}
	f.Square(z, x)
	f.montMulGeneric(ref, x, x)
	if !f.Equal(z, ref) {
		t.Fatalf("[%s] Square(%v) differs from the generic loop", ff.name, a)
	}

	// Predicates and constant-time equality.
	if f.IsZero(x) != (a.Sign() == 0) {
		t.Fatalf("[%s] IsZero(%v) wrong", ff.name, a)
	}
	if f.Equal(x, y) != (a.Cmp(b) == 0) {
		t.Fatalf("[%s] Equal(%v, %v) wrong", ff.name, a, b)
	}

	// Inverse: error iff zero, else x·x⁻¹ = 1; the Fermat and extended-GCD
	// paths must agree.
	err := f.Inv(z, x)
	if a.Sign() == 0 {
		if err != ErrNotInvertible {
			t.Fatalf("[%s] Inv(0) = %v", ff.name, err)
		}
		if err := f.InvVarTime(z, x); err != ErrNotInvertible {
			t.Fatalf("[%s] InvVarTime(0) = %v", ff.name, err)
		}
	} else {
		if err != nil {
			t.Fatalf("[%s] Inv(%v): %v", ff.name, a, err)
		}
		vt := f.NewElt()
		if err := f.InvVarTime(vt, x); err != nil {
			t.Fatalf("[%s] InvVarTime(%v): %v", ff.name, a, err)
		}
		if !f.Equal(vt, z) {
			t.Fatalf("[%s] InvVarTime ≠ Inv for %v", ff.name, a)
		}
		f.Mul(z, z, x)
		if !f.IsOne(z) {
			t.Fatalf("[%s] x·x⁻¹ ≠ 1 for %v", ff.name, a)
		}
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
