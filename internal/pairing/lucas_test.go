package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/gf"
)

// easyPart returns f^(p−1) = conj(f)/f the generic way — the reference the
// Lucas-ladder final exponentiation and GT check are compared against.
func easyPart(t *testing.T, f *gf.Element) *gf.Element {
	t.Helper()
	inv, err := new(gf.Element).Inverse(f)
	if err != nil {
		t.Fatal(err)
	}
	g := new(gf.Element).Conjugate(f)
	return g.Mul(g, inv)
}

func randomElement(t *testing.T, pp *Params) *gf.Element {
	t.Helper()
	a, err := rand.Int(rand.Reader, pp.P())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rand.Int(rand.Reader, pp.P())
	if err != nil {
		t.Fatal(err)
	}
	return pp.Field().NewElement(a, b)
}

// TestFinalExpMatchesGenericExp: at every parameter size, the Lucas-ladder
// (x̄/x)^k equals conj/inverse/square-and-multiply bit for bit — for the
// exponents the pairing uses and the edge ones, on inputs whose unitary part
// is 1, −1, i, −i and random.
func TestFinalExpMatchesGenericExp(t *testing.T) {
	for name, pp := range allParams(t) {
		fld := pp.Field()
		q := pp.Q()
		r, _ := rand.Int(rand.Reader, new(big.Int).Mul(q, pp.expTail))
		exps := map[string]*big.Int{
			"0": big.NewInt(0), "1": big.NewInt(1), "2": big.NewInt(2),
			"q": q, "q-1": new(big.Int).Sub(q, big.NewInt(1)), "(p+1)/q": pp.expTail, "random": r,
		}
		inputs := map[string]*gf.Element{
			"unitary part 1":  fld.NewElement(big.NewInt(7), big.NewInt(0)),
			"unitary part -1": fld.NewElement(big.NewInt(0), big.NewInt(7)),
			"unitary part i":  fld.NewElement(big.NewInt(1), big.NewInt(-1)),
			"unitary part -i": fld.NewElement(big.NewInt(1), big.NewInt(1)),
			"random 1":        randomElement(t, pp),
			"random 2":        randomElement(t, pp),
		}
		for in, x := range inputs {
			g := easyPart(t, x)
			for en, k := range exps {
				want, err := new(gf.Element).Exp(g, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := new(gf.Element).ExpUnitaryPart(x, k)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Bytes()) != string(want.Bytes()) {
					t.Errorf("%s: %s ^ %s: Lucas ladder and square-and-multiply differ", name, in, en)
				}
			}
			// finalExp itself is the (p+1)/q row.
			want, _ := new(gf.Element).Exp(g, pp.expTail)
			if got := pp.finalExp(x).v; !got.Equal(want) {
				t.Errorf("%s: finalExp(%s) differs from the generic exponentiation", name, in)
			}
		}
		if one := pp.finalExp(fld.Zero()); !one.IsOne() {
			t.Errorf("%s: finalExp(0) = %v; want the documented 1", name, one.v)
		}
	}
}

// TestInGTMatchesGenericCheck compares the norm-plus-Lucas GT check with the
// definition g^q == 1 (generic exponentiation; zero is no group element) on
// members, unitary non-members, non-unitary elements and zero.
func TestInGTMatchesGenericCheck(t *testing.T) {
	for name, pp := range allParams(t) {
		fld := pp.Field()
		q := pp.Q()
		reference := func(v *gf.Element) bool {
			pow, err := new(gf.Element).Exp(v, q)
			return err == nil && !v.IsZero() && pow.IsOne()
		}
		gen := mustPair(t, pp, pp.Generator(), pp.Generator())
		k, _ := rand.Int(rand.Reader, q)
		cases := map[string]struct {
			v    *gf.Element
			want bool
		}{
			"identity":              {fld.One(), true},
			"pairing value":         {gen.v, true},
			"power of a member":     {mustExp(t, gen, k).v, true},
			"-1 (unitary, order 2)": {fld.NewElement(big.NewInt(-1), big.NewInt(0)), false},
			"i (unitary, order 4)":  {fld.NewElement(big.NewInt(0), big.NewInt(1)), false},
			"unitary non-member 1":  {easyPart(t, randomElement(t, pp)), false}, // f^(p−1) without the tail
			"unitary non-member 2":  {easyPart(t, randomElement(t, pp)), false},
			"member times -1":       {new(gf.Element).Neg(gen.v), false},
			"non-unitary":           {randomElement(t, pp), false},
			"F_p* element":          {fld.NewElement(big.NewInt(2), big.NewInt(0)), false},
			"zero":                  {fld.Zero(), false},
		}
		for cn, c := range cases {
			got := pp.InGT(&GT{v: c.v, q: q})
			if ref := reference(c.v); got != ref || got != c.want {
				t.Errorf("%s: %s: InGT = %v, generic g^q == 1 says %v, want %v", name, cn, got, ref, c.want)
			}
		}
	}
}
