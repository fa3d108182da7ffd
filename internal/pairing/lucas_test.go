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
			"a member's real part":  {fld.NewElement(gen.v.Re(), new(big.Int).Add(gen.v.Im(), big.NewInt(1))), false}, // shares the member's trace ladder
			"F_p* element":          {fld.NewElement(big.NewInt(2), big.NewInt(0)), false},
			"zero":                  {fld.Zero(), false},
		}
		for cn, c := range cases {
			got := pp.InGT(&GT{v: c.v, pp: pp})
			if ref := reference(c.v); got != ref || got != c.want {
				t.Errorf("%s: %s: InGT = %v, generic g^q == 1 says %v, want %v", name, cn, got, ref, c.want)
			}
		}
	}
}

// TestGTMembershipPath pins the test each committed set's InGT runs: the
// trace comparison on the sparse-order paper set (Generate's outputs are
// pinned by checkSparseSet), the ladder over q on the three random orders.
func TestGTMembershipPath(t *testing.T) {
	for name, want := range map[string]bool{"toy": false, "fast": false, "paper": true, "paper_dense": false} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := pp.gt.ComparesTraces(); got != want {
			t.Errorf("%s: InGT compares traces = %v, want %v", name, got, want)
		}
	}
}

// TestInGTSmallOrderFactors: on the paper set, for every small prime ℓ | h
// (h = (p+1)/q: 2 and 24799), an element ε of order ℓ and a member times ε
// get the verdict of the generic g^q == 1 — the elements the trace
// comparison would let through if the cofactor shared a factor with
// 2^159 − 2^17 − 1.
func TestInGTSmallOrderFactors(t *testing.T) {
	pp, err := Paper()
	if err != nil {
		t.Fatal(err)
	}
	h := pp.Curve().Cofactor()
	order := new(big.Int).Add(pp.P(), big.NewInt(1))
	member := mustPair(t, pp, pp.Generator(), pp.Generator())
	var primes []int64
	for l := int64(2); l < 1<<16; l++ {
		if big.NewInt(l).ProbablyPrime(0) && new(big.Int).Mod(h, big.NewInt(l)).Sign() == 0 {
			primes = append(primes, l)
		}
	}
	if len(primes) < 2 {
		t.Fatalf("small primes of h = %v; expected 2 and at least one odd one", primes)
	}
	for _, l := range primes {
		var eps *gf.Element
		for eps == nil || eps.IsOne() {
			u := easyPart(t, randomElement(t, pp))
			eps, _ = new(gf.Element).Exp(u, new(big.Int).Div(order, big.NewInt(l)))
		}
		for label, v := range map[string]*gf.Element{"ε": eps, "member × ε": new(gf.Element).Mul(member.v, eps)} {
			pow, _ := new(gf.Element).Exp(v, pp.q)
			if got := pp.InGT(&GT{v: v, pp: pp}); got || pow.IsOne() {
				t.Errorf("ℓ = %d, %s: InGT = %v, generic g^q == 1 says %v; want both false", l, label, got, pow.IsOne())
			}
		}
	}
}

// TestTraceComparisonNeedsGCD shows the gcd condition carries weight. A set
// whose cofactor h shares the factor 7 with 2^31 − 2^6 − 1 (q = 2^31 + 2^6 + 1)
// must keep the ladder: an element of order 7 passes the bare trace
// comparison, and InGT refuses it.
func TestTraceComparisonNeedsGCD(t *testing.T) {
	q, b, err := sparseOrder(32)
	if err != nil || b != 6 {
		t.Fatalf("sparseOrder(32) = %v, %d, %v", q, b, err)
	}
	mirror := new(big.Int).Sub(q, big.NewInt(1<<7+2)) // 2^31 − 2^6 − 1
	if new(big.Int).Mod(mirror, big.NewInt(7)).Sign() != 0 {
		t.Fatal("7 does not divide 2^31 − 2^6 − 1")
	}
	// p = 28k·q − 1 ≈ 2^79, the first prime with k ≥ 2^43: 4 | h and 7 | h.
	var p *big.Int
	for k := new(big.Int).Lsh(big.NewInt(1), 79-5-31); ; k.Add(k, big.NewInt(1)) {
		p = new(big.Int).Mul(k, big.NewInt(28))
		p.Mul(p, q).Sub(p, big.NewInt(1))
		if p.ProbablyPrime(20) {
			break
		}
	}
	pp, err := fromPQ(rand.Reader, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if pp.gt.ComparesTraces() {
		t.Fatal("gcd(p + 1, 2^31 − 2^6 − 1) = 7, yet InGT compares traces")
	}
	var eps *gf.Element
	for eps == nil || eps.IsOne() {
		u := easyPart(t, randomElement(t, pp))
		eps, _ = new(gf.Element).Exp(u, new(big.Int).Div(new(big.Int).Add(p, big.NewInt(1)), big.NewInt(7)))
	}
	if !eps.UnitaryTracesMeet(31, 6) {
		t.Fatal("an element of order 7 fails the bare trace comparison")
	}
	if pp.InGT(&GT{v: eps, pp: pp}) {
		t.Fatal("InGT accepts an element of order 7")
	}
	if g := mustPair(t, pp, pp.Generator(), pp.Generator()); !pp.InGT(g) || g.IsOne() {
		t.Fatal("the set's own pairing value is refused or degenerate")
	}
}

// TestInGTAllocs: a GT check allocates nothing, on either path.
func TestInGTAllocs(t *testing.T) {
	for name, pp := range allParams(t) {
		g := mustPair(t, pp, pp.Generator(), pp.Generator())
		if n := testing.AllocsPerRun(20, func() { pp.InGT(g) }); n != 0 {
			t.Errorf("%s: InGT allocates %v times", name, n)
		}
	}
}

// BenchmarkInGT times the GT check on a pairing value at both paper-size
// sets: the trace comparison (paper) and the ladder over q (paper_dense).
func BenchmarkInGT(b *testing.B) {
	for _, name := range []string{"paper", "paper_dense"} {
		pp, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := mustPair(b, pp, pp.Generator(), pp.Generator())
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !pp.InGT(g) {
					b.Fatal("pairing value outside GT")
				}
			}
		})
	}
}
