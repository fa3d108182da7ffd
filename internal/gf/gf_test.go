package gf

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

// testField returns F_p² for a small p ≡ 3 (mod 4).
func testField(t *testing.T) *Field {
	t.Helper()
	f, err := NewField(big.NewInt(1000003))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFieldRejectsBadModulus(t *testing.T) {
	if _, err := NewField(big.NewInt(13)); err == nil { // 13 ≡ 1 mod 4
		t.Fatal("p ≡ 1 mod 4 must be rejected")
	}
	if _, err := NewField(big.NewInt(-7)); err == nil {
		t.Fatal("negative modulus must be rejected")
	}
	if _, err := NewField(big.NewInt(0)); err == nil {
		t.Fatal("zero modulus must be rejected")
	}
}

func TestBasicIdentities(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(1234), big.NewInt(5678))

	sum := new(Element).Add(x, f.Zero())
	if !sum.Equal(x) {
		t.Error("x + 0 ≠ x")
	}
	prod := new(Element).Mul(x, f.One())
	if !prod.Equal(x) {
		t.Error("x · 1 ≠ x")
	}
	diff := new(Element).Sub(x, x)
	if !diff.IsZero() {
		t.Error("x − x ≠ 0")
	}
	neg := new(Element).Neg(x)
	zero := new(Element).Add(x, neg)
	if !zero.IsZero() {
		t.Error("x + (−x) ≠ 0")
	}
}

func TestISquaredIsMinusOne(t *testing.T) {
	f := testField(t)
	i := f.NewElement(big.NewInt(0), big.NewInt(1))
	sq := new(Element).Square(i)
	minusOne := f.FromInt(big.NewInt(-1))
	if !sq.Equal(minusOne) {
		t.Fatalf("i² = %v, want −1", sq)
	}
}

func TestInverse(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(31337), big.NewInt(4242))
	inv, err := new(Element).Inverse(x)
	if err != nil {
		t.Fatal(err)
	}
	prod := new(Element).Mul(x, inv)
	if !prod.IsOne() {
		t.Fatalf("x · x⁻¹ = %v, want 1", prod)
	}
	if _, err := new(Element).Inverse(f.Zero()); !errors.Is(err, ErrNotInvertible) {
		t.Fatalf("inverse of zero: got %v, want ErrNotInvertible", err)
	}
}

func TestConjugateIsFrobenius(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(999), big.NewInt(777))
	// x^p must equal conj(x) in F_p².
	pow := new(Element)
	if _, err := pow.Exp(x, f.P()); err != nil {
		t.Fatal(err)
	}
	conj := new(Element).Conjugate(x)
	if !pow.Equal(conj) {
		t.Fatalf("x^p = %v, conj(x) = %v", pow, conj)
	}
}

func TestSquareUnitaryMatchesSquare(t *testing.T) {
	f := testField(t)
	// Unitary elements are exactly the image of y ↦ y^(p−1) = conj(y)/y,
	// which is how the final exponentiation's easy part produces them.
	for i := int64(1); i <= 200; i++ {
		y := f.NewElement(big.NewInt(i*7+1), big.NewInt(i*13+3))
		inv, err := new(Element).Inverse(y)
		if err != nil {
			t.Fatal(err)
		}
		u := new(Element).Conjugate(y)
		u.Mul(u, inv)

		// IsUnitary tells the two kinds apart, and a unitary element's
		// conjugate is its inverse.
		if !u.IsUnitary() || y.IsUnitary() {
			t.Fatalf("iteration %d: IsUnitary(y^(p−1)) = %v, IsUnitary(y) = %v", i, u.IsUnitary(), y.IsUnitary())
		}
		if !new(Element).Mul(u, new(Element).Conjugate(u)).IsOne() {
			t.Fatalf("iteration %d: u·conj(u) ≠ 1 for unitary u", i)
		}

		want := new(Element).Square(u)
		got := new(Element).SquareUnitary(u)
		if !got.Equal(want) {
			t.Fatalf("iteration %d: SquareUnitary(%v) = %v, Square = %v", i, u, got, want)
		}
		// Aliased receiver: e.SquareUnitary(e).
		aliased := u.Copy()
		aliased.SquareUnitary(aliased)
		if !aliased.Equal(want) {
			t.Fatalf("iteration %d: aliased SquareUnitary diverges", i)
		}
	}
}

func TestExpMatchesRepeatedMul(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(5), big.NewInt(3))
	want := f.One()
	for k := 0; k <= 16; k++ {
		got := new(Element)
		if _, err := got.Exp(x, big.NewInt(int64(k))); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("x^%d mismatch", k)
		}
		want = new(Element).Mul(want, x)
	}
}

func TestExpRejectsNegative(t *testing.T) {
	f := testField(t)
	x := f.One()
	if _, err := new(Element).Exp(x, big.NewInt(-1)); err == nil {
		t.Fatal("negative exponent must error")
	}
}

func TestFermatInExtension(t *testing.T) {
	// x^(p²−1) = 1 for x ≠ 0.
	f := testField(t)
	x := f.NewElement(big.NewInt(123456), big.NewInt(654321))
	p := f.P()
	order := new(big.Int).Mul(p, p)
	order.Sub(order, big.NewInt(1))
	got := new(Element)
	if _, err := got.Exp(x, order); err != nil {
		t.Fatal(err)
	}
	if !got.IsOne() {
		t.Fatalf("x^(p²−1) = %v, want 1", got)
	}
}

func TestMulScalar(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(10), big.NewInt(20))
	got := new(Element).MulScalar(x, big.NewInt(3))
	want := f.NewElement(big.NewInt(30), big.NewInt(60))
	if !got.Equal(want) {
		t.Fatalf("3x = %v, want %v", got, want)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(424242), big.NewInt(1))
	data := x.Bytes()
	y, err := f.ElementFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x) {
		t.Fatalf("round trip: %v ≠ %v", y, x)
	}
}

func TestElementFromBytesRejectsBadInput(t *testing.T) {
	f := testField(t)
	if _, err := f.ElementFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding must be rejected")
	}
	size := (f.P().BitLen() + 7) / 8
	big := make([]byte, 2*size)
	for i := range big {
		big[i] = 0xff
	}
	if _, err := f.ElementFromBytes(big); err == nil {
		t.Fatal("out-of-range coordinates must be rejected")
	}
}

func TestCopyIsIndependent(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(7), big.NewInt(8))
	y := x.Copy()
	y.Add(y, f.One())
	if x.Equal(y) {
		t.Fatal("mutating a copy changed the original")
	}
}

func TestSetAliasesSafely(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(7), big.NewInt(8))
	var e Element
	e.Set(x)
	if !e.Equal(x) {
		t.Fatal("Set did not copy value")
	}
	e.Add(&e, f.One())
	if x.Equal(&e) {
		t.Fatal("Set aliased the source internals")
	}
}

// randomElement derives a pseudorandom field element from quick-generated
// ints.
func randomElement(f *Field, a, b int64) *Element {
	return f.NewElement(big.NewInt(a), big.NewInt(b))
}

func TestQuickRingAxioms(t *testing.T) {
	f := testField(t)
	cfg := &quick.Config{MaxCount: 200}

	commutativeMul := func(a1, b1, a2, b2 int64) bool {
		x := randomElement(f, a1, b1)
		y := randomElement(f, a2, b2)
		xy := new(Element).Mul(x, y)
		yx := new(Element).Mul(y, x)
		return xy.Equal(yx)
	}
	if err := quick.Check(commutativeMul, cfg); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}

	associativeMul := func(a1, b1, a2, b2, a3, b3 int64) bool {
		x := randomElement(f, a1, b1)
		y := randomElement(f, a2, b2)
		z := randomElement(f, a3, b3)
		l := new(Element).Mul(new(Element).Mul(x, y), z)
		r := new(Element).Mul(x, new(Element).Mul(y, z))
		return l.Equal(r)
	}
	if err := quick.Check(associativeMul, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distributive := func(a1, b1, a2, b2, a3, b3 int64) bool {
		x := randomElement(f, a1, b1)
		y := randomElement(f, a2, b2)
		z := randomElement(f, a3, b3)
		l := new(Element).Mul(x, new(Element).Add(y, z))
		r := new(Element).Add(new(Element).Mul(x, y), new(Element).Mul(x, z))
		return l.Equal(r)
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("distributivity fails: %v", err)
	}

	squareIsMul := func(a, b int64) bool {
		x := randomElement(f, a, b)
		sq := new(Element).Square(x)
		mu := new(Element).Mul(x, x)
		return sq.Equal(mu)
	}
	if err := quick.Check(squareIsMul, cfg); err != nil {
		t.Errorf("square ≠ self-multiplication: %v", err)
	}

	inverseWorks := func(a, b int64) bool {
		x := randomElement(f, a, b)
		if x.IsZero() {
			return true
		}
		inv, err := new(Element).Inverse(x)
		if err != nil {
			return false
		}
		return new(Element).Mul(x, inv).IsOne()
	}
	if err := quick.Check(inverseWorks, cfg); err != nil {
		t.Errorf("inverse law fails: %v", err)
	}

	conjMultiplicative := func(a1, b1, a2, b2 int64) bool {
		x := randomElement(f, a1, b1)
		y := randomElement(f, a2, b2)
		l := new(Element).Conjugate(new(Element).Mul(x, y))
		r := new(Element).Mul(new(Element).Conjugate(x), new(Element).Conjugate(y))
		return l.Equal(r)
	}
	if err := quick.Check(conjMultiplicative, cfg); err != nil {
		t.Errorf("conjugation not multiplicative: %v", err)
	}
}

// unitaryBases returns 1, −1, i, −i and a few random-looking unitary
// elements y^(p−1) of f.
func unitaryBases(t *testing.T, f *Field) []*Element {
	t.Helper()
	bases := []*Element{
		f.NewElement(big.NewInt(1), big.NewInt(0)),
		f.NewElement(big.NewInt(-1), big.NewInt(0)),
		f.NewElement(big.NewInt(0), big.NewInt(1)),
		f.NewElement(big.NewInt(0), big.NewInt(-1)),
	}
	for _, ab := range [][2]int64{{2, 3}, {12345, 999983}, {7, -1}, {1, 1}} {
		y := f.NewElement(big.NewInt(ab[0]), big.NewInt(ab[1]))
		inv, err := new(Element).Inverse(y)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, new(Element).Conjugate(y).Mul(new(Element).Conjugate(y), inv))
	}
	return bases
}

// TestLucasLadderMatchesExp is the differential test of the trace ladder
// against square-and-multiply: 2·Re(g^k) and 2·Re(g^(k+1)) on every unitary
// base, and the recovered full power wherever b ≠ 0 — at a small prime and
// at paper size, where every step is the assembly kernel's.
func TestLucasLadderMatchesExp(t *testing.T) {
	paperP, _ := new(big.Int).SetString(paperPHex, 16)
	paper, err := NewField(paperP)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Field{testField(t), paper} {
		testLucasLadder(t, f)
	}
}

func testLucasLadder(t *testing.T, f *Field) {
	F := f.fp
	p := f.P()
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(4),
		big.NewInt(53), big.NewInt(89 * 4), big.NewInt(0xdeadbeef),
		new(big.Int).Add(p, big.NewInt(1)), p, new(big.Int).Mul(p, p),
	}
	for bi, g := range unitaryBases(t, f) {
		if !g.IsUnitary() {
			t.Fatalf("base %d is not unitary", bi)
		}
		v1 := F.NewElt()
		F.Double(v1, g.a)
		for _, k := range exps {
			want, _ := new(Element).Exp(g, k)
			next := new(Element).Mul(want, g)
			vk, vk1, trace := F.NewElt(), F.NewElt(), F.NewElt()
			F.LucasLadder(vk, vk1, v1, k)
			if F.Double(trace, want.a); !F.Equal(vk, trace) {
				t.Fatalf("|p|=%d base %d, k = %v: V_k differs from 2·Re(g^k)", p.BitLen(), bi, k)
			}
			if F.Double(trace, next.a); !F.Equal(vk1, trace) {
				t.Fatalf("|p|=%d base %d, k = %v: V_(k+1) differs from 2·Re(g^(k+1))", p.BitLen(), bi, k)
			}
			if F.IsZero(g.b) {
				continue
			}
			invB := F.NewElt()
			if err := F.Inv(invB, g.b); err != nil {
				t.Fatal(err)
			}
			if got := f.expUnitary(new(Element), g.a, invB, k); !got.Equal(want) {
				t.Fatalf("base %d, k = %v: expUnitary = %v, Exp = %v", bi, k, got, want)
			}
		}
	}
}

// TestExpUnitaryPartMatchesGeneric checks (x̄/x)^k against Inverse,
// Conjugate, Mul, Exp, including the x̄/x = ±1 inputs the shared inversion
// cannot serve, an aliased receiver, and the refusals.
func TestExpUnitaryPartMatchesGeneric(t *testing.T) {
	f := testField(t)
	xs := []*Element{
		f.NewElement(big.NewInt(5), big.NewInt(0)),  // x̄/x = 1
		f.NewElement(big.NewInt(0), big.NewInt(5)),  // x̄/x = −1
		f.NewElement(big.NewInt(1), big.NewInt(-1)), // x̄/x = i
		f.NewElement(big.NewInt(1), big.NewInt(1)),  // x̄/x = −i
		f.NewElement(big.NewInt(31337), big.NewInt(271828)),
		f.NewElement(big.NewInt(-2), big.NewInt(999)),
	}
	for xi, x := range xs {
		inv, err := new(Element).Inverse(x)
		if err != nil {
			t.Fatal(err)
		}
		g := new(Element).Conjugate(x)
		g.Mul(g, inv)
		for _, k := range []int64{0, 1, 2, 3, 89, 1000004 / 53, 1 << 40} {
			want, _ := new(Element).Exp(g, big.NewInt(k))
			got, err := new(Element).ExpUnitaryPart(x, nil, big.NewInt(k))
			if err != nil || !got.Equal(want) {
				t.Fatalf("x %d, k = %d: ExpUnitaryPart = %v, %v; want %v", xi, k, got, err, want)
			}
			aliased := x.Copy()
			if _, err := aliased.ExpUnitaryPart(aliased, nil, big.NewInt(k)); err != nil || !aliased.Equal(want) {
				t.Fatalf("x %d, k = %d: aliased ExpUnitaryPart diverges", xi, k)
			}
		}
	}
	if _, err := new(Element).ExpUnitaryPart(f.Zero(), nil, big.NewInt(3)); !errors.Is(err, ErrNotInvertible) {
		t.Fatalf("ExpUnitaryPart(0): err = %v, want ErrNotInvertible", err)
	}
	if _, err := new(Element).ExpUnitaryPart(xs[4], nil, big.NewInt(-1)); err == nil {
		t.Fatal("negative exponent accepted")
	}
}

// TestUnitaryOrderDividesMatchesExp: for every k | p+1 the verdict is
// Exp(e, k).IsOne()'s — on unitary elements of every order, non-unitary
// elements (whose order may well divide other k) and zero.
func TestUnitaryOrderDividesMatchesExp(t *testing.T) {
	f := testField(t) // p + 1 = 1000004 = 2²·53²·89
	inputs := append(unitaryBases(t, f),
		f.Zero(),
		f.NewElement(big.NewInt(2), big.NewInt(0)), // in F_p*: order divides p−1, not unitary
		f.NewElement(big.NewInt(2), big.NewInt(3)),
	)
	for _, g := range unitaryBases(t, f) { // push some bases into small subgroups
		small, _ := new(Element).Exp(g, big.NewInt(1000004/53))
		inputs = append(inputs, small)
	}
	sawMember, sawOutsider := false, false
	for _, k := range []int64{1, 2, 4, 53, 89, 53 * 53, 4 * 89, 1000004} {
		for i, e := range inputs {
			pow, _ := new(Element).Exp(e, big.NewInt(k))
			want := pow.IsOne()
			if got := e.UnitaryOrderDivides(big.NewInt(k)); got != want {
				t.Fatalf("input %d (%v), k = %d: UnitaryOrderDivides = %v, Exp says %v", i, e, k, got, want)
			}
			if k == 53 && !e.IsOne() {
				sawMember = sawMember || want
				sawOutsider = sawOutsider || !want
			}
		}
	}
	if !sawMember || !sawOutsider {
		t.Fatal("test inputs never exercised both verdicts at k = 53")
	}
	if f.One().UnitaryOrderDivides(big.NewInt(-4)) {
		t.Fatal("negative k accepted")
	}
}

// mustSubgroup returns f's norm-1 subgroup of order q.
func mustSubgroup(t *testing.T, f *Field, q *big.Int) *UnitarySubgroup {
	t.Helper()
	grp, err := f.NewUnitarySubgroup(q)
	if err != nil {
		t.Fatal(err)
	}
	return grp
}

// allUnitary returns every element of f's norm-1 group: for each real part
// x, the square roots of 1 − x² (p ≡ 3 mod 4, so a root is a power).
func allUnitary(f *Field) []*Element {
	p := f.P()
	root := new(big.Int).Add(p, big.NewInt(1))
	root.Rsh(root, 2)
	var out []*Element
	for x := int64(0); x < p.Int64(); x++ {
		rhs := big.NewInt(1 - x*x)
		rhs.Mod(rhs, p)
		y := new(big.Int).Exp(rhs, root, p)
		if new(big.Int).Mod(new(big.Int).Mul(y, y), p).Cmp(rhs) != 0 {
			continue
		}
		out = append(out, f.NewElement(big.NewInt(x), y))
		if y.Sign() != 0 {
			out = append(out, f.NewElement(big.NewInt(x), new(big.Int).Neg(y)))
		}
	}
	return out
}

// TestUnitarySubgroupExhaustive runs both membership tests on every element
// of two small norm-1 groups with q = 137 = 2^7 + 2^3 + 1, whose mirror
// 2^7 − 2^3 − 1 = 119 = 7·17. For p = 4931 (p + 1 = 36·137, gcd 1) the
// subgroup compares traces; for p = 27947 (p + 1 = 204·137 = 12·17·137) it
// must not, and the order-17 elements show why: their traces meet, and they
// are not in the subgroup. Either way Contains is Exp(e, q).IsOne()'s verdict
// on every unitary element and on the non-unitary elements that share a
// trace ladder with one, and UnitaryTracesMeet is e^q = 1 or e^119 = 1 on
// unitary elements and false on the others.
func TestUnitarySubgroupExhaustive(t *testing.T) {
	q, mirror := big.NewInt(137), big.NewInt(119)
	for _, c := range []struct {
		p      int64
		traces bool
	}{{4931, true}, {27947, false}} {
		f, err := NewField(big.NewInt(c.p))
		if err != nil {
			t.Fatal(err)
		}
		grp := mustSubgroup(t, f, q)
		if grp.ComparesTraces() != c.traces {
			t.Fatalf("p = %d: ComparesTraces = %v, want %v", c.p, grp.ComparesTraces(), c.traces)
		}
		unitary := allUnitary(f)
		if int64(len(unitary)) != c.p+1 {
			t.Fatalf("p = %d: %d unitary elements, want p + 1", c.p, len(unitary))
		}
		// Beside them, every element of F_p (zero included) and, for each
		// unitary a + bi, the non-unitary a + (b + 1)i: elements whose trace
		// ladder is that of a group element (the unitary one with the same
		// real part, or a root of X² − 2aX + 1 in F_p*, whose order can divide
		// p − 1 and 2^7 − 2^3 − 1 both) but which are not in the group.
		inputs := append([]*Element(nil), unitary...)
		for x := int64(0); x < c.p; x++ {
			inputs = append(inputs, f.NewElement(big.NewInt(x), big.NewInt(0)))
		}
		for _, u := range unitary {
			inputs = append(inputs, f.NewElement(u.Re(), new(big.Int).Add(u.Im(), big.NewInt(1))))
		}
		members, escaped := 0, 0
		for i, e := range inputs {
			toQ, _ := new(Element).Exp(e, q)
			toMirror, _ := new(Element).Exp(e, mirror)
			want := e.IsUnitary() && toQ.IsOne()
			if got := grp.Contains(e); got != want {
				t.Fatalf("p = %d, e = %v: Contains = %v, e^q = 1 says %v", c.p, e, got, want)
			}
			meet := e.IsUnitary() && (toQ.IsOne() || toMirror.IsOne())
			if got := e.UnitaryTracesMeet(7, 3); got != meet {
				t.Fatalf("p = %d, e = %v: UnitaryTracesMeet = %v, want %v", c.p, e, got, meet)
			}
			if i >= len(unitary) {
				continue
			}
			if want {
				members++
			}
			if meet && !want {
				escaped++
			}
		}
		if members != 137 {
			t.Fatalf("p = %d: %d members, want 137", c.p, members)
		}
		if wantEscaped := map[bool]int{true: 0, false: 16}[c.traces]; escaped != wantEscaped {
			t.Fatalf("p = %d: %d non-members whose traces meet, want %d", c.p, escaped, wantEscaped)
		}
	}
	f := testField(t)
	for _, bad := range []int64{88, 3, -89, 0} {
		if _, err := f.NewUnitarySubgroup(big.NewInt(bad)); err == nil {
			t.Fatalf("order %d (even, not dividing p + 1 or not positive) accepted", bad)
		}
	}
	if f.One().UnitaryTracesMeet(3, 3) || f.One().UnitaryTracesMeet(3, -1) {
		t.Fatal("UnitaryTracesMeet accepted b outside [0, a)")
	}
}

// TestExpSecretMatchesExp holds the fixed-window ladder to square-and-multiply
// on every kind of base — general, unitary, 1, 0, −1, i — and every kind of
// exponent a 160-bit order allows, the ends of the range included, at a small
// prime and at paper size (the generic field loops and the 8-limb kernels).
func TestExpSecretMatchesExp(t *testing.T) {
	paper, ok := new(big.Int).SetString(paperPHex, 16)
	if !ok {
		t.Fatal("bad paper prime literal")
	}
	const size = 160
	top := new(big.Int).Lsh(big.NewInt(1), size)
	exps := []*big.Int{
		new(big.Int), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Sub(top, big.NewInt(1)), new(big.Int).Rsh(top, 1), new(big.Int).Rsh(top, 4),
		new(big.Int).Div(top, big.NewInt(3)), new(big.Int).Div(top, big.NewInt(0xf0f1)),
	}
	for _, p := range []*big.Int{big.NewInt(1000003), paper} {
		f, err := NewField(p)
		if err != nil {
			t.Fatal(err)
		}
		x := f.NewElement(new(big.Int).Div(p, big.NewInt(3)), new(big.Int).Div(p, big.NewInt(5)))
		inv, err := new(Element).Inverse(x)
		if err != nil {
			t.Fatal(err)
		}
		unitary := new(Element).Conjugate(x)
		unitary.Mul(unitary, inv)
		bases := []*Element{x, unitary, f.One(), f.Zero(), new(Element).Neg(f.One()), f.NewElement(big.NewInt(0), big.NewInt(1))}
		for bi, base := range bases {
			for _, k := range exps {
				want, err := new(Element).Exp(base, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := new(Element).ExpSecret(base, k, size)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("|p|=%d base %d, k=%v: ExpSecret %v ≠ Exp %v", p.BitLen(), bi, k, got, want)
				}
			}
			// In place, like every other method of the type.
			aliased := base.Copy()
			want, _ := new(Element).Exp(base, exps[9])
			if _, err := aliased.ExpSecret(aliased, exps[9], size); err != nil || !aliased.Equal(want) {
				t.Fatalf("|p|=%d base %d: aliased ExpSecret diverges (%v)", p.BitLen(), bi, err)
			}
		}
		for _, k := range []*big.Int{big.NewInt(-1), top} {
			if _, err := new(Element).ExpSecret(x, k, size); err == nil {
				t.Fatalf("exponent %v outside [0, 2^%d) must be refused", k, size)
			}
		}
	}
}

// TestExpSecretSameOperations is the trace gate for the secret exponent: gf
// keeps its package-level vartime marker, so nothing static reads ExpSecret,
// and this does — exponents of Hamming weight 0, 1, |q|/2 and |q| − 1 all cost
// the squarings, multiplications and table reads the window shape predicts.
func TestExpSecretSameOperations(t *testing.T) {
	f := testField(t)
	x := f.NewElement(big.NewInt(5), big.NewInt(3))
	const size = 160
	half := new(big.Int)
	for i := 0; i < size; i += 2 {
		half.SetBit(half, i, 1)
	}
	want := expOps{
		Squares:     7 + 4*(size/4-1), // x², x⁴, … x¹⁴, then four per window after the first
		Muls:        7 + size/4 - 1,   // x³, x⁵, … x¹⁵, then one per window after the first
		EntriesRead: 16 * size / 4,
	}
	for label, k := range map[string]*big.Int{
		"zero":         new(big.Int),
		"weight 1":     new(big.Int).Lsh(big.NewInt(1), size-2),
		"weight |q|/2": half,
		"weight |q|-1": new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), size-1), big.NewInt(1)),
	} {
		ops, err := new(Element).expSecret(x, k, size)
		if err != nil {
			t.Fatal(err)
		}
		if ops != want {
			t.Errorf("%s: ExpSecret did %+v, want %+v", label, ops, want)
		}
	}
}

// unitaryOfOrder returns an element of exact odd prime order q of the norm-1
// subgroup of f (q must divide p + 1): a random x̄/x raised to (p + 1)/q.
func unitaryOfOrder(t *testing.T, f *Field, q *big.Int, seed int64) *Element {
	t.Helper()
	p := f.P()
	cof := new(big.Int).Add(p, big.NewInt(1))
	if new(big.Int).Mod(cof, q).Sign() != 0 {
		t.Fatal("q does not divide p + 1")
	}
	cof.Div(cof, q)
	for ; ; seed++ {
		x := f.NewElement(big.NewInt(seed), big.NewInt(seed+7))
		g, err := new(Element).ExpUnitaryPart(x, nil, cof)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsOne() {
			return g
		}
	}
}

// TestUnitaryCombMatchesExp: the fixed-base comb returns Exp's element for
// every exponent of a small group (all of [0, q), where every column pattern
// and both parities occur) and, at paper size, for the ends of the range, the
// exponents that are reduced first and random ones — and it refuses a base
// that is not in the group its sign handling assumes.
func TestUnitaryCombMatchesExp(t *testing.T) {
	// p = 1000003 = 4·250001 − 1: the norm-1 group has order p + 1 = 2²·53²·89.
	small := testField(t)
	q := big.NewInt(89)
	grp := mustSubgroup(t, small, q)
	g := unitaryOfOrder(t, small, q, 3)
	comb, err := NewUnitaryComb(g, grp)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(-3); k < 2*89+3; k++ {
		kk := big.NewInt(k)
		want, _ := new(Element).Exp(g, new(big.Int).Mod(kk, q))
		if got := comb.ExpSecret(kk); !got.Equal(want) {
			t.Fatalf("g^%d: comb %v ≠ Exp %v", k, got, want)
		}
	}
	if _, err := NewUnitaryComb(small.NewElement(big.NewInt(5), big.NewInt(3)), grp); err == nil {
		t.Fatal("a non-unitary base must be refused")
	}
	if _, err := NewUnitaryComb(unitaryOfOrder(t, small, big.NewInt(53), 3), grp); err == nil {
		t.Fatal("a base of another order must be refused")
	}
	other := testField(t)
	if _, err := NewUnitaryComb(unitaryOfOrder(t, other, q, 3), grp); err == nil {
		t.Fatal("a base from another field must be refused")
	}

	for _, set := range paperSets {
		paperP, _ := new(big.Int).SetString(set[0], 16)
		paperQ, _ := new(big.Int).SetString(set[1], 16)
		paper, err := NewField(paperP)
		if err != nil {
			t.Fatal(err)
		}
		g = unitaryOfOrder(t, paper, paperQ, 11)
		if comb, err = NewUnitaryComb(g, mustSubgroup(t, paper, paperQ)); err != nil {
			t.Fatal(err)
		}
		exps := []*big.Int{
			new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(paperQ, big.NewInt(1)), new(big.Int).Set(paperQ),
			new(big.Int).Add(paperQ, big.NewInt(2)), big.NewInt(-5), new(big.Int).Lsh(paperQ, 33),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 160), big.NewInt(1)),
		}
		for i := int64(1); i <= 24; i++ {
			exps = append(exps, new(big.Int).Div(new(big.Int).Mul(paperQ, big.NewInt(i)), big.NewInt(25+i)))
		}
		for _, k := range exps {
			want, _ := new(Element).Exp(g, new(big.Int).Mod(k, paperQ))
			if got := comb.ExpSecret(k); !got.Equal(want) {
				t.Fatalf("paper size (q = %x), g^%v: comb ≠ Exp", paperQ, k)
			}
		}
	}
}

// paperSets are the (p, q) of both paper-size sets: an order whose top is a
// single bit and a dense one.
var paperSets = [][2]string{{paperPHex, paperQHex}, {paperDensePHex, paperDenseQHex}}

// TestUnitaryCombSameOperations is the comb's trace gate, as
// TestExpSecretSameOperations is ExpSecret's: d − 1 squarings, d − 1
// multiplications and 32·d rows read, whatever the exponent.
func TestUnitaryCombSameOperations(t *testing.T) {
	half := new(big.Int)
	for i := 0; i < 159; i += 2 {
		half.SetBit(half, i, 1)
	}
	const d = 27 // ⌈160/6⌉
	want := expOps{Squares: d - 1, Muls: d - 1, EntriesRead: 32 * d}
	for _, set := range paperSets {
		paperP, _ := new(big.Int).SetString(set[0], 16)
		paperQ, _ := new(big.Int).SetString(set[1], 16)
		paper, err := NewField(paperP)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := NewUnitaryComb(unitaryOfOrder(t, paper, paperQ, 11), mustSubgroup(t, paper, paperQ))
		if err != nil {
			t.Fatal(err)
		}
		for label, k := range map[string]*big.Int{
			"zero":         new(big.Int),
			"one":          big.NewInt(1),
			"two":          big.NewInt(2),
			"weight 1":     new(big.Int).Lsh(big.NewInt(1), 158),
			"weight |q|/2": half,
			"weight |q|-1": new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 159), big.NewInt(1)),
			"q-1":          new(big.Int).Sub(paperQ, big.NewInt(1)),
		} {
			if ops := comb.expSecret(paper.Zero(), k); ops != want {
				t.Errorf("q = %x, %s: comb did %+v, want %+v", paperQ, label, ops, want)
			}
		}
	}
}

// TestJRingIsF_p2 holds the F_p[j]/(j² + s) arithmetic to F_p² through the
// isomorphism a + b·j ↦ a + (b·y)·i, s = y²: SquareJ, MulJ, MulLineJ and
// ExpUnitaryPart with s must land on Square, Mul, MulLine and
// ExpUnitaryPart with nil s, for several y, aliased receivers, and the
// real and j-only inputs ExpUnitaryPart answers directly. s = 1 (nil) must
// leave ExpUnitaryPart as it is, and −y must give the conjugate.
func TestJRingIsF_p2(t *testing.T) {
	f := testField(t)
	F := f.fp
	mont := func(v int64) []uint64 {
		z := F.NewElt()
		f.setCoord(z, big.NewInt(v))
		return z
	}
	for _, yv := range []int64{1, 2, 7, 123456, -1, -999} {
		y := mont(yv)
		s := F.NewElt()
		F.Square(s, y)
		toFp2 := func(x *Element) *Element { return new(Element).FromJ(x, y) }
		xs := []*Element{
			f.NewElement(big.NewInt(5), big.NewInt(0)),
			f.NewElement(big.NewInt(0), big.NewInt(5)),
			f.NewElement(big.NewInt(31337), big.NewInt(271828)),
			f.NewElement(big.NewInt(-2), big.NewInt(999)),
			f.NewElement(big.NewInt(424242), big.NewInt(-17)),
		}
		alpha, beta, xq := mont(8675309), mont(-31), mont(4711)
		for i, x := range xs {
			if got, want := toFp2(new(Element).SquareJ(x, s)), new(Element).Square(toFp2(x)); !got.Equal(want) {
				t.Fatalf("y = %d, x %d: SquareJ = %v, want %v", yv, i, got, want)
			}
			if got := x.Copy(); !toFp2(got.SquareJ(got, s)).Equal(new(Element).Square(toFp2(x))) {
				t.Fatalf("y = %d, x %d: aliased SquareJ diverges", yv, i)
			}
			z := xs[(i+2)%len(xs)]
			if got, want := toFp2(new(Element).MulJ(x, z, s)), new(Element).Mul(toFp2(x), toFp2(z)); !got.Equal(want) {
				t.Fatalf("y = %d, x %d: MulJ = %v, want %v", yv, i, got, want)
			}
			if got := x.Copy(); !toFp2(got.MulJ(got, got, s)).Equal(new(Element).Square(toFp2(x))) {
				t.Fatalf("y = %d, x %d: aliased MulJ diverges", yv, i)
			}
			want := toFp2(x).MulLine(alpha, beta, xq, y)
			if got := toFp2(x.Copy().MulLineJ(alpha, beta, xq, s)); !got.Equal(want) {
				t.Fatalf("y = %d, x %d: MulLineJ = %v, want %v", yv, i, got, want)
			}
			for _, k := range []int64{0, 1, 2, 89, 1 << 40} {
				want, err := new(Element).ExpUnitaryPart(toFp2(x), nil, big.NewInt(k))
				if err != nil {
					t.Fatal(err)
				}
				got, err := new(Element).ExpUnitaryPart(x, s, big.NewInt(k))
				if err != nil || !toFp2(got).Equal(want) {
					t.Fatalf("y = %d, x %d, k = %d: ExpUnitaryPart with s = %v, %v; want %v", yv, i, k, got, err, want)
				}
				if yv == 1 && !got.Equal(want) {
					t.Fatalf("x %d, k = %d: s = 1 differs from nil s", i, k)
				}
				// The other root −y reads the same (X, Y) as the conjugate.
				conj := toFp2(got)
				F.Neg(conj.b, conj.b)
				if inv, _ := new(Element).Inverse(want); !conj.Equal(inv) {
					t.Fatalf("y = %d, x %d, k = %d: −y does not give the inverse", yv, i, k)
				}
			}
		}
	}
}
