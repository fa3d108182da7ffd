package pairing

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/curve"
)

// randPoint returns a uniformly random non-infinity point of the order-q
// subgroup.
func randPoint(t testing.TB, pp *Params) *curve.Point {
	t.Helper()
	for {
		k, err := rand.Int(rand.Reader, pp.Q())
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() == 0 {
			continue
		}
		return pp.GeneratorMul(k)
	}
}

func TestFixedPairMatchesPairAndOracle(t *testing.T) {
	pp := toyParams(t)
	for trial := 0; trial < 8; trial++ {
		P := randPoint(t, pp)
		fp, err := pp.NewFixedPair(P)
		if err != nil {
			t.Fatalf("NewFixedPair: %v", err)
		}
		for i := 0; i < 8; i++ {
			Q := randPoint(t, pp)
			got, err := fp.Pair(Q)
			if err != nil {
				t.Fatalf("FixedPair.Pair: %v", err)
			}
			want := mustPair(t, pp, P, Q)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d/%d: FixedPair(%v) ≠ Pair", trial, i, Q)
			}
			oracle, err := pairFull(pp, P, Q)
			if err != nil {
				t.Fatalf("PairFull oracle: %v", err)
			}
			if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
				t.Fatalf("trial %d/%d: FixedPair diverges from affine oracle", trial, i)
			}
		}
	}
}

func TestFixedPairInfinitySecondArgument(t *testing.T) {
	pp := toyParams(t)
	fp, err := pp.NewFixedPair(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	g, err := fp.Pair(pp.Curve().Infinity())
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsOne() {
		t.Fatal("ê(P, O) ≠ 1")
	}
}

func TestNewFixedPairRejectsBadArguments(t *testing.T) {
	pp := toyParams(t)
	if _, err := pp.NewFixedPair(nil); err == nil {
		t.Error("nil point accepted")
	}
	if _, err := pp.NewFixedPair(pp.Curve().Infinity()); err == nil {
		t.Error("point at infinity accepted")
	}
	// A curve point outside the order-q subgroup (the cofactor is > 1 for
	// every parameter set).
	outside, err := pp.Curve().RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for outside.InSubgroup() || outside.IsInfinity() {
		outside, err = pp.Curve().RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pp.NewFixedPair(outside); err == nil {
		t.Error("out-of-subgroup point accepted")
	}
}

func TestFixedPairLines(t *testing.T) {
	pp := toyParams(t)
	fp, err := pp.NewFixedPair(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	// One tangent line per doubling plus one chord per set bit of q, minus
	// at most a couple of degenerate steps: the count must be within the
	// Miller-loop envelope.
	n := pp.Q().BitLen()
	if got := fp.Lines(); got < n-2 || got > 2*n {
		t.Fatalf("recorded %d lines for a %d-bit order", got, n)
	}
}

// TestFixedPairSlabBuild pins what the two-slab construction must not change
// and what it must: the generator program has exactly the lines it had when
// every coefficient was its own allocation (counted at 23db819; the last
// addition's vertical chord emits none), a replay is Pair bit for bit, and a
// paper-size build is O(1) allocations (1 264 before). The sparse-order
// "paper" set records one tangent per bit below the top and the chord of its
// one addition that is not the last: 159 + 1.
func TestFixedPairSlabBuild(t *testing.T) {
	for name, lines := range map[string]int{"toy": 46, "fast": 186, "paper": 160, "paper_dense": 239} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		P := pp.Generator()
		fp, err := pp.NewFixedPair(P)
		if err != nil {
			t.Fatal(err)
		}
		if got := fp.Lines(); got != lines {
			t.Errorf("%s: %d lines recorded, parent recorded %d", name, got, lines)
		}
		Q := randPoint(t, pp)
		got, err := fp.Pair(Q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), mustPair(t, pp, P, Q).Bytes()) {
			t.Errorf("%s: slab-built program ≠ Pair", name)
		}
		if name != "paper" {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = pp.NewFixedPair(P) }); allocs > 64 {
			t.Errorf("paper: NewFixedPair makes %.0f allocations, want ≤ 64", allocs)
		}
	}
}

// TestFixedPairAllocs pins a paper-size replay to the limb representation:
// the second argument's coordinates are read in place, so what is left is the
// accumulator, the line, the final exponentiation's one variable-time
// inversion and the result (29 on go1.24). Each big.Int coordinate coming back
// costs at least two more — the replay made 33 when Point held big.Ints.
func TestFixedPairAllocs(t *testing.T) {
	pp, err := Paper()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := pp.NewFixedPair(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	Q := randPoint(t, pp)
	if allocs := testing.AllocsPerRun(20, func() { _, _ = fp.Pair(Q) }); allocs > 30 {
		t.Errorf("paper: FixedPair.Pair makes %.0f allocations, want ≤ 30", allocs)
	}
}

func TestPairWithGeneratorMatchesPair(t *testing.T) {
	pp := toyParams(t)
	for i := 0; i < 16; i++ {
		Q := randPoint(t, pp)
		got, err := pp.PairWithGenerator(Q)
		if err != nil {
			t.Fatalf("PairWithGenerator: %v", err)
		}
		want := mustPair(t, pp, pp.Generator(), Q)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("iteration %d: PairWithGenerator ≠ Pair(Generator(), ·)", i)
		}
	}
}

func TestMultiPairMatchesProductOfPairs(t *testing.T) {
	pp := toyParams(t)
	for _, n := range []int{1, 2, 3, 5, 8} {
		ps := make([]*curve.Point, n)
		qs := make([]*curve.Point, n)
		want := pp.One()
		for i := range ps {
			ps[i] = randPoint(t, pp)
			qs[i] = randPoint(t, pp)
			want = want.Mul(mustPair(t, pp, ps[i], qs[i]))
		}
		got, err := pp.MultiPair(ps, qs)
		if err != nil {
			t.Fatalf("MultiPair(%d): %v", n, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("MultiPair(%d) ≠ ∏ Pair", n)
		}

		// Same check against the affine oracle.
		oracle := pp.One()
		for i := range ps {
			g, err := pairFull(pp, ps[i], qs[i])
			if err != nil {
				t.Fatal(err)
			}
			oracle = oracle.Mul(g)
		}
		if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
			t.Fatalf("MultiPair(%d) diverges from affine oracle product", n)
		}
	}
}

func TestMultiPairEdgeCases(t *testing.T) {
	pp := toyParams(t)
	P := randPoint(t, pp)
	Q := randPoint(t, pp)
	O := pp.Curve().Infinity()

	empty, err := pp.MultiPair(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.IsOne() {
		t.Error("empty product ≠ 1")
	}

	// Pairs containing infinity contribute the identity.
	got, err := pp.MultiPair([]*curve.Point{P, O, P}, []*curve.Point{Q, Q, O})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mustPair(t, pp, P, Q)) {
		t.Error("infinity pairs must contribute the identity")
	}

	if _, err := pp.MultiPair([]*curve.Point{P}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := pp.MultiPair([]*curve.Point{nil}, []*curve.Point{Q}); err == nil {
		t.Error("nil point accepted")
	}
}

// TestMultiPairProductCheck exercises the product-equation shape the BLS
// verifier uses: ê(P, S)·ê(−R, h) = 1 iff S = x·h for R = x·P.
func TestMultiPairProductCheck(t *testing.T) {
	pp := toyParams(t)
	x, err := rand.Int(rand.Reader, pp.Q())
	if err != nil {
		t.Fatal(err)
	}
	R := pp.GeneratorMul(x)
	h := randPoint(t, pp)
	S := h.ScalarMul(x)

	got, err := pp.MultiPair(
		[]*curve.Point{pp.Generator(), R.Neg()},
		[]*curve.Point{S, h},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsOne() {
		t.Fatal("valid product check rejected")
	}

	bad, err := pp.MultiPair(
		[]*curve.Point{pp.Generator(), R.Neg()},
		[]*curve.Point{S.Add(pp.Generator()), h},
	)
	if err != nil {
		t.Fatal(err)
	}
	if bad.IsOne() {
		t.Fatal("forged product check accepted")
	}
}

func benchParams(b *testing.B) *Params {
	b.Helper()
	pp, err := Paper()
	if err != nil {
		b.Fatal(err)
	}
	return pp
}

func BenchmarkPair(b *testing.B) {
	pp := benchParams(b)
	P := randPoint(b, pp)
	Q := randPoint(b, pp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.Pair(P, Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedPair measures the amortized per-pairing cost after the
// one-time precomputation (the warm-up the acceptance criterion refers to).
func BenchmarkFixedPair(b *testing.B) {
	pp := benchParams(b)
	P := randPoint(b, pp)
	Q := randPoint(b, pp)
	fp, err := pp.NewFixedPair(P)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Pair(Q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedPairPrecompute(b *testing.B) {
	pp := benchParams(b)
	P := randPoint(b, pp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.NewFixedPair(P); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiPair2(b *testing.B) {
	pp := benchParams(b)
	ps := []*curve.Point{randPoint(b, pp), randPoint(b, pp)}
	qs := []*curve.Point{randPoint(b, pp), randPoint(b, pp)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.MultiPair(ps, qs); err != nil {
			b.Fatal(err)
		}
	}
}
