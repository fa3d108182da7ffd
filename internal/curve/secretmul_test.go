package curve_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
)

// secretCurves are the three parameter sizes — the generic 2-limb field, the
// 4-limb one and the 8-limb kernels (assembly, or Go under -tags purego) — and
// at paper size both orders: one whose top is a single bit, one dense.
func secretCurves(tb testing.TB) map[string]*curve.Curve {
	return map[string]*curve.Curve{"toy": toyCurve(tb), "fast": fastCurve(tb), "paper": paperCurve(tb), "paper_dense": paperDenseCurve(tb)}
}

// edgeScalars are the scalars the signed recoding has to get right by
// construction rather than by luck: the ends of [0, q), both parities beside
// them, values the kernels must reduce first, and — the only scalars for which
// a kernel's last addition can be a doubling — 2m and q − 2m for every
// magnitude m a last digit can have: the odd m < 16 of the window and the
// comb's 2^((w−1)d) ± … ± 2^d ± 1.
func edgeScalars(c *curve.Curve, comb *curve.SecretComb) []*big.Int {
	q := c.Q()
	bits := q.BitLen()
	var out []*big.Int
	for _, v := range []int64{0, 1, 2, 3, 4, 15, 16, 17, 31, 32, 33} {
		out = append(out, big.NewInt(v), new(big.Int).Sub(q, big.NewInt(v)), new(big.Int).Add(q, big.NewInt(v)), big.NewInt(-v))
	}
	top := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	out = append(out,
		new(big.Int).Sub(top, big.NewInt(1)),                                           // 2^|q| − 1: in the word range, above q
		new(big.Int).Add(top, big.NewInt(5)),                                           // one bit too long
		new(big.Int).Mul(q, new(big.Int).Lsh(q, 70)),                                   // ≡ 0, far out of range
		new(big.Int).Rsh(q, 1),                                                         // (q − 1)/2
		new(big.Int).Lsh(big.NewInt(1), uint(bits-2)),                                  // Hamming weight 1
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(bits-1)), big.NewInt(1)), // weight |q| − 1
	)
	addPair := func(m *big.Int) {
		twoM := new(big.Int).Lsh(m, 1)
		out = append(out, twoM, new(big.Int).Sub(q, twoM))
	}
	for m := int64(1); m < 16; m += 2 {
		addPair(big.NewInt(m))
	}
	teeth, spacing, rows := comb.Shape()
	for idx := 0; idx < rows; idx++ {
		m := new(big.Int).Lsh(big.NewInt(1), uint((teeth-1)*spacing))
		for t := 0; t < teeth-1; t++ {
			term := new(big.Int).Lsh(big.NewInt(1), uint(t*spacing))
			if idx>>uint(t)&1 == 1 {
				m.Add(m, term)
			} else {
				m.Sub(m, term)
			}
		}
		addPair(m)
	}
	return out
}

// TestSecretScalarMulDifferential holds ScalarMulSecret and SecretComb to
// ScalarMul and to the affine big.Int oracle, byte for byte, on every edge
// scalar and on random ones, for several bases per parameter size.
func TestSecretScalarMulDifferential(t *testing.T) {
	for name, c := range secretCurves(t) {
		t.Run(name, func(t *testing.T) {
			random, bases := 300, 4
			if name != "toy" {
				random, bases = 40, 2 // the big.Int oracle is the slow side
			}
			for b := 0; b < bases; b++ {
				P, err := c.RandomG1(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				comb, err := curve.NewSecretComb(P)
				if err != nil {
					t.Fatal(err)
				}
				ks := edgeScalars(c, comb)
				for i := 0; i < random; i++ {
					ks = append(ks, randScalarBits(t, c.Q().BitLen()+i%9-4, i))
				}
				for _, k := range ks {
					want := curvetest.ScalarMulBinary(P, k)
					if got := P.ScalarMul(k); !bytes.Equal(got.Marshal(), want.Marshal()) {
						t.Fatalf("k=%v: ScalarMul %v ≠ oracle %v", k, got, want)
					}
					got, err := P.ScalarMulSecret(k)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Marshal(), want.Marshal()) {
						t.Fatalf("k=%v base=%v: ScalarMulSecret %v ≠ oracle %v", k, P, got, want)
					}
					if got := comb.ScalarMul(k); !bytes.Equal(got.Marshal(), want.Marshal()) {
						t.Fatalf("k=%v base=%v: comb %v ≠ oracle %v", k, P, got, want)
					}
					if !got.IsInfinity() && !got.InSubgroup() {
						t.Fatalf("k=%v: product marked outside G1", k)
					}
				}
			}
		})
	}
}

// TestSecretScalarMulLastAdditionDoubles pins the one exceptional case the
// kernels can meet. The window's lowest digit is (k̃ mod 32) − 16, so for
// d₀ ≡ 16 − q (mod 32) negative — toy and fast: −1 and −13 — the odd scalar
// k̃ = q + 2d₀ recodes as d₀ above a prefix ≡ d₀ (mod q): the ladder's last
// addition adds a point to itself. Both k = q + 2d₀ and k = −2d₀ (which runs
// as q + 2d₀ and is negated) must still come out right; with the plain chord
// formulas in that step they come out as O. Neither paper order has one
// (d₀ ≡ 15 and 3 mod 32), and the comb has none at any in-repo order
// (TestSecretCombLastColumn), so the step it shares with the ladder is also
// driven directly: an accumulator holding R, R selected from a one-row table.
func TestSecretScalarMulLastAdditionDoubles(t *testing.T) {
	met := 0
	for name, c := range secretCurves(t) {
		q := c.Q()
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := curve.SecretLastStepOnItself(P), P.Double(); !got.Equal(want) {
			t.Errorf("%s: last step of R onto R gave %v, want 2R = %v", name, got, want)
		}
		d0 := (16-new(big.Int).And(q, big.NewInt(31)).Int64()+32)%32 - 32 // in (−32, 0)
		if d0 < -16 {
			continue // the digit is positive: this order has no such scalar
		}
		met++
		for _, k := range []*big.Int{big.NewInt(-2 * d0), new(big.Int).Add(q, big.NewInt(2*d0))} {
			got, err := P.ScalarMulSecret(k)
			if err != nil {
				t.Fatal(err)
			}
			if want := P.ScalarMul(k); !got.Equal(want) {
				t.Errorf("%s, k=%v: got %v, want %v", name, k, got, want)
			}
		}
	}
	if met == 0 {
		t.Error("no parameter set has a self-doubling scalar any more: find another")
	}
}

// combSelfDoublings returns the scalars k̃ ∈ [1, q) whose comb walk (teeth ×
// spacing) ends by adding a point to itself: k̃ − 2D₀ = q for the column-0
// digit D₀ of k̃'s signed recoding. Only k̃ = q + 2D for a negative digit
// value D can qualify, so the 2^(teeth−1) values −|row| are all there is to
// try; the recoding is recomputed here from its definition (bᵢ = bit i of
// (k̃ − 1)/2 + 2^(L−1), read as ±1), not through the kernels' fp.SignedBits.
func combSelfDoublings(q *big.Int, teeth, spacing int) []*big.Int {
	L := teeth * spacing
	var out []*big.Int
	for idx := 0; idx < 1<<(teeth-1); idx++ {
		row := new(big.Int).Lsh(big.NewInt(1), uint((teeth-1)*spacing))
		for t := 0; t < teeth-1; t++ {
			term := new(big.Int).Lsh(big.NewInt(1), uint(t*spacing))
			if idx>>uint(t)&1 == 1 {
				row.Add(row, term)
			} else {
				row.Sub(row, term)
			}
		}
		k := new(big.Int).Sub(q, new(big.Int).Lsh(row, 1)) // q + 2D for D = −row
		if k.Sign() <= 0 {
			continue
		}
		u := new(big.Int).Rsh(k, 1)
		u.SetBit(u, L-1, 1)
		d0 := new(big.Int)
		for t := 0; t < teeth; t++ {
			term := new(big.Int).Lsh(big.NewInt(1), uint(t*spacing))
			if u.Bit(t*spacing) == 1 {
				d0.Add(d0, term)
			} else {
				d0.Sub(d0, term)
			}
		}
		if new(big.Int).Sub(k, new(big.Int).Lsh(d0, 1)).Cmp(q) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestSecretCombLastColumn is the comb's half of DESIGN §7's per-order facts:
// at every in-repo order — paper's single-bit top included — no scalar makes
// the comb's last addition a doubling, and the predicate that says so is not
// vacuous: among the small orders of TestSecretScalarMulExhaustiveSmallOrders
// it finds the self-doubling scalars, and each one runs right through the
// comb.
func TestSecretCombLastColumn(t *testing.T) {
	for name, c := range secretCurves(t) {
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := curve.NewSecretComb(P)
		if err != nil {
			t.Fatal(err)
		}
		teeth, spacing, _ := comb.Shape()
		if ks := combSelfDoublings(c.Q(), teeth, spacing); len(ks) != 0 {
			t.Errorf("%s (comb %d×%d): self-doubling scalars %v", name, teeth, spacing, ks)
		}
	}
	met := 0
	for _, q := range []int64{131, 251, 257, 509, 521, 1021, 2053, 4093, 8191} {
		c := smallCurve(t, q)
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := curve.NewSecretComb(P)
		if err != nil {
			t.Fatal(err)
		}
		teeth, spacing, _ := comb.Shape()
		for _, k := range combSelfDoublings(c.Q(), teeth, spacing) {
			met++
			if got, want := comb.ScalarMul(k), P.ScalarMul(k); !got.Equal(want) {
				t.Errorf("q=%d k=%v: comb %v, want %v", q, k, got, want)
			}
		}
	}
	if met == 0 {
		t.Error("no small order has a self-doubling comb scalar: the predicate is vacuous")
	}
}

// smallCurve builds y² = x³ + x over the smallest prime p = c·q − 1 with
// 4 | c and q ∤ c, so that G1 has the given prime order q.
func smallCurve(t *testing.T, q int64) *curve.Curve {
	t.Helper()
	for c := int64(4); ; c += 4 {
		p := big.NewInt(c*q - 1)
		if c%q == 0 || !p.ProbablyPrime(20) {
			continue
		}
		cv, err := curve.New(p, big.NewInt(q))
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
}

// TestSecretScalarMulExhaustiveSmallOrders is totality where the exceptional
// cases are densest: on orders from the smallest the kernels accept (8 bits,
// where the comb is one tooth wide) up to 13 bits, every scalar of [0, q)
// goes through the ladder and the comb and must match ScalarMul. Among these
// orders are ones whose comb has a self-doubling last column, which none of
// the three parameter sets has.
func TestSecretScalarMulExhaustiveSmallOrders(t *testing.T) {
	for _, q := range []int64{131, 251, 257, 509, 521, 1021, 2053, 4093, 8191} {
		c := smallCurve(t, q)
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := curve.NewSecretComb(P)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		for k := int64(0); k < q; k++ {
			kk := big.NewInt(k)
			want := P.ScalarMul(kk)
			got, err := P.ScalarMulSecret(kk)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("q=%d k=%d: ScalarMulSecret %v, want %v", q, k, got, want)
			}
			if got := comb.ScalarMul(kk); !got.Equal(want) {
				teeth, spacing, _ := comb.Shape()
				t.Fatalf("q=%d k=%d (comb %d×%d): got %v, want %v", q, k, teeth, spacing, got, want)
			}
		}
	}
}

// TestSecretKernelsSameOperations is the hard gate on the secret path: for
// scalars of Hamming weight 1, |q|/2 and |q| − 1, the ends of the range and a
// scalar that is reduced first, both kernels run exactly the same doublings,
// additions, table-row reads and inversions — the counts the shape of the
// recoding predicts, not merely equal ones. Each counted operation is one
// straight line of fp calls (cttime reads them unmarked), so equal counts are
// equal sequences of field multiplications and squarings.
func TestSecretKernelsSameOperations(t *testing.T) {
	for name, c := range secretCurves(t) {
		t.Run(name, func(t *testing.T) {
			q := c.Q()
			bits := q.BitLen()
			P, err := c.RandomG1(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			comb, err := curve.NewSecretComb(P)
			if err != nil {
				t.Fatal(err)
			}
			half := new(big.Int)
			for i := 0; i < bits-1; i += 2 {
				half.SetBit(half, i, 1)
			}
			scalars := map[string]*big.Int{
				"weight 1":      new(big.Int).Lsh(big.NewInt(1), uint(bits-2)),
				"weight |q|/2":  half,
				"weight |q|-1":  new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(bits-1)), big.NewInt(1)),
				"zero":          new(big.Int),
				"one":           big.NewInt(1),
				"two":           big.NewInt(2),
				"q-1":           new(big.Int).Sub(q, big.NewInt(1)),
				"q+3 (reduced)": new(big.Int).Add(q, big.NewInt(3)),
			}

			digits := (bits + 3) / 4
			wantLadder := curve.SecretOps{
				Doubles:      1 + 4*(digits-1), // 2P for the table, then four per digit after the first
				Adds:         7 + digits - 2,   // 3P … 15P, then one per digit between the first and the last
				CompleteAdds: 1,
				RowsRead:     8 * digits,
				Inversions:   2, // the table and the product
			}
			teeth, spacing, rows := comb.Shape()
			if teeth*spacing < bits || rows != 1<<(teeth-1) {
				t.Fatalf("comb of %d teeth × %d with %d rows cannot hold %d bits", teeth, spacing, rows, bits)
			}
			wantComb := curve.SecretOps{
				Doubles:      spacing - 1,
				Adds:         spacing - 2,
				CompleteAdds: 1,
				RowsRead:     rows * spacing,
				Inversions:   1,
			}
			for label, k := range scalars {
				_, ops, err := P.ScalarMulSecretOps(k)
				if err != nil {
					t.Fatal(err)
				}
				if ops != wantLadder {
					t.Errorf("%s: ScalarMulSecret did %+v, want %+v", label, ops, wantLadder)
				}
				if _, ops := comb.ScalarMulOps(k); ops != wantComb {
					t.Errorf("%s: comb did %+v, want %+v", label, ops, wantComb)
				}
			}
		})
	}
}

// TestSecretCombConcurrent shares one comb and one set of scalars among
// goroutines (run with -race): ScalarMul reads its rows and its scalar and
// writes only its own accumulator, so every worker gets ScalarMul's bytes and
// the scalars come back as they went in.
func TestSecretCombConcurrent(t *testing.T) {
	c := toyCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := curve.NewSecretComb(P)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Q()
	ks := []*big.Int{big.NewInt(123456), big.NewInt(-789), new(big.Int).Set(q), new(big.Int).Lsh(q, 3), new(big.Int).Sub(q, big.NewInt(2))}
	var want [][]byte
	var before []string
	for _, k := range ks {
		want = append(want, P.ScalarMul(k).Marshal())
		before = append(before, k.String())
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (w + i) % len(ks)
				if got := comb.ScalarMul(ks[j]); !bytes.Equal(got.Marshal(), want[j]) {
					errs[w] = fmt.Errorf("worker %d run %d: comb %v ≠ ScalarMul for k=%v", w, i, got, ks[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for j, k := range ks {
		if k.String() != before[j] {
			t.Errorf("scalar %s came back as %v", before[j], k)
		}
	}
}

// TestSecretKernelsRefuseBadBases: like NewFixedPair, neither kernel walks a
// point that is not in G1 ∖ {O}, and neither runs on an order too small for
// its exceptional-case bounds.
func TestSecretKernelsRefuseBadBases(t *testing.T) {
	c := toyCurve(t)
	k := big.NewInt(7)
	bad := append(curvetest.CofactorPoints(t, c), c.Infinity())
	G, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad, G.Add(curvetest.RandomCofactorPoint(c))) // a G1 component is not enough
	for _, pt := range bad {
		if _, err := pt.ScalarMulSecret(k); !errors.Is(err, curve.ErrNotInSubgroup) {
			t.Errorf("ScalarMulSecret on %v: %v, want ErrNotInSubgroup", pt, err)
		}
		if _, err := curve.NewSecretComb(pt); !errors.Is(err, curve.ErrNotInSubgroup) {
			t.Errorf("NewSecretComb(%v): %v, want ErrNotInSubgroup", pt, err)
		}
	}
	if _, err := curve.NewSecretComb(nil); !errors.Is(err, curve.ErrNotInSubgroup) {
		t.Errorf("NewSecretComb(nil): %v, want ErrNotInSubgroup", err)
	}

	tiny, err := curve.New(big.NewInt(19), big.NewInt(5)) // #E = 20, G1 of order 5
	if err != nil {
		t.Fatal(err)
	}
	g, err := tiny.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ScalarMulSecret(k); !errors.Is(err, curve.ErrOrderTooSmall) {
		t.Errorf("ScalarMulSecret on a 3-bit order: %v, want ErrOrderTooSmall", err)
	}
	if _, err := curve.NewSecretComb(g); !errors.Is(err, curve.ErrOrderTooSmall) {
		t.Errorf("NewSecretComb on a 3-bit order: %v, want ErrOrderTooSmall", err)
	}
}

// FuzzSecretScalarMul is the differential fuzzer of the secret path: any
// scalar, of any width and either sign, times any G1 base must give the bytes
// ScalarMul gives, from the ladder and from the comb.
func FuzzSecretScalarMul(f *testing.F) {
	c := toyCurve(f)
	q := c.Q()
	f.Add([]byte("seed"), []byte{}, false)                                // k = 0
	f.Add([]byte("seed"), []byte{0x01}, false)                            // 1
	f.Add([]byte("seed"), []byte{0x02}, false)                            // 2
	f.Add([]byte("x"), new(big.Int).Sub(q, big.NewInt(1)).Bytes(), false) // q − 1
	f.Add([]byte("x"), q.Bytes(), false)                                  // q ≡ 0
	f.Add([]byte("y"), new(big.Int).Add(q, big.NewInt(2)).Bytes(), true)  // −(q + 2)
	f.Add([]byte(""), bytes.Repeat([]byte{0xff}, 13), false)              // far above q
	f.Add([]byte("z"), new(big.Int).Lsh(q, 1).Bytes(), true)              // −2q ≡ 0

	f.Fuzz(func(t *testing.T, seed, scalar []byte, negative bool) {
		if len(scalar) > 64 {
			scalar = scalar[:64]
		}
		k := new(big.Int).SetBytes(scalar)
		if negative {
			k.Neg(k)
		}
		base, err := c.HashToPoint("fuzz", seed)
		if err != nil || base.IsInfinity() {
			t.Skip()
		}
		want := base.ScalarMul(k).Marshal()
		got, err := base.ScalarMulSecret(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want) {
			t.Fatalf("k=%v base=%v: ScalarMulSecret %v ≠ ScalarMul", k, base, got)
		}
		comb, err := curve.NewSecretComb(base)
		if err != nil {
			t.Fatal(err)
		}
		if got := comb.ScalarMul(k); !bytes.Equal(got.Marshal(), want) {
			t.Fatalf("k=%v base=%v: comb %v ≠ ScalarMul", k, base, got)
		}
	})
}
