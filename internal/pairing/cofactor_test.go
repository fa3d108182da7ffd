package pairing

import (
	"crypto/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
)

// allParams returns the four committed parameter sets: the two paper-size
// ones take different GT membership tests (TestGTMembershipPath).
func allParams(t *testing.T) map[string]*Params {
	t.Helper()
	sets := make(map[string]*Params)
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = pp
	}
	return sets
}

// cofactorPoints returns points of E(F_p) with no order-q component (one of
// every small prime order dividing the cofactor, (0, 0) first, then two
// random elements of [q]E(F_p)).
func cofactorPoints(t *testing.T, pp *Params) []*curve.Point {
	t.Helper()
	return curvetest.CofactorPoints(t, pp.Curve())
}

// TestPairingIgnoresCofactorInSecondArgument is the property the SEM's
// relaxed boundary rests on (DESIGN §7): with the first, Miller-walked
// argument in the order-q subgroup, the second argument only matters modulo
// qE — ê(d, U + T) = ê(d, U) and ê(d, T) = 1 for every T of cofactor order,
// bit for bit, through every pairing entry point.
func TestPairingIgnoresCofactorInSecondArgument(t *testing.T) {
	for name, pp := range allParams(t) {
		c := pp.Curve()
		d, _ := c.RandomG1(rand.Reader)
		d2, _ := c.RandomG1(rand.Reader)
		u, _ := c.RandomG1(rand.Reader)
		u2, _ := c.RandomG1(rand.Reader)
		fp, err := pp.NewFixedPair(d)
		if err != nil {
			t.Fatal(err)
		}
		want := mustPair(t, pp, d, u)
		wantProduct, err := pp.MultiPair([]*curve.Point{d, d2}, []*curve.Point{u, u2})
		if err != nil {
			t.Fatal(err)
		}
		for i, tors := range cofactorPoints(t, pp) {
			ut := u.Add(tors)
			if ut.InSubgroup() {
				t.Fatalf("%s/%d: U + T is in G1", name, i)
			}
			full, err := pairFull(pp, d, ut)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := fp.Pair(ut)
			if err != nil {
				t.Fatal(err)
			}
			product, err := pp.MultiPair([]*curve.Point{d, d2}, []*curve.Point{ut, u2.Add(tors)})
			if err != nil {
				t.Fatal(err)
			}
			for via, got := range map[string]*GT{"Pair": mustPair(t, pp, d, ut), "FixedPair.Pair": fixed, "PairFull": full} {
				if string(got.Bytes()) != string(want.Bytes()) {
					t.Errorf("%s/%d: %s(d, U+T) ≠ ê(d, U)", name, i, via)
				}
				if !pp.InGT(got) {
					t.Errorf("%s/%d: %s(d, U+T) outside GT", name, i, via)
				}
			}
			if string(product.Bytes()) != string(wantProduct.Bytes()) {
				t.Errorf("%s/%d: MultiPair with cofactor components in both second arguments differs", name, i)
			}

			fullT, err := pairFull(pp, d, tors)
			if err != nil {
				t.Fatal(err)
			}
			fixedT, err := fp.Pair(tors)
			if err != nil {
				t.Fatal(err)
			}
			productT, err := pp.MultiPair([]*curve.Point{d, d2}, []*curve.Point{tors, tors})
			if err != nil {
				t.Fatal(err)
			}
			for via, got := range map[string]*GT{"Pair": mustPair(t, pp, d, tors), "FixedPair.Pair": fixedT, "PairFull": fullT, "MultiPair": productT} {
				if !got.IsOne() {
					t.Errorf("%s/%d: %s(d, T) ≠ 1", name, i, via)
				}
			}
		}
	}
}

// TestPairingFirstArgumentIsNotCofactorBlind shows why the SEM's key must be
// the walked argument: the Miller function f_{q,P} is only a pairing for
// P ∈ E[q], so a cofactor component in the FIRST argument does change the
// value. Checked on the random elements of [q]E(F_p); nothing is claimed
// about one particular small-order T.
func TestPairingFirstArgumentIsNotCofactorBlind(t *testing.T) {
	for name, pp := range allParams(t) {
		c := pp.Curve()
		d, _ := c.RandomG1(rand.Reader)
		u, _ := c.RandomG1(rand.Reader)
		want := mustPair(t, pp, u, d)
		pts := cofactorPoints(t, pp)
		for _, tors := range pts[len(pts)-2:] {
			if got := mustPair(t, pp, u.Add(tors), d); got.Equal(want) {
				t.Errorf("%s: ê(U+T, d) = ê(U, d); the walked argument was expected to matter", name)
			}
		}
	}
}
