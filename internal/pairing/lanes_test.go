package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp"
)

// pointOfOrder4 returns a point of E(F_p) of order 4: 4 | p + 1 and (0, 0)
// is the only point of order 2, so the 2-part of E(F_p) is cyclic.
func pointOfOrder4(t *testing.T, c *curve.Curve) *curve.Point {
	t.Helper()
	k := new(big.Int).Add(c.P(), big.NewInt(1))
	k.Rsh(k, 2)
	for range 64 {
		r, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if pt := r.ScalarMul(k); !pt.Add(pt).IsInfinity() {
			return pt
		}
	}
	t.Fatal("no point of order 4 in 64 draws")
	return nil
}

// TestLanesMatchScalar holds every pairing path that runs on the lane
// engine to the scalar kernels' F_p² loops (millerScalar), byte for byte, at
// every parameter set — toy and fast, whose widths the lanes decline,
// paper, and paper_dense, whose q has 80 additions between the runs of
// doublings:
//
//   - Pair, FixedPair.Pair and PairX resolved with Q's y, for P and Q in G1,
//     where the lane walk's Miller value is the scalar walk's in the same
//     ring, field element for field element;
//   - the same for Q = U + T and Q = T with T of cofactor order (the
//     evaluation point a SEM or player is sent), and for Q = (0, 0), whose
//     y_Q = 0 the ring cannot map from;
//   - Pair for first arguments outside G1: P + T, and T itself of order 2
//     and 4, whose walks meet 2V = O, where the lane walk must decline and
//     Pair's value be the scalar walk's.
func TestLanesMatchScalar(t *testing.T) {
	t.Logf("fp kernel %s", fp.Kernel())
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		t.Run(name, func(t *testing.T) {
			pp, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := pp.Curve()
			F := pp.field.Fp()
			rand1 := func() *curve.Point {
				pt, err := c.RandomG1(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				return pt
			}
			// check compares each path at (P, Q) with the scalar F_p² walk;
			// inG1 says P admits a Miller program.
			check := func(row string, P, Q *curve.Point, inG1 bool) {
				t.Helper()
				want := &GT{v: pp.finalExp(pp.millerScalar([]livePair{newLivePair(F, P, Q)}, nil), nil), pp: pp}
				got := map[string]*GT{"Pair": mustPair(t, pp, P, Q)}
				xQ, yQ := Q.Mont()
				if inG1 {
					fixed, err := pp.NewFixedPair(P)
					if err != nil {
						t.Fatal(err)
					}
					if got["FixedPair.Pair"], err = fixed.Pair(Q); err != nil {
						t.Fatal(err)
					}
					got["FixedPair.millerScalar"] = &GT{v: pp.finalExp(fixed.millerScalar(xQ, yQ), nil), pp: pp}
				}
				if !F.IsZero(xQ) {
					ux, err := c.UnmarshalX(Q.Marshal())
					if err != nil {
						t.Fatal(err)
					}
					gx, err := pp.PairX(P, ux)
					if err != nil {
						t.Fatal(err)
					}
					if got["PairX"], err = pp.ResolveX(gx.Bytes(), Q); err != nil {
						t.Fatal(err)
					}
				}
				for via, g := range got {
					if string(g.Bytes()) != string(want.Bytes()) {
						t.Errorf("%s: %s differs from the scalar F_p² walk", row, via)
					}
				}
			}
			// walk runs the one-pair walk of ê(P, Q) in F_p[j]/(j² + y_Q²)
			// on the lanes and on the scalar kernels, and reports whether the
			// lanes ran it and gave the scalar walk's Miller value.
			walk := func(P, Q *curve.Point) (ok, equal bool) {
				var sq jSquare
				s := sq[:F.Limbs()]
				_, yQ := Q.Mont()
				F.Square(s, yQ)
				lp := newLivePair(F, P, Q)
				fl, ok := pp.walkLanes(&lp, s)
				lp = newLivePair(F, P, Q)
				fs := pp.millerScalar([]livePair{lp}, s)
				return ok, ok && fl.Equal(fs)
			}
			rounds := 6
			if name == "toy" {
				rounds = 24
			}
			for range rounds {
				P, Q := rand1(), rand1()
				check("G1", P, Q, true)
				if F.Lanes() {
					if ok, equal := walk(P, Q); !ok || !equal {
						t.Errorf("G1: the lane walk declined (%v) or its Miller value differs from the scalar walk's", !ok)
					}
				}
			}
			P, U := rand1(), rand1()
			for _, T := range cofactorPoints(t, pp) {
				check("Q = U + T", P, U.Add(T), true)
				check("Q = T", P, T, true)
				check("outside G1: P + T", P.Add(T), U, false)
				check("outside G1: P = T", T, U, false)
			}
			zero, err := c.NewPoint(new(big.Int), new(big.Int))
			if err != nil {
				t.Fatal(err)
			}
			check("y_Q = 0", P, zero, true)
			if !mustPair(t, pp, P, zero).IsOne() {
				t.Error("ê(P, (0, 0)) ≠ 1")
			}
			four := pointOfOrder4(t, c)
			check("outside G1: order 4", four, U, false)
			check("outside G1: order 4 + P", four.Add(P), U, false)
			if F.Lanes() {
				for row, T := range map[string]*curve.Point{"order 2": zero, "order 4": four} {
					if ok, _ := walk(T, U); ok {
						t.Errorf("outside G1: %s: the lane walk met 2V = O and did not decline", row)
					}
				}
			}
		})
	}
}
