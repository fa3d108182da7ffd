package pairing

import (
	"crypto/rand"
	"testing"

	"repro/internal/curve"
)

// TestPairXMatchesPair holds the x-only pairing to the standard one at every
// parameter set, on the miss path (PairX) and the hit path
// (FixedPair.PairX): resolved with U's y it is Pair's value byte for byte,
// resolved with −y exactly its inverse. U runs over G1 and over the full
// group E(F_p), whose cofactor part the pairing does not see.
func TestPairXMatchesPair(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		t.Run(name, func(t *testing.T) {
			pp, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := pp.Curve()
			rounds := 5
			if name == "toy" {
				rounds = 40
			}
			for i := range rounds {
				d, err := c.RandomG1(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				u, err := c.RandomG1(rand.Reader)
				if i%2 == 1 {
					u, err = c.RandomPoint(rand.Reader)
				}
				if err != nil {
					t.Fatal(err)
				}
				ux, err := c.UnmarshalX(u.Marshal())
				if err != nil {
					t.Fatalf("UnmarshalX of a curve point: %v", err)
				}
				want := mustPair(t, pp, d, u)
				inv, err := want.Inverse()
				if err != nil {
					t.Fatal(err)
				}
				fixed, err := pp.NewFixedPair(d)
				if err != nil {
					t.Fatal(err)
				}
				hit, err := fixed.PairX(ux)
				if err != nil {
					t.Fatal(err)
				}
				miss, err := pp.PairX(d, ux)
				if err != nil {
					t.Fatal(err)
				}
				for path, g := range map[string]GTX{"hit": hit, "miss": miss} {
					if got := resolve(t, pp, g, u); string(got.Bytes()) != string(want.Bytes()) {
						t.Fatalf("round %d, %s path: resolved PairX ≠ Pair", i, path)
					}
					if got := resolve(t, pp, g, u.Neg()); !got.Equal(inv) {
						t.Fatalf("round %d, %s path: resolved with −y ≠ Pair⁻¹", i, path)
					}
				}
			}
		})
	}
}

// TestPairXIdentity: the zero EvalX and a P = O pair to 1, as O does in Pair.
func TestPairXIdentity(t *testing.T) {
	pp := toyParams(t)
	c := pp.Curve()
	ux, err := c.UnmarshalX(pp.Generator().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := pp.NewFixedPair(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string]func() (GTX, error){
		"Params.PairX(O, x)": func() (GTX, error) { return pp.PairX(c.Infinity(), ux) },
		"Params.PairX(P, O)": func() (GTX, error) { return pp.PairX(pp.Generator(), curve.EvalX{}) },
		"FixedPair.PairX(O)": func() (GTX, error) { return fixed.PairX(curve.EvalX{}) },
	} {
		g, err := pair()
		if err != nil || !resolve(t, pp, g, pp.Generator()).IsOne() {
			t.Errorf("%s = %v, %v; want 1", name, g.Bytes(), err)
		}
	}
}

// resolve is what the holder of q does with an x-only value: ResolveX of its
// bytes with q's y.
func resolve(t *testing.T, pp *Params, g GTX, q curve.EvalArg) *GT {
	t.Helper()
	r, err := pp.ResolveX(g.Bytes(), q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
