package wire

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/pairing"
)

// TestUnmarshalG1 pins the subgroup check at the network boundary: a point
// of cofactor order is a valid curve point (plain Unmarshal accepts it) but
// must be rejected by the hardened decoder the services use.
func TestUnmarshalG1(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	c := pp.Curve()

	good, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := UnmarshalG1(c, good.Marshal())
	if err != nil {
		t.Fatalf("G1 point rejected: %v", err)
	}
	if !pt.Equal(good) {
		t.Fatal("decoded point differs")
	}

	// Build a cofactor-order point: q·R for random R in the full group.
	var small *curve.Point
	for {
		R, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		small = R.ScalarMul(c.Q())
		if !small.IsInfinity() {
			break
		}
	}
	if _, err := c.Unmarshal(small.Marshal()); err != nil {
		t.Fatalf("plain Unmarshal must accept on-curve point: %v", err)
	}
	if _, err := UnmarshalG1(c, small.Marshal()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("cofactor-order point: err = %v, want ErrProtocol", err)
	}
	if _, err := UnmarshalG1(c, []byte{0x02, 0x01}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("garbage encoding: err = %v, want ErrProtocol", err)
	}
}

// TestUnmarshalPairingArg pins the narrower decoder's contract against
// UnmarshalG1's, at toy and paper size: both refuse malformed encodings and
// the identity; a cofactor-order point, the 2-torsion point (0, 0) and
// U_q + T are refused by UnmarshalG1 and accepted only by the decoder whose
// result may be nothing but a pairing's evaluation point.
func TestUnmarshalPairingArg(t *testing.T) {
	for _, name := range []string{"toy", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pp.Curve()
		uq, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var tors *curve.Point
		for tors == nil || tors.IsInfinity() {
			r, err := c.RandomPoint(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			tors = r.ScalarMul(c.Q())
		}
		two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}

		for what, pt := range map[string]*curve.Point{"cofactor-order point": tors, "(0,0)": two, "U_q + T": uq.Add(tors)} {
			if _, err := UnmarshalG1(c, pt.Marshal()); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: UnmarshalG1(%s): err = %v, want ErrProtocol", name, what, err)
			}
			got, err := UnmarshalPairingArg(c, pt.Marshal())
			if err != nil || !curvetest.Open(t, c, got).Equal(pt) {
				t.Errorf("%s: UnmarshalPairingArg(%s) = %x, %v; want the point", name, what, got.Marshal(), err)
			}
		}
		if got, err := UnmarshalPairingArg(c, uq.Marshal()); err != nil || !curvetest.Open(t, c, got).Equal(uq) {
			t.Errorf("%s: UnmarshalPairingArg(G1 point) = %x, %v", name, got.Marshal(), err)
		}

		offCurve := uq.Marshal()
		for { // walk x until x³ + x is a non-residue
			offCurve[len(offCurve)-1]++
			if _, err := c.Unmarshal(offCurve); err != nil {
				break
			}
		}
		for what, enc := range map[string][]byte{
			"identity":    c.Infinity().Marshal(),
			"empty":       {},
			"short":       {0x02, 0x01},
			"off curve":   offCurve,
			"long":        append(uq.Marshal(), 0),
			"bad tag":     append([]byte{0x07}, uq.Marshal()[1:]...),
			"x out of Fp": append([]byte{0x02}, bytes.Repeat([]byte{0xff}, c.CoordinateSize())...),
		} {
			if _, err := UnmarshalPairingArg(c, enc); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: UnmarshalPairingArg(%s): err = %v, want ErrProtocol", name, what, err)
			}
			if _, err := UnmarshalG1(c, enc); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: UnmarshalG1(%s): err = %v, want ErrProtocol", name, what, err)
			}
		}
	}
}

func TestPackIntsRoundTrip(t *testing.T) {
	xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(1 << 40)}
	packed, err := PackInts(xs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnpackInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(xs) {
		t.Fatalf("got %d elements", len(back))
	}
	for i := range xs {
		if xs[i].Cmp(back[i]) != 0 {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// Oversized element.
	big1 := new(big.Int).Lsh(big.NewInt(1), 8*0x10000)
	if _, err := PackInts([]*big.Int{big1}); err == nil {
		t.Fatal("oversized element accepted")
	}
	// Truncations.
	if _, err := UnpackInts(packed[:1]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated header: %v", err)
	}
	if _, err := UnpackInts(packed[:len(packed)-1]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated body: %v", err)
	}
}

func TestQuickPackInts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	property := func(raw [][]byte) bool {
		xs := make([]*big.Int, 0, len(raw))
		for _, b := range raw {
			if len(b) > 2000 {
				b = b[:2000]
			}
			xs = append(xs, new(big.Int).SetBytes(b))
		}
		packed, err := PackInts(xs)
		if err != nil {
			return false
		}
		back, err := UnpackInts(packed)
		if err != nil || len(back) != len(xs) {
			return false
		}
		for i := range xs {
			if xs[i].Cmp(back[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalGT pins the GT decoder: members decode to themselves, and
// malformed or out-of-subgroup elements are ErrProtocol findings.
func TestUnmarshalGT(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	g, err := pp.Pair(pp.Generator(), pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	g7, err := g.Exp(big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []*pairing.GT{g, g7} {
		if got, err := UnmarshalGT(pp, member.Bytes()); err != nil || !got.Equal(member) {
			t.Fatalf("member %x: %v %v", member.Bytes(), got, err)
		}
	}
	outsider := pp.Field().NewElement(big.NewInt(2), big.NewInt(3)).Bytes()
	for name, raw := range map[string][]byte{"out-of-subgroup": outsider, "malformed": {0xFF}} {
		if got, err := UnmarshalGT(pp, raw); got != nil || !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s element: %v %v", name, got, err)
		}
	}
}

// TestUnmarshalGTEach: the batch decoder accepts what UnmarshalGT accepts and
// refuses, with UnmarshalGT's error, the first element in order that
// UnmarshalGT refuses — a non-member, a non-unitary element, −1 or a
// malformed encoding, in every position of a three-element share, and two
// non-members whose product is a member — at the
// toy size and at the paper size, where the three checks share the lanes.
func TestUnmarshalGTEach(t *testing.T) {
	for _, params := range []func() (*pairing.Params, error){pairing.Toy, pairing.Paper} {
		pp, err := params()
		if err != nil {
			t.Fatal(err)
		}
		g, err := pp.Pair(pp.Generator(), pp.Generator())
		if err != nil {
			t.Fatal(err)
		}
		members := [][]byte{g.Bytes(), g.Mul(g).Bytes(), pp.One().Bytes()}
		minus := pp.Field().One()
		minus.Neg(minus)
		bad := map[string][]byte{
			"non-unitary": pp.Field().NewElement(big.NewInt(2), big.NewInt(3)).Bytes(),
			"-1":          minus.Bytes(),
			"zero":        pp.Field().Zero().Bytes(),
			"malformed":   {0xFF},
		}
		gs := make([]*pairing.GT, 3)
		if err := UnmarshalGTEach(pp, gs, nil, members...); err != nil {
			t.Fatalf("members refused: %v", err)
		}
		for i, g := range gs {
			if !bytes.Equal(g.Bytes(), members[i]) {
				t.Fatalf("member %d decoded to another element", i)
			}
		}
		for name, raw := range bad {
			_, want := UnmarshalGT(pp, raw)
			for at := range members {
				data := append([][]byte(nil), members...)
				data[at] = raw
				if err := UnmarshalGTEach(pp, gs, nil, data...); err == nil || err.Error() != want.Error() {
					t.Fatalf("%s at %d: %v, want %v", name, at, err, want)
				}
			}
		}
		// Two non-members whose product is a member: a check on the
		// product would pass them.
		negG := g.Element()
		negG.Neg(negG)
		negG2 := g.Mul(g).Element()
		negG2.Neg(negG2)
		if err := UnmarshalGTEach(pp, gs, nil, negG.Bytes(), negG2.Bytes(), members[2]); err == nil {
			t.Fatal("−g and −g² were accepted: the elements were checked as their product")
		}
		_, outside := UnmarshalGT(pp, bad["-1"])
		if err := UnmarshalGTEach(pp, gs, nil, members[0], bad["-1"], bad["malformed"]); err == nil || err.Error() != outside.Error() {
			t.Fatalf("a non-member before a malformed element: %v, want %v", err, outside)
		}
		_, malformed := UnmarshalGT(pp, bad["malformed"])
		if err := UnmarshalGTEach(pp, gs, nil, members[0], bad["malformed"], bad["-1"]); err == nil || err.Error() != malformed.Error() {
			t.Fatalf("a malformed element before a non-member: %v, want %v", err, malformed)
		}
		// A share as a player sends it: G and W2 x-only, paired against U's
		// abscissa, W1 a GT element. Each resolves as UnmarshalGTX resolves
		// it alone, and the same bytes resolved with −U give the inverses.
		u, err := pp.Curve().RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		ux, err := pp.Curve().UnmarshalX(u.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		gx, err := pp.PairX(pp.Generator(), ux)
		if err != nil {
			t.Fatal(err)
		}
		share := [][]byte{gx.Bytes(), g.Bytes(), gx.Bytes()}
		for _, pt := range []*curve.Point{u, u.Neg()} {
			if err := UnmarshalGTEach(pp, gs, []curve.EvalArg{pt, nil, pt}, share...); err != nil {
				t.Fatalf("an x-only share refused: %v", err)
			}
			want, err := pp.Pair(pp.Generator(), pt)
			if err != nil {
				t.Fatal(err)
			}
			if alone, err := UnmarshalGTX(pp, share[0], pt); err != nil || !gs[0].Equal(alone) || !gs[2].Equal(want) || !gs[1].Equal(g) {
				t.Fatalf("x-only share resolved to other elements than one by one (%v)", err)
			}
		}
	}
}

// TestUnmarshalPairingArgsMatchOneByOne: decoding a round's points in one
// call gives each the point or the error UnmarshalPairingArg gives it alone,
// O and non-points beside valid points included, at the toy size and at the
// paper size, where the roots share one walk on the lane engine.
func TestUnmarshalPairingArgsMatchOneByOne(t *testing.T) {
	for _, params := range []func() (*pairing.Params, error){pairing.Toy, pairing.Paper} {
		pp, err := params()
		if err != nil {
			t.Fatal(err)
		}
		c := pp.Curve()
		var data [][]byte
		for range 5 {
			pt, err := c.RandomPoint(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, pt.Marshal())
		}
		offCurve := bytes.Clone(data[0])
		for {
			offCurve[len(offCurve)-1]++
			if _, err := c.Unmarshal(offCurve); errors.Is(err, curve.ErrNotOnCurve) {
				break
			}
		}
		data = append(data[:2], append([][]byte{c.Infinity().Marshal(), offCurve, {2}}, data[2:]...)...)
		vs, errs := make([]curve.EvalPoint, len(data)), make([]error, len(data))
		UnmarshalPairingArgs(c, vs, errs, data...)
		for i, d := range data {
			want, wantErr := UnmarshalPairingArg(c, d)
			if (errs[i] == nil) != (wantErr == nil) || (wantErr != nil && (errs[i].Error() != wantErr.Error() || !errors.Is(errs[i], ErrProtocol))) {
				t.Fatalf("%s: encoding %d: err = %v, alone %v", pp.Name(), i, errs[i], wantErr)
			}
			if !bytes.Equal(vs[i].Marshal(), want.Marshal()) {
				t.Fatalf("%s: encoding %d decodes to %x, alone to %x", pp.Name(), i, vs[i].Marshal(), want.Marshal())
			}
		}
	}
}
