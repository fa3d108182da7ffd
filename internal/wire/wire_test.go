package wire

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/curve"
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
			if err != nil || !got.Equal(pt) {
				t.Errorf("%s: UnmarshalPairingArg(%s) = %v, %v; want the point", name, what, got, err)
			}
		}
		if got, err := UnmarshalPairingArg(c, uq.Marshal()); err != nil || !got.Equal(uq) {
			t.Errorf("%s: UnmarshalPairingArg(G1 point) = %v, %v", name, got, err)
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

// TestUnmarshalGTBatch pins the batched GT decoder: members decode, nil
// slots pass through untouched, and malformed or out-of-subgroup elements
// come back as per-item ErrProtocol findings.
func TestUnmarshalGTBatch(t *testing.T) {
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
	outsider := pp.Field().NewElement(big.NewInt(2), big.NewInt(3))

	raws := [][]byte{
		g.Bytes(),
		nil, // upstream failure slot: stays nil with no error
		g7.Bytes(),
		outsider.Bytes(),
		{0xFF}, // malformed encoding
	}
	gs, errs, err := UnmarshalGTBatch(pp, raws)
	if err != nil {
		t.Fatal(err)
	}
	if gs[0] == nil || !gs[0].Equal(g) || errs[0] != nil {
		t.Fatalf("member 0: %v %v", gs[0], errs[0])
	}
	if gs[1] != nil || errs[1] != nil {
		t.Fatalf("nil slot must pass through: %v %v", gs[1], errs[1])
	}
	if gs[2] == nil || !gs[2].Equal(g7) || errs[2] != nil {
		t.Fatalf("member 2: %v %v", gs[2], errs[2])
	}
	if gs[3] != nil || !errors.Is(errs[3], ErrProtocol) {
		t.Fatalf("out-of-subgroup element: %v %v", gs[3], errs[3])
	}
	if gs[4] != nil || !errors.Is(errs[4], ErrProtocol) {
		t.Fatalf("malformed element: %v %v", gs[4], errs[4])
	}

	// Agreement with the scalar decoder on both verdict classes.
	if _, err := UnmarshalGT(pp, g.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalGT(pp, outsider.Bytes()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("scalar decoder disagrees: %v", err)
	}
}
