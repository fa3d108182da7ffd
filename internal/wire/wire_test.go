package wire

import (
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
