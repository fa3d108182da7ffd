package curve_test

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/mathx"
)

// oracleDecode is Unmarshal over big.Int, sharing nothing with the limb
// decoder: it returns the affine coordinates (nil, nil for O) an encoding
// denotes, or ok = false for every encoding Marshal does not write.
func oracleDecode(c *curve.Curve, enc []byte) (x, y *big.Int, ok bool) {
	if len(enc) != 1+c.CoordinateSize() {
		return nil, nil, false
	}
	p := c.P()
	x = new(big.Int).SetBytes(enc[1:])
	switch enc[0] {
	case 0:
		return nil, nil, x.Sign() == 0
	case 2, 3:
		if x.Cmp(p) >= 0 {
			return nil, nil, false
		}
		rhs := new(big.Int).Exp(x, big.NewInt(3), p)
		rhs.Add(rhs, x).Mod(rhs, p)
		y, err := mathx.SqrtModP(rhs, p)
		if err != nil {
			return nil, nil, false
		}
		if y.Bit(0) != uint(enc[0]-2) {
			if y.Sign() == 0 {
				return nil, nil, false // (0, 0) is written with tag 2 only
			}
			y.Sub(p, y)
		}
		return x, y, true
	}
	return nil, nil, false
}

// FuzzPointOps holds the limb Point's single-step operations — Unmarshal,
// Marshal, Add, Double, Neg, Equal — to the big.Int oracles of curvetest and
// oracleDecode, on every encoding the fuzzer finds: accepted or refused
// alike, bit for bit. Every point a doubling is handed must be on the curve
// or have Z = 0 (WatchDoublings).
func FuzzPointOps(f *testing.F) {
	c := toyCurve(f)
	p, size := c.P(), c.CoordinateSize()
	enc := func(tag byte, x *big.Int) []byte {
		out := make([]byte, 1+size)
		out[0] = tag
		x.FillBytes(out[1:])
		return out
	}
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	zero := big.NewInt(0)
	nonResidue := big.NewInt(1)
	for {
		if _, _, ok := oracleDecode(c, enc(2, nonResidue)); !ok {
			break
		}
		nonResidue.Add(nonResidue, big.NewInt(1))
	}
	f.Add(enc(0, zero), P.Marshal())                                            // O + P
	f.Add(enc(0, zero), enc(0, zero))                                           // O + O
	f.Add(enc(0, big.NewInt(1)), P.Marshal())                                   // malformed O
	f.Add(enc(2, zero), enc(2, zero))                                           // (0, 0) + (0, 0) = O
	f.Add(enc(3, zero), P.Marshal())                                            // (0, 0) under the tag Marshal never writes
	f.Add(P.Marshal(), P.Neg().Marshal())                                       // P + (−P)
	f.Add(P.Marshal(), P.Marshal())                                             // P + P
	f.Add(enc(2, p), P.Marshal())                                               // x = p
	f.Add(enc(3, new(big.Int).Lsh(big.NewInt(1), uint(8*size-1))), P.Marshal()) // x > p
	f.Add(enc(2, nonResidue), P.Marshal())                                      // x³ + x a non-residue
	f.Add(enc(4, zero), P.Marshal()[:size])                                     // unknown tag, short encoding
	for _, T := range curvetest.CofactorPoints(f, c) {
		f.Add(T.Marshal(), P.Marshal())
		f.Add(T.Marshal(), T.Marshal())
	}

	decode := func(t *testing.T, raw []byte) *curve.Point {
		x, y, ok := oracleDecode(c, raw)
		pt, err := c.Unmarshal(raw)
		if (err == nil) != ok {
			t.Fatalf("Unmarshal(%x): err = %v, the oracle accepts = %v", raw, err, ok)
		}
		if !ok {
			return nil
		}
		if x == nil {
			if !pt.IsInfinity() || pt.X() != nil || pt.Y() != nil {
				t.Fatalf("Unmarshal(%x) = %v, want O", raw, pt)
			}
		} else if pt.IsInfinity() || pt.X().Cmp(x) != 0 || pt.Y().Cmp(y) != 0 {
			t.Fatalf("Unmarshal(%x) = %v, the oracle decodes (%v, %v)", raw, pt, x, y)
		}
		if got := pt.Marshal(); !bytes.Equal(got, raw) {
			t.Fatalf("Unmarshal accepted %x, which re-marshals to %x", raw, got)
		}
		return pt
	}
	same := func(t *testing.T, op string, got, want *curve.Point) {
		if !bytes.Equal(got.Marshal(), want.Marshal()) || !got.Equal(want) {
			t.Fatalf("%s = %v, the oracle says %v", op, got, want)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		doublings := curve.WatchDoublings(t)
		A, B := decode(t, a), decode(t, b)
		if A == nil || B == nil {
			return
		}
		same(t, "A + B", A.Add(B), curvetest.Add(A, B))
		same(t, "B + A", B.Add(A), curvetest.Add(A, B))
		same(t, "2A", A.Double(), curvetest.Double(A))
		if !A.IsInfinity() && doublings() == 0 {
			t.Fatalf("2A for A = %v reached no doubling", A)
		}
		same(t, "A + A", A.Add(A), curvetest.Double(A))
		same(t, "−A", A.Neg(), curvetest.Neg(A))
		if !A.Add(A.Neg()).IsInfinity() {
			t.Fatalf("A + (−A) ≠ O for A = %v", A)
		}
		if A.Equal(B) != bytes.Equal(a, b) {
			t.Fatalf("Equal(%v, %v) = %v", A, B, A.Equal(B))
		}
	})
}

// TestNewRejectsCompositeP: the kernels' normalisations are total because a
// nonzero element is invertible, which is primality of p and nothing less.
// p = 3·r with p ≡ 3 (mod 4) and a prime q | p + 1 passes every other check.
func TestNewRejectsCompositeP(t *testing.T) {
	p := big.NewInt(3 * 13) // 39 ≡ 3 (mod 4), p + 1 = 40 = 5·8
	if _, err := curve.New(p, big.NewInt(5)); err == nil {
		t.Fatal("composite p = 3·13 accepted")
	}
	if _, err := curve.New(big.NewInt(19), big.NewInt(5)); err != nil {
		t.Fatalf("prime p = 19, q = 5: %v", err) // the same shape with p prime
	}
}

// The representation's allocation pins at paper size: a decoded point is its
// header and one slab; an addition adds the Jacobian scratch, and its
// inversion nothing. A big.Int coordinate coming back on either path, or an
// inverse that allocates, at least doubles the count.
func TestPointAllocs(t *testing.T) {
	c := paperCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	Q := P.Double()
	raw := P.Marshal()
	if n := testing.AllocsPerRun(50, func() {
		if _, err := c.Unmarshal(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Unmarshal allocates %.0f times per point, want 2 (header and slab)", n)
	}
	// An addition is the Jacobian scratch (3), the accumulator (3) and the
	// result (2); its inversion allocates nothing.
	if n := testing.AllocsPerRun(50, func() { P.Add(Q) }); n != 8 {
		t.Errorf("Add allocates %.0f times per call, want 8", n)
	}
}
