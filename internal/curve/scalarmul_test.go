package curve_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
)

// randScalarBits returns a uniform scalar of up to bits bits (occasionally
// negative to exercise that path).
func randScalarBits(t *testing.T, bits int, i int) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		t.Fatal(err)
	}
	if i%7 == 0 {
		k.Neg(k)
	}
	return k
}

// TestScalarMulDifferential asserts that the limb Jacobian/w-NAF ScalarMul and
// the affine double-and-add oracle produce bit-identical points on ~1000
// random (point, scalar) pairs, including scalars wider than q.
func TestScalarMulDifferential(t *testing.T) {
	c := toyCurve(t)
	points := make([]*curve.Point, 10)
	for i := range points {
		P, err := c.RandomPoint(rand.Reader) // full group, not just G1
		if err != nil {
			t.Fatal(err)
		}
		points[i] = P
	}
	for i := 0; i < 1000; i++ {
		P := points[i%len(points)]
		bits := 8 + i%120 // from tiny scalars past |q| = 32 up to > |p|
		k := randScalarBits(t, bits, i)
		fast := P.ScalarMul(k)
		slow := curvetest.ScalarMulBinary(P, k)
		if !fast.Equal(slow) {
			t.Fatalf("iter %d: wNAF %v ≠ ladder %v for k=%v", i, fast, slow, k)
		}
		if !fast.IsInfinity() {
			// Bit-identical serialization, not just group equality.
			if string(fast.Marshal()) != string(slow.Marshal()) {
				t.Fatalf("iter %d: encodings differ", i)
			}
		}
	}
}

// TestScalarMulEdgeCases pins the identities the w-NAF rewrite must keep.
func TestScalarMulEdgeCases(t *testing.T) {
	c := toyCurve(t)
	P, _ := c.RandomG1(rand.Reader)
	if !P.ScalarMul(big.NewInt(0)).IsInfinity() {
		t.Error("0·P ≠ O")
	}
	if !c.Infinity().ScalarMul(big.NewInt(5)).IsInfinity() {
		t.Error("5·O ≠ O")
	}
	if !P.ScalarMul(c.Q()).IsInfinity() {
		t.Error("q·P ≠ O for P ∈ G1")
	}
	if !P.ScalarMul(big.NewInt(-1)).Equal(P.Neg()) {
		t.Error("(−1)·P ≠ −P")
	}
	// The order-2 point (0, 0) is on y² = x³ + x; doubling chains through it
	// must collapse to O, not crash.
	two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if !two.ScalarMul(big.NewInt(2)).IsInfinity() {
		t.Error("2·(0,0) ≠ O")
	}
	if !two.ScalarMul(big.NewInt(7)).Equal(two) {
		t.Error("7·(0,0) ≠ (0,0)")
	}
}

// TestBatchToAffine checks the simultaneous-inversion normalization against
// the affine big.Int group law, including interleaved points at infinity.
func TestBatchToAffine(t *testing.T) {
	c := toyCurve(t)
	pts := make([]*curve.Point, 40)
	want := make([]*curve.Point, len(pts))
	for i := range pts {
		if i%5 == 3 {
			pts[i], want[i] = c.Infinity(), c.Infinity()
			continue
		}
		P, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pts[i], want[i] = P, curvetest.Add(curvetest.Double(P), P)
	}
	got, err := c.BatchTriple(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("batch normalization differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestValidateRejectsCofactorPoint feeds Unmarshal a point of cofactor
// order: it decodes (it is on the curve) but Validate must reject it, which
// is the subgroup check the untrusted-input boundaries rely on.
func TestValidateRejectsCofactorPoint(t *testing.T) {
	c := toyCurve(t)
	var small *curve.Point
	for {
		P, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// q·P lands in the cofactor-order component; retry until nonzero.
		small = P.ScalarMul(c.Q())
		if !small.IsInfinity() {
			break
		}
	}
	if small.InSubgroup() {
		t.Fatal("cofactor-order point claims G1 membership")
	}
	decoded, err := c.Unmarshal(small.Marshal())
	if err != nil {
		t.Fatalf("cofactor point must decode (it is on the curve): %v", err)
	}
	if err := decoded.Validate(); !errors.Is(err, curve.ErrNotInSubgroup) {
		t.Fatalf("Validate = %v, want curve.ErrNotInSubgroup", err)
	}
	if err := c.Infinity().Validate(); !errors.Is(err, curve.ErrNotInSubgroup) {
		t.Fatalf("Validate(O) = %v, want curve.ErrNotInSubgroup", err)
	}
	P, _ := c.RandomG1(rand.Reader)
	if err := P.Validate(); err != nil {
		t.Fatalf("Validate rejected a G1 point: %v", err)
	}
}

func BenchmarkScalarMulStrategies(b *testing.B) {
	p, _ := new(big.Int).SetString(toyPHex, 16)
	q, _ := new(big.Int).SetString(toyQHex, 16)
	c, err := curve.New(p, q)
	if err != nil {
		b.Fatal(err)
	}
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	comb, err := curve.NewSecretComb(P)
	if err != nil {
		b.Fatal(err)
	}
	k, _ := rand.Int(rand.Reader, c.Q())
	b.Run("wnaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			P.ScalarMul(k)
		}
	})
	b.Run("secret-comb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comb.ScalarMul(k)
		}
	})
	b.Run("binary-ladder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			curvetest.ScalarMulBinary(P, k)
		}
	})
}

// FuzzScalarMul is the differential fuzzer for the limb w-NAF ladder:
// arbitrary scalars (any width, either sign) times points of every shape the
// curve has — full-group, G1, cofactor-order, the 2-torsion point — must
// stay bit-identical to the affine double-and-add oracle, and the fixed-base
// comb must agree wherever it applies (a G1 base). Every point a doubling
// is handed on the way must be on the curve or have Z = 0 (WatchDoublings).
func FuzzScalarMul(f *testing.F) {
	f.Add([]byte("seed"), []byte{0x01}, false, uint8(0))
	f.Add([]byte("seed"), []byte{0xfd, 0x51, 0xd4, 0x91}, false, uint8(1)) // k = q
	f.Add([]byte("x"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, true, uint8(2))
	f.Add([]byte(""), []byte{0x07}, true, uint8(3))
	p, _ := new(big.Int).SetString(toyPHex, 16)
	q, _ := new(big.Int).SetString(toyQHex, 16)
	c, err := curve.New(p, q)
	if err != nil {
		f.Fatal(err)
	}
	two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed, scalar []byte, negative bool, kind uint8) {
		doublings := curve.WatchDoublings(t)
		if len(scalar) > 64 {
			scalar = scalar[:64]
		}
		k := new(big.Int).SetBytes(scalar)
		if negative {
			k.Neg(k)
		}
		base, err := c.HashToPointUncleared("fuzz", seed)
		if err != nil {
			t.Skip()
		}
		switch kind % 4 {
		case 1:
			base = curvetest.ScalarMulBinary(base, c.Cofactor()) // G1
		case 2:
			base = curvetest.ScalarMulBinary(base, q) // cofactor order
		case 3:
			base = two
		}
		got, want := base.ScalarMul(k), curvetest.ScalarMulBinary(base, k)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("kind=%d k=%v base=%v: w-NAF %v ≠ oracle %v", kind%4, k, base, got, want)
		}
		if kind%4 == 1 && !base.IsInfinity() {
			comb, err := curve.NewSecretComb(base)
			if err != nil {
				t.Fatal(err)
			}
			if comb := comb.ScalarMul(k); !bytes.Equal(comb.Marshal(), want.Marshal()) {
				t.Fatalf("k=%v base=%v: comb %v ≠ oracle %v", k, base, comb, want)
			}
			if doublings() == 0 {
				t.Fatalf("base=%v: the comb was built without a doubling", base)
			}
		}
	})
}

// TestScalarMulAllocs pins the paper-size ScalarMul to the limb layer: the
// big.Int Jacobian ladder it replaced allocated ~2 300 times per call (one
// or more per field operation), the limb ladder a few dozen (table, scratch,
// recoding, result). The bound fails the day a big.Int path comes back.
func TestScalarMulAllocs(t *testing.T) {
	c := paperCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	k := new(big.Int).Sub(c.Q(), big.NewInt(12345))
	if allocs := testing.AllocsPerRun(20, func() { P.ScalarMul(k) }); allocs >= 150 {
		t.Fatalf("paper-size ScalarMul allocates %.0f times per call, want < 150", allocs)
	}
}
