package curve_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/curve"
)

// Toy parameters (shared with internal/pairing's "toy" fixed set):
// p is 96 bits, q is a 32-bit prime dividing p+1.
const (
	toyPHex = "c88410b59ac4fa20d9a0256b"
	toyQHex = "fd51d491"
)

func toyCurve(t testing.TB) *curve.Curve { return hexCurve(t, toyPHex, toyQHex) }

func TestNewValidation(t *testing.T) {
	p, _ := new(big.Int).SetString(toyPHex, 16)
	q, _ := new(big.Int).SetString(toyQHex, 16)

	if _, err := curve.New(big.NewInt(13), big.NewInt(7)); err == nil {
		t.Error("p ≡ 1 mod 4 must be rejected")
	}
	if _, err := curve.New(p, big.NewInt(12345)); err == nil {
		t.Error("q ∤ p+1 must be rejected")
	}
	bad := new(big.Int).Mul(q, big.NewInt(3)) // divides p+1? almost surely not, but composite anyway
	if _, err := curve.New(p, bad); err == nil {
		t.Error("composite q must be rejected")
	}
}

func TestGroupLaws(t *testing.T) {
	c := toyCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	Q, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	if !P.Add(c.Infinity()).Equal(P) {
		t.Error("P + O ≠ P")
	}
	if !c.Infinity().Add(P).Equal(P) {
		t.Error("O + P ≠ P")
	}
	if !P.Add(P.Neg()).IsInfinity() {
		t.Error("P + (−P) ≠ O")
	}
	if !P.Add(Q).Equal(Q.Add(P)) {
		t.Error("addition not commutative")
	}
	if !P.Add(P).Equal(P.Double()) {
		t.Error("P + P ≠ 2P")
	}
}

func TestAssociativity(t *testing.T) {
	c := toyCurve(t)
	for i := 0; i < 10; i++ {
		P, _ := c.RandomG1(rand.Reader)
		Q, _ := c.RandomG1(rand.Reader)
		R, _ := c.RandomG1(rand.Reader)
		l := P.Add(Q).Add(R)
		r := P.Add(Q.Add(R))
		if !l.Equal(r) {
			t.Fatalf("(P+Q)+R ≠ P+(Q+R) at iteration %d", i)
		}
	}
}

func TestScalarMul(t *testing.T) {
	c := toyCurve(t)
	P, _ := c.RandomG1(rand.Reader)

	if !P.ScalarMul(big.NewInt(0)).IsInfinity() {
		t.Error("0·P ≠ O")
	}
	if !P.ScalarMul(big.NewInt(1)).Equal(P) {
		t.Error("1·P ≠ P")
	}
	if !P.ScalarMul(big.NewInt(2)).Equal(P.Double()) {
		t.Error("2·P ≠ double(P)")
	}
	// 5P = 2(2P) + P
	want := P.Double().Double().Add(P)
	if !P.ScalarMul(big.NewInt(5)).Equal(want) {
		t.Error("5·P mismatch")
	}
	// (−3)·P = −(3·P)
	if !P.ScalarMul(big.NewInt(-3)).Equal(P.ScalarMul(big.NewInt(3)).Neg()) {
		t.Error("negative scalar mismatch")
	}
	// q·P = O for subgroup points
	if !P.ScalarMul(c.Q()).IsInfinity() {
		t.Error("q·P ≠ O for P ∈ G1")
	}
}

func TestScalarMulDistributes(t *testing.T) {
	c := toyCurve(t)
	P, _ := c.RandomG1(rand.Reader)
	cfg := &quick.Config{MaxCount: 25}
	property := func(a, b uint32) bool {
		ab := new(big.Int).Add(big.NewInt(int64(a)), big.NewInt(int64(b)))
		l := P.ScalarMul(ab)
		r := P.ScalarMul(big.NewInt(int64(a))).Add(P.ScalarMul(big.NewInt(int64(b))))
		return l.Equal(r)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInSubgroup(t *testing.T) {
	c := toyCurve(t)
	P, _ := c.RandomG1(rand.Reader)
	if !P.InSubgroup() {
		t.Error("RandomG1 point must be in subgroup")
	}
	if !c.Infinity().InSubgroup() {
		t.Error("O is in every subgroup")
	}
}

func TestNewPointValidates(t *testing.T) {
	c := toyCurve(t)
	if _, err := c.NewPoint(big.NewInt(1), big.NewInt(1)); !errors.Is(err, curve.ErrNotOnCurve) {
		t.Fatalf("bogus point accepted: %v", err)
	}
}

func TestHashToPoint(t *testing.T) {
	c := toyCurve(t)
	P, err := c.HashToPoint("test", []byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if P.IsInfinity() {
		t.Fatal("hash mapped to infinity")
	}
	if !P.InSubgroup() {
		t.Fatal("hashed point escapes G1")
	}
	// Determinism
	P2, err := c.HashToPoint("test", []byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !P.Equal(P2) {
		t.Fatal("hash-to-point not deterministic")
	}
	// Domain separation
	P3, err := c.HashToPoint("other", []byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if P.Equal(P3) {
		t.Fatal("different domains produced the same point")
	}
	// Input separation
	P4, err := c.HashToPoint("test", []byte("bob@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if P.Equal(P4) {
		t.Fatal("different identities produced the same point")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := toyCurve(t)
	for i := 0; i < 20; i++ {
		P, _ := c.RandomG1(rand.Reader)
		data := P.Marshal()
		if len(data) != 1+c.CoordinateSize() {
			t.Fatalf("compressed size %d, want %d", len(data), 1+c.CoordinateSize())
		}
		Q, err := c.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if !P.Equal(Q) {
			t.Fatalf("round trip failed: %v ≠ %v", P, Q)
		}
	}
}

func TestMarshalInfinity(t *testing.T) {
	c := toyCurve(t)
	data := c.Infinity().Marshal()
	P, err := c.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !P.IsInfinity() {
		t.Fatal("round-tripped infinity is not O")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	c := toyCurve(t)
	size := 1 + c.CoordinateSize()

	if _, err := c.Unmarshal([]byte{2, 3}); err == nil {
		t.Error("short encoding accepted")
	}
	bad := make([]byte, size)
	bad[0] = 9
	if _, err := c.Unmarshal(bad); err == nil {
		t.Error("unknown tag accepted")
	}
	// x ≥ p
	over := make([]byte, size)
	over[0] = 2
	for i := 1; i < size; i++ {
		over[i] = 0xff
	}
	if _, err := c.Unmarshal(over); err == nil {
		t.Error("out-of-range x accepted")
	}
	// valid-range x that is not on the curve: x where x³+x is a non-residue
	notOn := make([]byte, size)
	notOn[0] = 2
	x := big.NewInt(1)
	for {
		rhs := new(big.Int).Mul(x, x)
		rhs.Mul(rhs, x)
		rhs.Add(rhs, x)
		rhs.Mod(rhs, c.P())
		if big.Jacobi(rhs, c.P()) == -1 {
			break
		}
		x.Add(x, big.NewInt(1))
	}
	x.FillBytes(notOn[1:])
	if _, err := c.Unmarshal(notOn); !errors.Is(err, curve.ErrNotOnCurve) {
		t.Errorf("non-curve x accepted: %v", err)
	}
	// malformed infinity (nonzero payload)
	badInf := make([]byte, size)
	badInf[size-1] = 1
	if _, err := c.Unmarshal(badInf); err == nil {
		t.Error("malformed infinity accepted")
	}
}

func TestNegInfinity(t *testing.T) {
	c := toyCurve(t)
	if !c.Infinity().Neg().IsInfinity() {
		t.Fatal("−O ≠ O")
	}
}

func TestRandomPointOnCurve(t *testing.T) {
	c := toyCurve(t)
	P, err := c.RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if P.IsInfinity() {
		t.Fatal("random point is infinity")
	}
	if _, err := c.NewPoint(P.X(), P.Y()); err != nil {
		t.Fatal("random point not on curve")
	}
}

func TestCoordinateCopies(t *testing.T) {
	c := toyCurve(t)
	P, _ := c.RandomG1(rand.Reader)
	x := P.X()
	x.Add(x, big.NewInt(1))
	if x.Cmp(P.X()) == 0 {
		t.Fatal("X() leaked internal state")
	}
	var buf bytes.Buffer
	buf.Write(P.Marshal())
	Q, _ := c.Unmarshal(buf.Bytes())
	if !P.Equal(Q) {
		t.Fatal("marshal/unmarshal through buffer failed")
	}
}
