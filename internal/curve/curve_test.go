package curve_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"slices"
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

// TestUnmarshalX: the x-only decoder accepts exactly what Unmarshal accepts
// less O and the 2-torsion point (0, 0), both sign tags alike, and keeps the
// point's x: over random points of E(F_p), random abscissae and the
// refusals one by one, a non-residue x³ + x among them.
func TestUnmarshalX(t *testing.T) {
	c := toyCurve(t)
	size := 1 + c.CoordinateSize()
	for i := 0; i < 50; i++ {
		P, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		data := P.Marshal()
		for _, tag := range []byte{2, 3} {
			data[0] = tag
			e, err := c.UnmarshalX(data)
			if err != nil {
				t.Fatalf("tag %d: %v", tag, err)
			}
			px, _ := P.Mont()
			if x, _ := e.XS(); !slices.Equal(x, px) || e.IsInfinity() {
				t.Fatalf("tag %d: x = %v, want the point's %v", tag, x, px)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, size)
		if _, err := rand.Read(data[1:]); err != nil {
			t.Fatal(err)
		}
		data[0] = byte(2 + i%2)
		if i%7 == 0 {
			data[1] = 0 // below p more often
		}
		pt, errFull := c.Unmarshal(data)
		_, errX := c.UnmarshalX(data)
		want := errFull == nil && pt.X().Sign() != 0
		if (errX == nil) != want {
			t.Fatalf("%x: UnmarshalX err = %v, Unmarshal err = %v", data, errX, errFull)
		}
	}

	refuse := func(name string, data []byte, want error) {
		t.Helper()
		e, err := c.UnmarshalX(data)
		if err == nil || !e.IsInfinity() || (want != nil && !errors.Is(err, want)) {
			t.Errorf("%s: UnmarshalX = %v, want a refusal (%v)", name, err, want)
		}
	}
	refuse("short", []byte{2, 3}, nil)
	refuse("O", c.Infinity().Marshal(), nil)
	for _, tag := range []byte{1, 4, 9} {
		bad := make([]byte, size)
		bad[0], bad[size-1] = tag, 1
		refuse("unknown tag", bad, nil)
	}
	over := make([]byte, size)
	over[0] = 2
	c.P().FillBytes(over[1:])
	refuse("x = p", over, nil)
	for _, tag := range []byte{2, 3} {
		zero := make([]byte, size)
		zero[0] = tag
		refuse("x = 0", zero, nil)
	}
	notOn := make([]byte, size)
	notOn[0] = 3
	x := big.NewInt(1)
	for {
		rhs := new(big.Int).Mul(x, x)
		rhs.Mul(rhs, x).Add(rhs, x).Mod(rhs, c.P())
		if big.Jacobi(rhs, c.P()) == -1 {
			break
		}
		x.Add(x, big.NewInt(1))
	}
	x.FillBytes(notOn[1:])
	refuse("non-residue x³ + x", notOn, curve.ErrNotOnCurve)
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

// TestUnmarshalEachMatchesUnmarshal: decoding many encodings in one call
// gives each the verdict, and the point, that Unmarshal gives it alone —
// whatever sits beside it in the batch (at paper size two or more share one
// walk of the square-root exponent on the lane engine, eight to a walk) —
// over random points under both tags, O, (0, 0) under either tag, non-square
// x³ + x, x ≥ p, wrong lengths, a malformed O and unknown tags, mixed at
// random in batches of 1 to 19, and a non-square in each position of a
// batch of 17 points; and it counts one square root per abscissa that
// reached one.
func TestUnmarshalEachMatchesUnmarshal(t *testing.T) {
	for name, c := range map[string]*curve.Curve{"toy": toyCurve(t), "paper": paperCurve(t)} {
		size := 1 + c.CoordinateSize()
		enc := func(tag byte, x *big.Int) []byte {
			b := make([]byte, size)
			b[0] = tag
			x.FillBytes(b[1:])
			return b
		}
		nonSquare := big.NewInt(1)
		for {
			s := new(big.Int).Exp(nonSquare, big.NewInt(3), c.P())
			if big.Jacobi(s.Add(s, nonSquare).Mod(s, c.P()), c.P()) == -1 {
				break
			}
			nonSquare.Add(nonSquare, big.NewInt(1))
		}
		var pool [][]byte
		for range 24 {
			P, err := c.RandomPoint(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			other := P.Marshal()
			other[0] ^= 1
			pool = append(pool, P.Marshal(), other)
		}
		malformedO := make([]byte, size)
		malformedO[size-1] = 1
		pool = append(pool,
			c.Infinity().Marshal(), malformedO,
			enc(2, new(big.Int)), enc(3, new(big.Int)),
			enc(2, nonSquare), enc(3, nonSquare),
			enc(2, c.P()), enc(3, new(big.Int).Sub(c.P(), big.NewInt(1))),
			enc(7, big.NewInt(5)), pool[0][:size-1], append(bytes.Clone(pool[0]), 0), nil)
		var batches [][][]byte
		for n := 1; n < 20; n++ {
			data := make([][]byte, n)
			for i := range data {
				data[i] = pool[mrand.Intn(len(pool))]
			}
			batches = append(batches, data)
		}
		// Every position of a batch that spans three walks holds the one
		// non-square in turn, among points.
		for k := range 17 {
			data := make([][]byte, 17)
			for i := range data {
				data[i] = pool[2*i]
			}
			data[k] = enc(2, nonSquare)
			batches = append(batches, data)
		}
		for _, data := range batches {
			n := len(data)
			roots := uint64(0)
			for _, d := range data {
				if len(d) == size && (d[0] == 2 || d[0] == 3) && new(big.Int).SetBytes(d[1:]).Cmp(c.P()) < 0 {
					roots++
				}
			}
			pts, errs := make([]*curve.Point, n), make([]error, n)
			before := curve.SquareRoots()
			c.UnmarshalEach(pts, errs, data...)
			if got := curve.SquareRoots() - before; got != roots {
				t.Errorf("%s: %d encodings counted %d square roots, want %d", name, n, got, roots)
			}
			for i, d := range data {
				want, wantErr := c.Unmarshal(d)
				if (errs[i] == nil) != (wantErr == nil) || (wantErr != nil && errs[i].Error() != wantErr.Error()) {
					t.Fatalf("%s: encoding %d of %d (%x): err = %v, Unmarshal alone: %v", name, i, n, d, errs[i], wantErr)
				}
				if wantErr == nil && !bytes.Equal(pts[i].Marshal(), want.Marshal()) {
					t.Fatalf("%s: encoding %d of %d (%x) decodes to %x, Unmarshal alone to %x", name, i, n, d, pts[i].Marshal(), want.Marshal())
				}
				if wantErr != nil && pts[i] != nil {
					t.Fatalf("%s: encoding %d of %d refused with a point beside the error", name, i, n)
				}
			}
		}
	}
}
