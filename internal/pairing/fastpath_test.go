package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/pairing/pairingtest"
)

// TestPairDifferentialRandom cross-checks the inversion-free Jacobian Miller
// loop against the affine PairFull oracle on a larger random sample than the
// basic agreement test, asserting bit-identical serialization (not just
// group equality) so encoding-level regressions cannot hide.
func TestPairDifferentialRandom(t *testing.T) {
	pp := toyParams(t)
	gen := pp.Generator()
	q := pp.Q()
	for i := 0; i < 100; i++ {
		a, _ := rand.Int(rand.Reader, q)
		b, _ := rand.Int(rand.Reader, q)
		P := gen.ScalarMul(a)
		Qpt := gen.ScalarMul(b)
		if i%3 == 0 {
			// Mix in hashed points: the schemes pair against H1(id) outputs.
			h, err := pp.Curve().HashToPoint("diff-test", []byte(fmt.Sprintf("id-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			Qpt = h
		}
		fast := mustPair(t, pp, P, Qpt)
		full, err := pairFull(pp, P, Qpt)
		if err != nil {
			t.Fatal(err)
		}
		if string(fast.Bytes()) != string(full.Bytes()) {
			t.Fatalf("iter %d: Jacobian and affine Miller loops differ bitwise", i)
		}
	}
}

// TestSlopeDegenerateErrors is the regression test for the unchecked
// ModInverse returns: a zero slope denominator must surface ErrBadSlope, not
// a nil-pointer panic in a later multiplication.
func TestSlopeDegenerateErrors(t *testing.T) {
	pp := toyParams(t)
	p := pp.P()
	// (0, 0) lies on y² = x³ + x; its tangent denominator 2y is zero.
	two, err := pp.Curve().NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pairingtest.TangentSlope(two, p); !errors.Is(err, pairingtest.ErrBadSlope) {
		t.Fatalf("tangentSlope at order-2 point: err = %v, want ErrBadSlope", err)
	}
	// A chord between two points with equal x has a zero denominator.
	P := pp.Generator()
	if _, err := pairingtest.ChordSlope(P, P, p); !errors.Is(err, pairingtest.ErrBadSlope) {
		t.Fatalf("chordSlope with equal x: err = %v, want ErrBadSlope", err)
	}
	if _, err := pairingtest.ChordSlope(P, P.Neg(), p); !errors.Is(err, pairingtest.ErrBadSlope) {
		t.Fatalf("chordSlope at vertical line: err = %v, want ErrBadSlope", err)
	}
	// Valid inputs still work.
	if _, err := pairingtest.TangentSlope(P, p); err != nil {
		t.Fatalf("tangentSlope at generator: %v", err)
	}
	Q := P.Double()
	if _, err := pairingtest.ChordSlope(P, Q, p); err != nil {
		t.Fatalf("chordSlope generator→2·generator: %v", err)
	}
}

// TestGeneratorMul checks the lazily-built comb of the generator against the
// generic multiplication, including the concurrent first build and scalars
// the comb's edge must reduce first: negative ones and ones above q.
func TestGeneratorMul(t *testing.T) {
	pp := toyParams(t)
	gen := pp.Generator()
	q := pp.Q()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			k := big.NewInt(seed)
			pp.GeneratorMul(k) // races the sync.Once comb build
		}(int64(w + 1))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	for i := 0; i < 50; i++ {
		k, _ := rand.Int(rand.Reader, q)
		if i%6 == 0 {
			k.Neg(k)
		}
		if i%7 == 0 {
			k.Add(k, new(big.Int).Lsh(q, uint(i%3)))
		}
		fast := pp.GeneratorMul(k)
		slow := gen.ScalarMul(k)
		if !fast.Equal(slow) {
			t.Fatalf("iter %d: GeneratorMul differs for k=%v", i, k)
		}
		if !fast.IsInfinity() && string(fast.Marshal()) != string(slow.Marshal()) {
			t.Fatalf("iter %d: encodings differ", i)
		}
	}
	if !pp.GeneratorMul(big.NewInt(0)).IsInfinity() {
		t.Error("0·P ≠ O via GeneratorMul")
	}
}

// TestGeneratorMulRunsOnComb: the public ladder GeneratorMul falls back to
// gives the same bytes, so no output comparison notices a generator whose
// comb failed to build. Every fixed parameter set must have one.
func TestGeneratorMulRunsOnComb(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pp.GeneratorMul(big.NewInt(1))
		if pp.genComb == nil {
			t.Errorf("%s: GeneratorMul is not on the generator's constant-time comb", name)
		}
	}
}
