package shamir

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/curve"
)

// Toy curve parameters shared with internal/pairing's "toy" set.
const (
	toyPHex = "c88410b59ac4fa20d9a0256b"
	toyQHex = "fd51d491"
)

func toyGroup(t *testing.T) (*curve.Curve, *big.Int) {
	t.Helper()
	p, _ := new(big.Int).SetString(toyPHex, 16)
	q, _ := new(big.Int).SetString(toyQHex, 16)
	c, err := curve.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return c, q
}

func TestReconstruct(t *testing.T) {
	q := big.NewInt(2147483647)
	secret := big.NewInt(123456789)
	poly, err := NewPolynomial(rand.Reader, secret, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := poly.IssueShares(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares[:3], 3, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
	// any other subset works too
	got2, err := Reconstruct([]Share{shares[4], shares[1], shares[3]}, 3, q)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Cmp(secret) != 0 {
		t.Fatalf("subset reconstruction got %v", got2)
	}
}

func TestFewerThanThresholdRevealsNothingDeterministic(t *testing.T) {
	// With t−1 shares, every candidate secret is equally consistent; we check
	// the weaker executable property that reconstruction from t−1 shares is
	// rejected and that two different polynomials with the same t−1 shares
	// exist (constructed explicitly).
	q := big.NewInt(101)
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(42), q, 2)
	shares, _ := poly.IssueShares(3)
	if _, err := Reconstruct(shares[:1], 2, q); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
}

func TestDuplicateSharesRejected(t *testing.T) {
	q := big.NewInt(101)
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(7), q, 2)
	shares, _ := poly.IssueShares(2)
	dup := []Share{shares[0], shares[0]}
	if _, err := Reconstruct(dup, 2, q); !errors.Is(err, ErrDuplicateShare) {
		t.Fatalf("want ErrDuplicateShare, got %v", err)
	}
}

func TestInvalidThreshold(t *testing.T) {
	q := big.NewInt(101)
	if _, err := NewPolynomial(rand.Reader, big.NewInt(1), q, 0); !errors.Is(err, ErrThreshold) {
		t.Fatalf("t=0 accepted: %v", err)
	}
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(1), q, 3)
	if _, err := poly.IssueShares(2); !errors.Is(err, ErrThreshold) {
		t.Fatalf("n<t accepted: %v", err)
	}
}

func TestEvalHorner(t *testing.T) {
	q := big.NewInt(101)
	// f(x) = 5 + 2x + 3x² via explicit coefficients
	poly := &Polynomial{q: q, coeffs: []*big.Int{big.NewInt(5), big.NewInt(2), big.NewInt(3)}}
	// f(4) = 5 + 8 + 48 = 61
	if got := poly.Eval(big.NewInt(4)); got.Int64() != 61 {
		t.Fatalf("f(4) = %v, want 61", got)
	}
	if poly.Threshold() != 3 {
		t.Fatalf("threshold = %d, want 3", poly.Threshold())
	}
	if poly.Secret().Int64() != 5 {
		t.Fatalf("secret = %v, want 5", poly.Secret())
	}
}

func TestInterpolateAtRecoversShare(t *testing.T) {
	q := big.NewInt(2147483647)
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(31337), q, 3)
	shares, _ := poly.IssueShares(5)
	// Recover share 5 from shares 1..3.
	got, err := InterpolateAt(shares[:3], 3, big.NewInt(5), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(shares[4].Value) != 0 {
		t.Fatalf("recovered share %v, want %v", got, shares[4].Value)
	}
}

func TestVerificationVector(t *testing.T) {
	cv, q := toyGroup(t)
	base, err := cv.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := curve.NewSecretComb(base)
	if err != nil {
		t.Fatal(err)
	}
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(987654), q, 3)
	vec, commit := poly.VerificationVector(comb.ScalarMul, 5)
	for i, v := range vec {
		if want := base.ScalarMul(poly.Eval(big.NewInt(int64(i + 1)))); !v.Equal(want) {
			t.Fatalf("entry %d is not f(%d)·base", i+1, i+1)
		}
	}

	if err := VerifyVector(vec, commit, []int{1, 2, 3}, q); err != nil {
		t.Fatalf("subset {1,2,3}: %v", err)
	}
	if err := VerifyVector(vec, commit, []int{2, 4, 5}, q); err != nil {
		t.Fatalf("subset {2,4,5}: %v", err)
	}
	// Corrupt one entry: subsets containing it must fail.
	vecBad := append([]*curve.Point(nil), vec...)
	vecBad[1] = vecBad[1].Add(base)
	if err := VerifyVector(vecBad, commit, []int{1, 2, 3}, q); err == nil {
		t.Fatal("corrupted vector passed verification")
	}
	// Out-of-range subset index
	if err := VerifyVector(vec, commit, []int{0, 1, 2}, q); err == nil {
		t.Fatal("subset index 0 accepted")
	}
	if err := VerifyVector(vec, commit, []int{1, 2, 9}, q); err == nil {
		t.Fatal("subset index beyond n accepted")
	}
}

func TestReconstructPoint(t *testing.T) {
	cv, q := toyGroup(t)
	Q, err := cv.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	secret := big.NewInt(777)
	poly, _ := NewPolynomial(rand.Reader, secret, q, 3)
	shares, _ := poly.IssueShares(5)
	ptShares := make([]PointShare, len(shares))
	for i, s := range shares {
		ptShares[i] = PointShare{Index: s.Index, Value: Q.ScalarMul(s.Value)}
	}
	got, err := ReconstructPoint(ptShares[1:4], 3, q)
	if err != nil {
		t.Fatal(err)
	}
	want := Q.ScalarMul(secret)
	if !got.Equal(want) {
		t.Fatal("point reconstruction mismatch")
	}
	// Recover player 2's point share from {1, 3, 4}.
	rec, err := InterpolatePointAt([]PointShare{ptShares[0], ptShares[2], ptShares[3]}, 3, big.NewInt(2), q)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(ptShares[1].Value) {
		t.Fatal("point-share recovery mismatch")
	}
}

func TestReconstructPointErrors(t *testing.T) {
	cv, q := toyGroup(t)
	Q, _ := cv.RandomG1(rand.Reader)
	shares := []PointShare{{Index: 1, Value: Q}, {Index: 1, Value: Q}}
	if _, err := ReconstructPoint(shares, 2, q); !errors.Is(err, ErrDuplicateShare) {
		t.Fatalf("want ErrDuplicateShare, got %v", err)
	}
	if _, err := ReconstructPoint(shares[:1], 2, q); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
}

func TestQuickReconstruction(t *testing.T) {
	q := big.NewInt(1000003)
	cfg := &quick.Config{MaxCount: 40}
	property := func(secretRaw uint32, tRaw, extraRaw uint8) bool {
		tt := 1 + int(tRaw%5)     // 1..5
		n := tt + int(extraRaw%4) // t..t+3
		secret := big.NewInt(int64(secretRaw) % 1000003)
		poly, err := NewPolynomial(rand.Reader, secret, q, tt)
		if err != nil {
			return false
		}
		shares, err := poly.IssueShares(n)
		if err != nil {
			return false
		}
		// reconstruct from the *last* t shares to vary subsets
		got, err := Reconstruct(shares[n-tt:], tt, q)
		if err != nil {
			return false
		}
		return got.Cmp(secret) == 0
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
