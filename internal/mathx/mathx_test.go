package mathx

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSqrtModPFastPath(t *testing.T) {
	// p ≡ 3 (mod 4)
	p := big.NewInt(1000003)
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 3 {
		t.Fatalf("test prime is not 3 mod 4")
	}
	for i := int64(1); i < 200; i++ {
		a := big.NewInt(i * i % 1000003)
		r, err := SqrtModP(a, p)
		if err != nil {
			t.Fatalf("SqrtModP(%d): %v", i*i, err)
		}
		got := new(big.Int).Mul(r, r)
		got.Mod(got, p)
		if got.Cmp(a) != 0 {
			t.Fatalf("sqrt(%v)² = %v, want %v", a, got, a)
		}
	}
}

func TestSqrtModPNonResidue(t *testing.T) {
	p := big.NewInt(23) // 23 ≡ 3 mod 4
	// 5 is a non-residue mod 23 (residues: 1,2,3,4,6,8,9,12,13,16,18)
	if _, err := SqrtModP(big.NewInt(5), p); !errors.Is(err, ErrNoSquareRoot) {
		t.Fatalf("want ErrNoSquareRoot, got %v", err)
	}
}

func TestSqrtModPZero(t *testing.T) {
	r, err := SqrtModP(big.NewInt(0), big.NewInt(23))
	if err != nil || r.Sign() != 0 {
		t.Fatalf("sqrt(0) = %v, %v; want 0, nil", r, err)
	}
}

func TestSqrtModPTonelliFallback(t *testing.T) {
	// p ≡ 1 (mod 4) exercises the ModSqrt fallback.
	p := big.NewInt(1000033)
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 1 {
		t.Fatalf("test prime is not 1 mod 4")
	}
	a := big.NewInt(4)
	r, err := SqrtModP(a, p)
	if err != nil {
		t.Fatal(err)
	}
	got := new(big.Int).Mul(r, r)
	got.Mod(got, p)
	if got.Cmp(a) != 0 {
		t.Fatalf("sqrt(4)² = %v mod %v", got, p)
	}
}

func TestIsQuadraticResidue(t *testing.T) {
	p := big.NewInt(23)
	if !IsQuadraticResidue(big.NewInt(4), p) {
		t.Error("4 should be a residue mod 23")
	}
	if IsQuadraticResidue(big.NewInt(5), p) {
		t.Error("5 should be a non-residue mod 23")
	}
	if !IsQuadraticResidue(big.NewInt(0), p) {
		t.Error("0 counts as a residue")
	}
	if !IsQuadraticResidue(big.NewInt(23+4), p) {
		t.Error("residue test must reduce its operand")
	}
}

func TestInverseMod(t *testing.T) {
	m := big.NewInt(101)
	for i := int64(1); i < 101; i++ {
		inv, err := InverseMod(big.NewInt(i), m)
		if err != nil {
			t.Fatalf("inverse of %d: %v", i, err)
		}
		prod := new(big.Int).Mul(inv, big.NewInt(i))
		prod.Mod(prod, m)
		if prod.Int64() != 1 {
			t.Fatalf("%d · %v ≠ 1 mod 101", i, inv)
		}
	}
	if _, err := InverseMod(big.NewInt(0), m); !errors.Is(err, ErrNotInvertible) {
		t.Fatalf("inverse of 0 should fail, got %v", err)
	}
	if _, err := InverseMod(big.NewInt(4), big.NewInt(12)); !errors.Is(err, ErrNotInvertible) {
		t.Fatalf("inverse of 4 mod 12 should fail, got %v", err)
	}
}

func TestRandomInRange(t *testing.T) {
	min := big.NewInt(10)
	max := big.NewInt(20)
	for i := 0; i < 100; i++ {
		r, err := RandomInRange(rand.Reader, min, max)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cmp(min) < 0 || r.Cmp(max) >= 0 {
			t.Fatalf("value %v outside [10, 20)", r)
		}
	}
	if _, err := RandomInRange(rand.Reader, max, min); err == nil {
		t.Fatal("empty range must error")
	}
	if _, err := RandomInRange(rand.Reader, min, min); err == nil {
		t.Fatal("zero-width range must error")
	}
}

func TestRandomFieldElementNonzero(t *testing.T) {
	q := big.NewInt(7)
	for i := 0; i < 200; i++ {
		r, err := RandomFieldElement(rand.Reader, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sign() == 0 || r.Cmp(q) >= 0 {
			t.Fatalf("field element %v outside [1, 7)", r)
		}
	}
}

func TestRandomPrime(t *testing.T) {
	p, err := RandomPrime(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != 64 || !p.ProbablyPrime(20) {
		t.Fatalf("bad prime %v (bits=%d)", p, p.BitLen())
	}
	if _, err := RandomPrime(rand.Reader, 1); err == nil {
		t.Fatal("1-bit prime must be rejected")
	}
}

func TestRandomSafePrime(t *testing.T) {
	p, err := RandomSafePrime(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSafePrime(p) {
		t.Fatalf("%v is not a safe prime", p)
	}
	if p.BitLen() != 64 {
		t.Fatalf("safe prime has %d bits, want 64", p.BitLen())
	}
}

func TestIsSafePrime(t *testing.T) {
	if !IsSafePrime(big.NewInt(23)) { // 23 = 2·11 + 1
		t.Error("23 is a safe prime")
	}
	if IsSafePrime(big.NewInt(17)) { // (17−1)/2 = 8 composite
		t.Error("17 is not a safe prime")
	}
	if IsSafePrime(big.NewInt(15)) {
		t.Error("15 is not prime at all")
	}
}

func TestLagrange0Reconstruction(t *testing.T) {
	q := big.NewInt(2147483647) // Mersenne prime
	// f(x) = 42 + 7x + 3x² ; shares at x = 1, 2, 3 must reconstruct f(0) = 42.
	f := func(x int64) *big.Int {
		v := big.NewInt(42 + 7*x + 3*x*x)
		return v.Mod(v, q)
	}
	xs := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	sum := new(big.Int)
	for i, x := range xs {
		li, err := Lagrange0(i, xs, q)
		if err != nil {
			t.Fatal(err)
		}
		term := new(big.Int).Mul(li, f(x.Int64()))
		sum.Add(sum, term)
		sum.Mod(sum, q)
	}
	if sum.Int64() != 42 {
		t.Fatalf("reconstructed %v, want 42", sum)
	}
}

func TestLagrangeAtRecoversMissingShare(t *testing.T) {
	q := big.NewInt(2147483647)
	f := func(x int64) *big.Int {
		v := big.NewInt(42 + 7*x + 3*x*x)
		return v.Mod(v, q)
	}
	// Interpolate f(5) from shares at 1, 2, 3 (degree-2 polynomial).
	xs := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	at := big.NewInt(5)
	sum := new(big.Int)
	for i, x := range xs {
		li, err := LagrangeAt(i, xs, at, q)
		if err != nil {
			t.Fatal(err)
		}
		term := new(big.Int).Mul(li, f(x.Int64()))
		sum.Add(sum, term)
		sum.Mod(sum, q)
	}
	if sum.Cmp(f(5)) != 0 {
		t.Fatalf("interpolated f(5) = %v, want %v", sum, f(5))
	}
}

func TestLagrangeIndexOutOfRange(t *testing.T) {
	xs := []*big.Int{big.NewInt(1)}
	if _, err := Lagrange0(1, xs, big.NewInt(7)); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if _, err := Lagrange0(-1, xs, big.NewInt(7)); err == nil {
		t.Fatal("negative index must error")
	}
}

func TestLagrangeDuplicatePoints(t *testing.T) {
	xs := []*big.Int{big.NewInt(1), big.NewInt(1)}
	if _, err := Lagrange0(0, xs, big.NewInt(7)); err == nil {
		t.Fatal("duplicate evaluation points must error (zero denominator)")
	}
}

func TestPadBytes(t *testing.T) {
	b, err := PadBytes(big.NewInt(0x1234), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0x12, 0x34}
	if string(b) != string(want) {
		t.Fatalf("got % x want % x", b, want)
	}
	if _, err := PadBytes(big.NewInt(0x123456), 2); err == nil {
		t.Fatal("overflow must error")
	}
}

func TestBytesToIntMod(t *testing.T) {
	m := big.NewInt(100)
	x := BytesToIntMod([]byte{0x01, 0x00}, m) // 256 mod 100 = 56
	if x.Int64() != 56 {
		t.Fatalf("got %v want 56", x)
	}
}

// Property: Lagrange-interpolating any random degree-(t−1) polynomial at 0
// from t random distinct points returns its constant term.
func TestQuickLagrangeInterpolation(t *testing.T) {
	q := big.NewInt(1000003)
	cfg := &quick.Config{MaxCount: 50}
	property := func(seed int64) bool {
		rng := newDetRand(seed)
		tt := 2 + int(rng.next()%4) // threshold 2..5
		coeffs := make([]*big.Int, tt)
		for i := range coeffs {
			coeffs[i] = big.NewInt(int64(rng.next() % 1000003))
		}
		eval := func(x int64) *big.Int {
			acc := new(big.Int)
			xb := big.NewInt(x)
			pow := big.NewInt(1)
			for _, cf := range coeffs {
				term := new(big.Int).Mul(cf, pow)
				acc.Add(acc, term)
				pow = new(big.Int).Mul(pow, xb)
				pow.Mod(pow, q)
			}
			return acc.Mod(acc, q)
		}
		xs := make([]*big.Int, tt)
		for i := range xs {
			xs[i] = big.NewInt(int64(i + 1 + int(rng.next()%3)*10)) // distinct
		}
		// ensure distinctness
		seen := map[string]bool{}
		for i, x := range xs {
			for seen[x.String()] {
				x = new(big.Int).Add(x, big.NewInt(int64(i+100)))
				xs[i] = x
			}
			seen[x.String()] = true
		}
		sum := new(big.Int)
		for i, x := range xs {
			li, err := Lagrange0(i, xs, q)
			if err != nil {
				return false
			}
			term := new(big.Int).Mul(li, eval(x.Int64()))
			sum.Add(sum, term)
			sum.Mod(sum, q)
		}
		return sum.Cmp(coeffs[0]) == 0
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// newDetRand is a tiny deterministic generator for property tests that need
// reproducible sub-randomness from a quick-provided seed.
type detRand struct{ state uint64 }

func newDetRand(seed int64) *detRand { return &detRand{state: uint64(seed)*2654435761 + 1} }

func (d *detRand) next() uint64 {
	d.state ^= d.state << 13
	d.state ^= d.state >> 7
	d.state ^= d.state << 17
	return d.state
}

// TestWNAF checks the three properties the ladders lean on, at every width
// they use: the digits reconstruct k, every nonzero digit is odd and below
// 2^(w−1) in magnitude, and any w consecutive positions hold at most one.
func TestWNAF(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	limit := new(big.Int).Lsh(big.NewInt(1), 200)
	for _, w := range []uint{2, 4, 5} {
		for iter := 0; iter < 200; iter++ {
			k := new(big.Int).Rand(rng, limit)
			k.Rsh(k, uint(rng.Intn(200))) // every size down to a few bits
			k.Add(k, big.NewInt(1))
			digits := WNAF(k, w)
			sum := new(big.Int)
			last := -int(w)
			for i := len(digits) - 1; i >= 0; i-- {
				sum.Lsh(sum, 1)
				sum.Add(sum, big.NewInt(int64(digits[i])))
			}
			for i, d := range digits {
				if d == 0 {
					continue
				}
				if d%2 == 0 || int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) {
					t.Fatalf("w=%d k=%v: digit %d at %d out of range", w, k, d, i)
				}
				if i-last < int(w) {
					t.Fatalf("w=%d k=%v: nonzero digits at %d and %d", w, k, last, i)
				}
				last = i
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("w=%d: digits of %v sum to %v", w, k, sum)
			}
		}
	}
	if got := WNAF(new(big.Int), 4); len(got) != 0 {
		t.Fatalf("WNAF(0) = %v, want no digits", got)
	}
}

func TestMulMod(t *testing.T) {
	m := big.NewInt(97)
	x, y := big.NewInt(95), big.NewInt(96)
	if got := MulMod(x, y, m); got.Int64() != 95*96%97 {
		t.Fatalf("MulMod(95, 96, 97) = %v", got)
	}
	if x.Int64() != 95 || y.Int64() != 96 {
		t.Fatal("MulMod modified an operand")
	}
	if got := MulMod(big.NewInt(-3), big.NewInt(5), m); got.Int64() != 82 {
		t.Fatalf("MulMod(-3, 5, 97) = %v, want the residue in [0, m)", got)
	}
}

func TestSplitExponent(t *testing.T) {
	// n = 11·23, φ(n) = 220; any d works for the split's arithmetic.
	n, phi, d := big.NewInt(253), big.NewInt(220), big.NewInt(147)
	for _, rng := range []io.Reader{nil, rand.Reader} { // nil means crypto/rand
		for i := 0; i < 50; i++ {
			user, sem, err := SplitExponent(rng, n, d, phi)
			if err != nil {
				t.Fatal(err)
			}
			if user.Half.Sign() <= 0 || user.Half.Cmp(n) >= 0 {
				t.Fatalf("d_user = %v outside [1, n)", user.Half)
			}
			sum := new(big.Int).Add(user.Half, sem.Half)
			if sum.Sub(sum, d).Mod(sum, phi).Sign() != 0 {
				t.Fatalf("d_user + d_sem = %v + %v ≢ d (mod φ)", user.Half, sem.Half)
			}
			if user.N == n || sem.N == n || user.N == sem.N || user.N.Cmp(n) != 0 || sem.N.Cmp(n) != 0 {
				t.Fatal("halves must carry their own copies of n")
			}
			// The half-results multiply to x^d for a unit x.
			x := big.NewInt(int64(2 + i))
			got := MulMod(user.Op(x), sem.Op(x), n)
			if want := new(big.Int).Exp(x, d, n); got.Cmp(want) != 0 {
				t.Fatalf("x^d_user·x^d_sem = %v, want x^d = %v", got, want)
			}
		}
	}
}
