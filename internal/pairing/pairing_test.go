package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func toyParams(t *testing.T) *Params {
	t.Helper()
	pp, err := Toy()
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestFixedSetsLoad(t *testing.T) {
	digests := map[[32]byte]string{}
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
		if other, ok := digests[pp.Digest()]; ok {
			t.Errorf("sets %q and %q have one digest", other, name)
		}
		digests[pp.Digest()] = name
		if pp.Name() != name {
			t.Errorf("set %q reports name %q", name, pp.Name())
		}
		if !pp.Generator().InSubgroup() {
			t.Errorf("set %q generator not in subgroup", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown set name accepted")
	}
}

func TestFixedSetSizes(t *testing.T) {
	fast, _ := Fast()
	paper, _ := Paper()
	if got := fast.Q().BitLen(); got != 128 {
		t.Errorf("fast |q| = %d, want 128", got)
	}
	if got := paper.Q().BitLen(); got != 160 {
		t.Errorf("paper |q| = %d, want 160", got)
	}
	if got := paper.P().BitLen(); got != 512 {
		t.Errorf("paper |p| = %d, want 512", got)
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	pp := toyParams(t)
	P := pp.Generator()
	g := mustPair(t, pp, P, P)
	if g.IsOne() {
		t.Fatal("ê(P, P) = 1: pairing degenerate")
	}
	if !pp.InGT(g) {
		t.Fatal("pairing value escapes order-q subgroup")
	}
}

func TestPairingWithInfinity(t *testing.T) {
	pp := toyParams(t)
	P := pp.Generator()
	O := pp.Curve().Infinity()
	if !mustPair(t, pp, P, O).IsOne() {
		t.Error("ê(P, O) ≠ 1")
	}
	if !mustPair(t, pp, O, P).IsOne() {
		t.Error("ê(O, P) ≠ 1")
	}
}

func TestBilinearity(t *testing.T) {
	pp := toyParams(t)
	P := pp.Generator()
	q := pp.Q()
	for i := 0; i < 8; i++ {
		a, _ := rand.Int(rand.Reader, q)
		b, _ := rand.Int(rand.Reader, q)
		lhs := mustPair(t, pp, P.ScalarMul(a), P.ScalarMul(b))
		rhs := mustExp(t, mustPair(t, pp, P, P), new(big.Int).Mul(a, b))
		if !lhs.Equal(rhs) {
			t.Fatalf("ê(aP, bP) ≠ ê(P,P)^(ab) for a=%v b=%v", a, b)
		}
		// one-sided linearity
		l2 := mustPair(t, pp, P.ScalarMul(a), P)
		r2 := mustPair(t, pp, P, P.ScalarMul(a))
		if !l2.Equal(r2) {
			t.Fatalf("ê(aP, P) ≠ ê(P, aP) for a=%v", a)
		}
	}
}

func TestPairingOfSum(t *testing.T) {
	// ê(P + Q, R) = ê(P, R)·ê(Q, R)
	pp := toyParams(t)
	gen := pp.Generator()
	q := pp.Q()
	for i := 0; i < 5; i++ {
		a, _ := rand.Int(rand.Reader, q)
		b, _ := rand.Int(rand.Reader, q)
		c, _ := rand.Int(rand.Reader, q)
		P := gen.ScalarMul(a)
		Q := gen.ScalarMul(b)
		R := gen.ScalarMul(c)
		lhs := mustPair(t, pp, P.Add(Q), R)
		rhs := mustPair(t, pp, P, R).Mul(mustPair(t, pp, Q, R))
		if !lhs.Equal(rhs) {
			t.Fatalf("additivity in first slot fails (iter %d)", i)
		}
		lhs2 := mustPair(t, pp, R, P.Add(Q))
		rhs2 := mustPair(t, pp, R, P).Mul(mustPair(t, pp, R, Q))
		if !lhs2.Equal(rhs2) {
			t.Fatalf("additivity in second slot fails (iter %d)", i)
		}
	}
}

func TestDenominatorEliminationAgreesWithFullMiller(t *testing.T) {
	pp := toyParams(t)
	gen := pp.Generator()
	q := pp.Q()
	for i := 0; i < 6; i++ {
		a, _ := rand.Int(rand.Reader, q)
		b, _ := rand.Int(rand.Reader, q)
		P := gen.ScalarMul(a)
		Q := gen.ScalarMul(b)
		fast := mustPair(t, pp, P, Q)
		full, err := pairFull(pp, P, Q)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(full) {
			t.Fatalf("optimized and full Miller loops disagree (iter %d)", i)
		}
	}
}

func TestPairingHashToPointCompatible(t *testing.T) {
	// The schemes pair generator-derived points against hashed identities.
	pp := toyParams(t)
	Q, err := pp.Curve().HashToPoint("BF-H1", []byte("bob@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := rand.Int(rand.Reader, pp.Q())
	P := pp.Generator()
	// ê(sP, Q) == ê(P, sQ) == ê(P, Q)^s
	l := mustPair(t, pp, P.ScalarMul(s), Q)
	m := mustPair(t, pp, P, Q.ScalarMul(s))
	r := mustExp(t, mustPair(t, pp, P, Q), s)
	if !l.Equal(m) || !l.Equal(r) {
		t.Fatal("pairing incompatibility with hashed points")
	}
}

func TestGTGroupOps(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())

	inv, err := g.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Mul(inv).IsOne() {
		t.Error("g · g⁻¹ ≠ 1")
	}
	if !mustExp(t, g, big.NewInt(0)).IsOne() {
		t.Error("g⁰ ≠ 1")
	}
	if !mustExp(t, g, big.NewInt(1)).Equal(g) {
		t.Error("g¹ ≠ g")
	}
	// negative exponent = inverse
	if !mustExp(t, g, big.NewInt(-1)).Equal(inv) {
		t.Error("g⁻¹ via Exp mismatch")
	}
	// Exp reduces its exponent mod q, so g^q = g^0 = 1 by construction.
	if !mustExp(t, g, pp.Q()).IsOne() {
		t.Error("g^q ≠ 1 (exponent reduction broken)")
	}
	if !pp.InGT(g) {
		t.Error("pairing output not in GT")
	}
}

func TestGTBytesRoundTrip(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	data := g.Bytes()
	h, err := pp.GTFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("GT bytes round trip failed")
	}
	if _, err := pp.GTFromBytes([]byte{1}); err == nil {
		t.Fatal("short GT encoding accepted")
	}
}

func TestInGTRejectsOutsiders(t *testing.T) {
	pp := toyParams(t)
	// A random field element is in GT with probability q/(p²−1) ≈ 2⁻⁶⁴.
	el := pp.Field().NewElement(big.NewInt(2), big.NewInt(3))
	outsider := &GT{v: el, pp: pp}
	if pp.InGT(outsider) {
		t.Fatal("random field element accepted as GT member")
	}
	zero := &GT{v: pp.Field().Zero(), pp: pp}
	if pp.InGT(zero) {
		t.Fatal("zero accepted as GT member")
	}
}

func TestGenerateSmallParams(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter generation is slow")
	}
	pp, err := Generate(rand.Reader, 32, 80)
	if err != nil {
		t.Fatal(err)
	}
	checkSparseSet(t, pp, 31, 6, 80) // 2^31 + 2^6 + 1
	P := pp.Generator()
	a := big.NewInt(7)
	b := big.NewInt(11)
	lhs := mustPair(t, pp, P.ScalarMul(a), P.ScalarMul(b))
	rhs := mustExp(t, mustPair(t, pp, P, P), big.NewInt(77))
	if !lhs.Equal(rhs) {
		t.Fatal("generated params fail bilinearity")
	}
	if mustPair(t, pp, P, P).IsOne() {
		t.Fatal("generated params degenerate")
	}
}

// TestPaperSetStructure holds the committed "paper" set to what Generate
// promises at 160/512 bits: the sparse order with the smallest prime-making b,
// and a cofactor that keeps p dense and the trace-comparison InGT sound.
func TestPaperSetStructure(t *testing.T) {
	pp, err := Paper()
	if err != nil {
		t.Fatal(err)
	}
	checkSparseSet(t, pp, 159, 17, 512)
	q, b, err := sparseOrder(160)
	if err != nil || b != 17 || q.Cmp(pp.Q()) != 0 {
		t.Errorf("sparseOrder(160) = %x, %d, %v; the set has q = %x", q, b, err, pp.Q())
	}
	if w := nafWeight(pp.Q()); w != 3 {
		t.Errorf("paper q has NAF weight %d, want 3", w)
	}
	dense, err := ByName("paper_dense")
	if err != nil {
		t.Fatal(err)
	}
	if w := nafWeight(dense.Q()); w < 50 {
		t.Errorf("paper_dense q has NAF weight %d: not the dense reference set", w)
	}
}

// checkSparseSet requires q = 2^top + 2^b + 1 and p = h·q − 1 a pBits-bit
// prime with p ≡ 3 (mod 4), q ∤ h and gcd(h, 2^top − 2^b − 1) = 1 — and
// that InGT therefore compares traces.
func checkSparseSet(t *testing.T, pp *Params, top, b uint, pBits int) {
	t.Helper()
	one := big.NewInt(1)
	q := new(big.Int).Lsh(one, top)
	q.Add(q, new(big.Int).Lsh(one, b)).Add(q, one)
	if pp.Q().Cmp(q) != 0 {
		t.Fatalf("q = %x, want 2^%d + 2^%d + 1", pp.Q(), top, b)
	}
	p := pp.P()
	if p.BitLen() != pBits || !p.ProbablyPrime(32) || p.Bit(0) != 1 || p.Bit(1) != 1 {
		t.Errorf("p = %x is not a %d-bit prime ≡ 3 (mod 4)", p, pBits)
	}
	h, r := new(big.Int).QuoRem(new(big.Int).Add(p, one), q, new(big.Int))
	if r.Sign() != 0 || new(big.Int).Mod(h, q).Sign() == 0 {
		t.Errorf("q does not divide p + 1 exactly once")
	}
	mirror := new(big.Int).Lsh(one, top)
	mirror.Sub(mirror, new(big.Int).Lsh(one, b)).Sub(mirror, one)
	if g := new(big.Int).GCD(nil, nil, h, mirror); g.Cmp(one) != 0 {
		t.Errorf("gcd(h, 2^%d − 2^%d − 1) = %v, want 1", top, b, g)
	}
	if !pp.gt.ComparesTraces() {
		t.Errorf("q = 2^%d + 2^%d + 1: InGT runs the ladder, want the trace comparison", top, b)
	}
}

// nafWeight counts the non-zero digits of k's non-adjacent form.
func nafWeight(k *big.Int) int {
	k = new(big.Int).Set(k)
	w := 0
	for k.Sign() > 0 {
		if k.Bit(0) == 1 {
			w++
			if k.Bit(1) == 1 { // digit −1
				k.Add(k, big.NewInt(1))
			} else {
				k.Sub(k, big.NewInt(1))
			}
		}
		k.Rsh(k, 1)
	}
	return w
}

func TestGenerateRejectsTinyCofactor(t *testing.T) {
	if _, err := Generate(rand.Reader, 32, 40); err == nil {
		t.Fatal("cofactor gap below 16 bits must be rejected")
	}
}

func TestQuickBilinearity(t *testing.T) {
	pp := toyParams(t)
	P := pp.Generator()
	base := mustPair(t, pp, P, P)
	q64 := pp.Q().Int64() // toy q fits in 32 bits
	cfg := &quick.Config{MaxCount: 15}
	property := func(a, b uint32) bool {
		ai := big.NewInt(int64(a) % q64)
		bi := big.NewInt(int64(b) % q64)
		lhs := mustPair(t, pp, P.ScalarMul(ai), P.ScalarMul(bi))
		rhs := mustExp(t, base, new(big.Int).Mul(ai, bi))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
