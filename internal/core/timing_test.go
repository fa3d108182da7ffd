package core

import (
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	mrand "math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/mathx"
	"repro/internal/pairing"
	"repro/internal/pairing/pairingtest"
)

// nonceSource is the io.Reader a timed share draws its proof nonce from: it
// hands mathx.RandomFieldElement(·, q) the bytes that make it return the
// queued nonce on its first draw (rand.Int reads ⌈|q−1|/8⌉ big-endian bytes,
// accepts a value below q − 1 and the range adds 1), so both classes of the
// test pay the same reads and no rejections.
type nonceSource struct {
	buf []byte
}

func (s *nonceSource) set(r *big.Int) { new(big.Int).Sub(r, big.NewInt(1)).FillBytes(s.buf) }

func (s *nonceSource) Read(p []byte) (int, error) { return copy(p, s.buf), nil }

// nafWeight is the number of additions ScalarMul's w-NAF ladder makes for k.
func nafWeight(k *big.Int) int {
	n := 0
	for _, d := range mathx.WNAF(k, 4) { // the width curve picks for a 32-bit scalar
		if d != 0 {
			n++
		}
	}
	return n
}

// welch returns Welch's t for two samples.
func welch(a, b []float64) float64 {
	mean := func(x []float64) (m, v float64) {
		for _, s := range x {
			m += s
		}
		m /= float64(len(x))
		for _, s := range x {
			v += (s - m) * (s - m)
		}
		return m, v / float64(len(x)-1)
	}
	ma, va := mean(a)
	mb, vb := mean(b)
	return (ma - mb) / math.Sqrt(va/float64(len(a))+vb/float64(len(b)))
}

// TestShareTimingIndependentOfNonce is the dudect-style check ROADMAP item 3(ii)
// asks for on the threshold prover: a warm ThresholdPlayer.Share is timed
// 10⁵ times with one fixed, extreme proof nonce and 10⁵ times with fresh
// random ones — same player, identity and U, the two classes interleaved at
// random — and Welch's t between the classes must stay under 4.5.
//
// The fixed nonce is extreme for each thing a nonce used to steer or could
// steer: it is half as long as q (a trace ladder that walked r's own length
// instead of |q| bits would make W1 = cᵢ^r and W2 = g^r in half the steps),
// it has Hamming weight 2 to 4 (square-and-multiply made them three
// multiplications where a random r costs sixteen), and among the ≈ 800
// such candidates it is the one whose r + e has the fewest non-zero w-NAF
// digits
// (the ladder that made V = (r + e)·d_IDi skipped an addition per zero
// digit). Pointing any of the three back — ScalarMul for the comb of d_IDi,
// GT.Exp for the comb of cᵢ or for ExpSecret — fails this test in all three
// rounds (CHANGES.md, PR 28, records the runs).
// A trace ladder that walks r.BitLen() bits fails it too (CHANGES.md
// records that run).
//
// That is the toy set, on the any-width loops. The paper set runs 10⁴
// shares a class on the 8-limb kernel this CPU selects — where fp.Kernel()
// names the lane engine, the replay of lines derived from d_IDi is one
// lane kernel call and the ladders of the powers run on lanes too — with
// the fixed nonce's one to three extra bits drawn from every third
// position, ≈ 3 600 candidates; it logs which kernel it timed.
//
// The rounds and the cropping are timingClassesAgree's.
func TestShareTimingIndependentOfNonce(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁵ and 2·10⁴ timed shares")
	}
	if raceEnabled {
		t.Skip("running times under the race detector measure the detector")
	}
	for _, set := range []struct {
		name     string
		params   func() (*pairing.Params, error)
		perClass int
	}{
		{"toy", pairing.Toy, 100_000},
		{"paper", pairing.Paper, 10_000},
	} {
		t.Run(set.name, func(t *testing.T) {
			pp, err := set.params()
			if err != nil {
				t.Fatal(err)
			}
			kernel := "the any-width loops"
			if pp.Field().Fp().Limbs() == 8 {
				kernel = "fp kernel " + fp.Kernel()
			}
			t.Logf("timing %s shares on %s", set.name, kernel)
			shareTimingIndependentOfNonce(t, pp, set.perClass, kernel)
		})
	}
}

func shareTimingIndependentOfNonce(t *testing.T, pp *pairing.Params, perClass int, kernel string) {
	pkg, err := SetupThreshold(rand.Reader, pp, msgLen, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	player, err := NewThresholdPlayer(pkg.Params(), 1, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	q := pp.Q()
	const id = "vault@example.com"
	installShare(t, pkg, player, id)
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	src := &nonceSource{buf: make([]byte, (new(big.Int).Sub(q, big.NewInt(1)).BitLen()+7)/8)}
	ux := curve.EvalXOf(u)
	timed := func(r *big.Int) (*ShareX, time.Duration) {
		src.set(r)
		t0 := time.Now()
		ds, err := player.share(src, id, ux)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		return ds, d
	}

	// The fixed class: the top bit of a |q|/2-bit nonce plus one to three
	// more, at every stride-th position.
	var fixed *big.Int
	best := math.MaxInt
	low := q.BitLen()/2 - 1
	stride := max(1, low/26)
	for i := 0; i < low; i += stride {
		for j := i; j < low; j += stride {
			for l := j; l < low; l += stride {
				r := new(big.Int).SetBit(new(big.Int), low, 1)
				r.SetBit(r.SetBit(r.SetBit(r, i, 1), j, 1), l, 1)
				ds, _ := timed(r)
				k := new(big.Int).Add(r, ds.E)
				if w := nafWeight(k.Mod(k, q)); w < best {
					fixed, best = r, w
				}
			}
		}
	}
	if ds, _ := timed(fixed); pkg.Params().VerifyShareProof(id, u, ResolveShare(ds, u)) != nil {
		t.Fatal("a share made with an injected nonce does not verify")
	}

	random := make([]*big.Int, perClass)
	for i := range random {
		if random[i], err = mathx.RandomFieldElement(rand.Reader, q); err != nil {
			t.Fatal(err)
		}
	}
	if !timingClassesAgree(t, perClass, func(class, i int) time.Duration {
		r := fixed
		if class == 1 {
			r = random[i]
		}
		_, d := timed(r)
		return d
	}, fmt.Sprintf("%s, fixed nonce %v (w-NAF weight of r+e: %d)", kernel, fixed, best)) {
		t.Fatal("a share's running time depends on its proof nonce")
	}
}

// timingClassesAgree is the dudect loop both timing tests run: perClass
// calls of class 0 and of class 1 (timeCall(class, i) times the i-th of its
// class), interleaved at random, and Welch's t between the two. A timing
// test shares its host: samples above the pooled 90th percentile
// (preemptions, GC assists) are cropped as dudect does, and a round that
// fails is repeated, twice at most — a leak fails every round, a noisy
// neighbour does not. It reports whether a round ended with |t| < 4.5.
func timingClassesAgree(t *testing.T, perClass int, timeCall func(class, i int) time.Duration, what string) bool {
	t.Helper()
	order := make([]bool, 2*perClass) // true: class 0
	for i := 0; i < perClass; i++ {
		order[i] = true
	}
	var tStat float64
	for round := 1; round <= 3; round++ {
		mrand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		samples := [2][]float64{make([]float64, 0, perClass), make([]float64, 0, perClass)}
		for _, first := range order {
			class := 1
			if first {
				class = 0
			}
			samples[class] = append(samples[class], float64(timeCall(class, len(samples[class]))))
		}
		pooled := append(append([]float64(nil), samples[0]...), samples[1]...)
		sort.Float64s(pooled)
		cut := pooled[len(pooled)*9/10]
		for c := range samples {
			kept := samples[c][:0]
			for _, d := range samples[c] {
				if d <= cut {
					kept = append(kept, d)
				}
			}
			samples[c] = kept
		}
		tStat = welch(samples[0], samples[1])
		t.Logf("round %d: %s, %d + %d samples under %.1f µs, t = %.2f", round, what, len(samples[0]), len(samples[1]), cut/1e3, tStat)
		if math.Abs(tStat) < 4.5 {
			return true
		}
	}
	t.Logf("|t| = %.1f ≥ 4.5 in three rounds of %d samples", math.Abs(tStat), 2*perClass)
	return false
}

// TestTokenTimingIndependentOfKey is the dudect check of ROADMAP item
// 3(ii) on the SEM's token: a warm IBESEM.TokenX — the replay of a cached
// Miller program in the x-only ring, and its final exponentiation — is
// timed for each of two enrolled identities, the same U, the two classes
// interleaved at random, and Welch's t must stay under 4.5. The program's
// (α, β) derive from d_sem, and the replay has no branch on them: it runs
// the same products and sums whatever their values. The two halves are
// extreme for the one statistic a branch on α's low limb would key on:
// among 48 candidate halves, the programs with the most and the fewest α
// whose Montgomery low word is odd (α is the affine slope of the walk's
// tangent or chord). A replay that did one product more on such lines fails
// this test (CHANGES.md records the runs). It runs on the toy set, 10⁵
// tokens a class on the any-width loops, and on the paper set, 2·10⁴ a
// class on the 8-limb kernel this CPU selects — the lane engine's one-call
// replay where fp.Kernel() names it — and logs which kernel it timed.
func TestTokenTimingIndependentOfKey(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁵ and 4·10⁴ timed tokens")
	}
	if raceEnabled {
		t.Skip("running times under the race detector measure the detector")
	}
	for _, set := range []struct {
		name     string
		params   func() (*pairing.Params, error)
		perClass int
	}{
		{"toy", pairing.Toy, 100_000},
		{"paper", pairing.Paper, 20_000},
	} {
		t.Run(set.name, func(t *testing.T) {
			pp, err := set.params()
			if err != nil {
				t.Fatal(err)
			}
			kernel := "the any-width loops"
			if pp.Field().Fp().Limbs() == 8 {
				kernel = "fp kernel " + fp.Kernel()
			}
			t.Logf("timing %s tokens on %s", set.name, kernel)
			tokenTimingIndependentOfKey(t, pp, set.perClass, kernel)
		})
	}
}

func tokenTimingIndependentOfKey(t *testing.T, pp *pairing.Params, perClass int, kernel string) {
	pkg, err := NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewIBESEM(pkg.Public(), NewRegistry())
	halves, odd := extremeKeys(t, pp)
	ids := [2]string{"most-odd@example.com", "fewest-odd@example.com"}
	for c, id := range ids {
		sem.Register(&SEMKeyHalf{ID: id, D: halves[c]})
	}
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ux, err := pp.Curve().UnmarshalX(u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for c, id := range ids {
		g, err := sem.TokenX(id, ux)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := pp.Pair(halves[c], u); !resolveToken(t, pp, g, u).Equal(want) {
			t.Fatalf("%s: the warm-up token is not ê(d_sem, U)", id)
		}
	}
	if !timingClassesAgree(t, perClass, func(class, _ int) time.Duration {
		t0 := time.Now()
		_, err := sem.TokenX(ids[class], ux)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, fmt.Sprintf("%s, programs with %d and %d odd α", kernel, odd[0], odd[1])) {
		t.Fatal("a token's running time depends on the SEM's key half")
	}
}

// TestPairingTimingIndependentOfKey is the dudect check of ROADMAP item
// 3(ii) on the plain pairings that walk a secret key: Params.PairX, which
// answers a SEM's token for an identity its program cache turned away, and
// Params.Pair, a threshold player's share for one. Both walk the key half on
// the lane walk where fp.Kernel() names the lane engine (the doubling steps
// in fp.Field.WalkJ, the additions on the scalar kernels), and on the
// 8-limb scalar kernels elsewhere. Two keys are timed at the paper set, 10⁴
// pairings a class with the same U, interleaved at random, and Welch's t
// must stay under 4.5; the keys are extreme as
// TestTokenTimingIndependentOfKey's are, the most and the fewest odd
// tangent and chord slopes α among 48 candidates — what the walk's lines
// are made of. It logs which kernel it timed.
func TestPairingTimingIndependentOfKey(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁴ timed pairings, twice")
	}
	if raceEnabled {
		t.Skip("running times under the race detector measure the detector")
	}
	pp, err := pairing.Paper()
	if err != nil {
		t.Fatal(err)
	}
	keys, odd := extremeKeys(t, pp)
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ux, err := pp.Curve().UnmarshalX(u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("timing paper pairings on fp kernel %s", fp.Kernel())
	for _, row := range []struct {
		name string
		pair func(d *curve.Point) error
	}{
		{"PairX", func(d *curve.Point) error { _, err := pp.PairX(d, ux); return err }},
		{"Pair", func(d *curve.Point) error { _, err := pp.Pair(d, u); return err }},
	} {
		t.Run(row.name, func(t *testing.T) {
			if !timingClassesAgree(t, 10_000, func(class, _ int) time.Duration {
				t0 := time.Now()
				err := row.pair(keys[class])
				d := time.Since(t0)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}, fmt.Sprintf("%s on fp kernel %s, keys with %d and %d odd α", row.name, fp.Kernel(), odd[0], odd[1])) {
				t.Fatal("a pairing's running time depends on the key it walks")
			}
		})
	}
}

// TestHalfSignTimingIndependentOfKey is the dudect check of ROADMAP item
// 3(ii) on the mediated GDH signature's SEM step, gdh_half_sign: a warm
// GDHSEM.HalfSign — the revocation check and S_sem = x_sem·h by
// ScalarMulSecret — is timed for each of two enrolled identities, the same
// message hash h, the two classes interleaved at random, and Welch's t must
// stay under 4.5. The two halves x_sem are extreme for what a variable-time
// ladder keys on: the top bit of a (|q| − 1)-bit scalar plus one more, whose
// w-NAF has two non-zero digits, against the one of 64 random scalars with
// the most (ScalarMul skips an addition per zero digit). It runs on the toy
// set, 10⁵ half-signatures a class on the any-width loops, and on the paper
// set, 10⁴ a class on the 8-limb kernel this CPU selects (the purego build
// times the Go kernels), and logs which kernel it timed.
func TestHalfSignTimingIndependentOfKey(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁵ and 2·10⁴ timed half-signatures")
	}
	if raceEnabled {
		t.Skip("running times under the race detector measure the detector")
	}
	for _, set := range []struct {
		name     string
		params   func() (*pairing.Params, error)
		perClass int
	}{
		{"toy", pairing.Toy, 100_000},
		{"paper", pairing.Paper, 10_000},
	} {
		t.Run(set.name, func(t *testing.T) {
			pp, err := set.params()
			if err != nil {
				t.Fatal(err)
			}
			kernel := "the any-width loops"
			if pp.Field().Fp().Limbs() == 8 {
				kernel = "fp kernel " + fp.Kernel()
			}
			t.Logf("timing %s half-signatures on %s", set.name, kernel)
			halfSignTimingIndependentOfKey(t, pp, set.perClass, kernel)
		})
	}
}

func halfSignTimingIndependentOfKey(t *testing.T, pp *pairing.Params, perClass int, kernel string) {
	q := pp.Q()
	width := uint(4)
	if q.BitLen() > 128 {
		width = 5 // curve's w-NAF width above 128 bits
	}
	weight := func(k *big.Int) int {
		n := 0
		for _, d := range mathx.WNAF(k, width) {
			if d != 0 {
				n++
			}
		}
		return n
	}
	var xs [2]*big.Int
	xs[0] = new(big.Int).SetBit(new(big.Int), q.BitLen()-2, 1)
	xs[0].SetBit(xs[0], q.BitLen()/2, 1)
	most := 0
	for i := 0; i < 64; i++ {
		x, err := mathx.RandomFieldElement(rand.Reader, q)
		if err != nil {
			t.Fatal(err)
		}
		if w := weight(x); w > most {
			xs[1], most = x, w
		}
	}
	sem := NewGDHSEM(pp, NewRegistry())
	ids := [2]string{"sparse-key@example.com", "dense-key@example.com"}
	for c, id := range ids {
		sem.Register(&GDHSEMKey{ID: id, X: xs[c]})
	}
	h, err := bls.HashMessage(pp, []byte("timed message"))
	if err != nil {
		t.Fatal(err)
	}
	for c, id := range ids {
		s, err := sem.HalfSign(id, h)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Equal(h.ScalarMul(xs[c])) {
			t.Fatalf("%s: the warm-up half-signature is not x_sem·h", id)
		}
	}
	if !timingClassesAgree(t, perClass, func(class, _ int) time.Duration {
		t0 := time.Now()
		_, err := sem.HalfSign(ids[class], h)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, fmt.Sprintf("%s, keys of w-NAF weight %d and %d", kernel, weight(xs[0]), most)) {
		t.Fatal("a half-signature's running time depends on the SEM's key half")
	}
}

// extremeKeys returns, among 48 random points of G1, the one whose Miller
// program has the most lines with an odd α (oddSlopes) and the one with the
// fewest, and their counts.
func extremeKeys(t *testing.T, pp *pairing.Params) (keys [2]*curve.Point, odd [2]int) {
	for k := 0; k < 48; k++ {
		d, err := pp.Curve().RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		n := oddSlopes(t, pp, d)
		if k == 0 || n > odd[0] {
			keys[0], odd[0] = d, n
		}
		if k == 0 || n < odd[1] {
			keys[1], odd[1] = d, n
		}
	}
	return keys, odd
}

// oddSlopes counts the lines of d's Miller program whose α — the slope of
// the walk's tangent or chord, which FixedPair records — has an odd low word
// in Montgomery form. The walk's last chord, to O, is vertical and records
// no line.
func oddSlopes(t *testing.T, pp *pairing.Params, d *curve.Point) int {
	t.Helper()
	p, q := pp.P(), pp.Q()
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*((p.BitLen()+63)/64)))
	n := 0
	count := func(lambda *big.Int) {
		m := new(big.Int).Mul(lambda, r)
		n += int(m.Mod(m, p).Bit(0))
	}
	v := d
	for i := q.BitLen() - 2; i >= 0; i-- {
		lambda, err := pairingtest.TangentSlope(v, p)
		if err != nil {
			t.Fatal(err)
		}
		count(lambda)
		v = v.Double()
		if q.Bit(i) == 1 {
			if lambda, err := pairingtest.ChordSlope(v, d, p); err == nil {
				count(lambda)
			}
			v = v.Add(d)
		}
	}
	return n
}

// TestWarmShareAllocs pins the warm share's allocation count at what it was
// with V on the w-NAF ladder and the powers on GT.Exp (145): the comb, the
// constant-time normalisation and the fixed-window powers must not cost
// objects.
func TestWarmShareAllocs(t *testing.T) {
	pkg, player := playerFixture(t)
	const id = "vault@example.com"
	installShare(t, pkg, player, id)
	u, err := pkg.Params().Public.Pairing.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ux := curve.EvalXOf(u)
	var shareErr error
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := player.Share(id, ux); err != nil {
			shareErr = err
		}
	})
	if shareErr != nil {
		t.Fatal(shareErr)
	}
	if allocs > 145 {
		t.Fatalf("a warm ThresholdPlayer.Share allocates %.0f times, want ≤ 145", allocs)
	}
}
