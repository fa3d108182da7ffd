package core

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/mathx"
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

// TestShareTimingIndependentOfNonce is the dudect-style check ROADMAP item 3(c)
// asks for on the threshold prover: a warm ThresholdPlayer.Share is timed
// 10⁵ times with one fixed, extreme proof nonce and 10⁵ times with fresh
// random ones — same player, identity and U, the two classes interleaved at
// random — and Welch's t between the classes must stay under 4.5.
//
// The fixed nonce is extreme for each thing a nonce used to steer: it has
// Hamming weight 2 to 4 (square-and-multiply made W1 = cᵢ^r and W2 = g^r
// three multiplications where a random r costs sixteen), and among the
// ≈ 5 000 such candidates it is the one whose r + e has the fewest non-zero
// w-NAF digits
// (the ladder that made V = (r + e)·d_IDi skipped an addition per zero
// digit). Pointing any of the three back — ScalarMul for the comb of d_IDi,
// GT.Exp for the comb of cᵢ or for ExpSecret — fails this test in all three
// rounds (CHANGES.md, PR 28, records the runs).
//
// A timing test shares its host: samples above the pooled 90th percentile
// (preemptions, GC assists) are cropped as dudect does, and a round that
// still fails is repeated, twice at most — a leak fails every round, a noisy
// neighbour does not.
func TestShareTimingIndependentOfNonce(t *testing.T) {
	if testing.Short() {
		t.Skip("2·10⁵ timed shares")
	}
	if raceEnabled {
		t.Skip("running times under the race detector measure the detector")
	}
	const perClass = 100_000

	pkg, player := playerFixture(t)
	pp := pkg.Params().Public.Pairing
	q := pp.Q()
	const id = "vault@example.com"
	installShare(t, pkg, player, id)
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	src := &nonceSource{buf: make([]byte, (new(big.Int).Sub(q, big.NewInt(1)).BitLen()+7)/8)}
	timed := func(r *big.Int) (*DecryptionShare, time.Duration) {
		src.set(r)
		t0 := time.Now()
		ds, err := player.share(src, id, u)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		return ds, d
	}

	// The fixed class: the top bit of a (|q| − 1)-bit nonce plus one to three more.
	var fixed *big.Int
	best := math.MaxInt
	low := q.BitLen() - 2
	for i := 0; i < low; i++ {
		for j := i; j < low; j++ {
			for l := j; l < low; l++ {
				r := new(big.Int).SetBit(new(big.Int), low, 1)
				r.SetBit(r.SetBit(r.SetBit(r, i, 1), j, 1), l, 1)
				ds, _ := timed(r)
				k := new(big.Int).Add(r, ds.Proof.E)
				if w := nafWeight(k.Mod(k, q)); w < best {
					fixed, best = r, w
				}
			}
		}
	}
	if ds, _ := timed(fixed); pkg.Params().VerifyShareProof(id, u, ds) != nil {
		t.Fatal("a share made with an injected nonce does not verify")
	}

	random := make([]*big.Int, perClass)
	for i := range random {
		if random[i], err = mathx.RandomFieldElement(rand.Reader, q); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]bool, 2*perClass) // true: the fixed class
	for i := 0; i < perClass; i++ {
		order[i] = true
	}

	var tStat float64
	for round := 1; round <= 3; round++ {
		mrand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		samples := [2][]float64{make([]float64, 0, perClass), make([]float64, 0, perClass)}
		next := 0
		for _, isFixed := range order {
			r, class := fixed, 0
			if !isFixed {
				r, class = random[next], 1
				next++
			}
			_, d := timed(r)
			samples[class] = append(samples[class], float64(d))
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
		t.Logf("round %d: fixed nonce %v (w-NAF weight of r+e: %d), %d + %d samples under %.1f µs, t = %.2f",
			round, fixed, best, len(samples[0]), len(samples[1]), cut/1e3, tStat)
		if math.Abs(tStat) < 4.5 {
			return
		}
	}
	t.Fatalf("a share's running time depends on its proof nonce: |t| = %.1f ≥ 4.5 in three rounds of 2·10⁵ samples", math.Abs(tStat))
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
	var shareErr error
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := player.Share(id, u); err != nil {
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
