package curve_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
)

// Paper-size parameters (|p| = 512, |q| = 160) for the kernel benchmarks and
// the secret-kernel tests. These mirror internal/pairing's "paper" fixed set,
// whose order 2^159 + 2^17 + 1 has a single top bit, and its "paper_dense"
// set, whose order is a random 160-bit prime.
const (
	paperPHex      = "e6a30dc9bb2f27db4f2d112924218fa457702d317324509952984dbe937dd4f96ded3efffd8680e00e1780697ee844a3e981e0a4d64594888b2f7f881197f947"
	paperQHex      = "8000000000000000000000000000000000020001"
	paperDensePHex = "b282da5c02935d5836473139df6751ee8e1fb07c917309c04088843b36435876d65dd173ce4ac63f883c05a59ad3a134e30ef32607e2a49c71e515d4dcc47eef"
	paperDenseQHex = "d766107fb0eace0a6ccd9d42e9492ba8bf2298ed"
)

// The "fast" fixed set (|p| = 256, |q| = 128), duplicated for the same reason.
const (
	fastPHex = "db19579dd2a906bb3f2f4f74c236e52c70115d99c09f7c474e96cdbe63e4da07"
	fastQHex = "e10324209a11be3de5ba91918d7c367d"
)

func paperCurve(tb testing.TB) *curve.Curve { return hexCurve(tb, paperPHex, paperQHex) }
func paperDenseCurve(tb testing.TB) *curve.Curve {
	return hexCurve(tb, paperDensePHex, paperDenseQHex)
}
func fastCurve(tb testing.TB) *curve.Curve { return hexCurve(tb, fastPHex, fastQHex) }

func hexCurve(tb testing.TB, pHex, qHex string) *curve.Curve {
	tb.Helper()
	p, _ := new(big.Int).SetString(pHex, 16)
	q, _ := new(big.Int).SetString(qHex, 16)
	c, err := curve.New(p, q)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// msmFixture builds n distinct points (an Add-chain from a random G1 base,
// cheap even at paper size) and n scalars below q drawn from a deterministic
// stream.
func msmFixture(tb testing.TB, c *curve.Curve, n int, seed int64) ([]*big.Int, []*curve.Point) {
	tb.Helper()
	base, err := c.RandomG1(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(seed))
	scalars := make([]*big.Int, n)
	points := make([]*curve.Point, n)
	acc := base
	for i := 0; i < n; i++ {
		points[i] = acc
		acc = acc.Add(base)
		scalars[i] = new(big.Int).Rand(rng, c.Q())
	}
	return scalars, points
}

// msmKernels evaluates the sum three ways — MSM as callers reach it, and
// each of its two kernels run directly whatever the size, so the shapes a
// test feeds in exercise the ladder and the buckets alike and not only the
// one msmLadderMax routes them to.
func msmKernels(tb testing.TB, c *curve.Curve, scalars []*big.Int, points []*curve.Point) map[string]*curve.Point {
	tb.Helper()
	got, err := c.MSM(scalars, points)
	if err != nil {
		tb.Fatalf("MSM: %v", err)
	}
	out := map[string]*curve.Point{"MSM": got}
	if ks, pts := curve.MSMTerms(scalars, points); len(pts) > 0 {
		if out["ladder"], err = c.MSMLadder(ks, pts); err != nil {
			tb.Fatalf("msmLadder: %v", err)
		}
		if out["buckets"], err = c.MSMBuckets(ks, pts); err != nil {
			tb.Fatalf("msmBuckets: %v", err)
		}
	}
	return out
}

// checkMSM demands bit-identity of MSM and both kernels with the per-point
// oracle.
func checkMSM(tb testing.TB, c *curve.Curve, scalars []*big.Int, points []*curve.Point) {
	tb.Helper()
	want := curvetest.MSMSequential(c, scalars, points)
	for kernel, got := range msmKernels(tb, c, scalars, points) {
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			tb.Fatalf("%s %x diverges from the sequential oracle %x", kernel, got.Marshal(), want.Marshal())
		}
	}
}

// TestMSMMatchesSequential drives the Pippenger kernel through the scalar
// and point shapes the schemes produce — zero/one/q−1/negative/unreduced
// scalars, repeated points, identities, cofactor-order points — and demands
// bit-identical output against the per-point oracle.
func TestMSMMatchesSequential(t *testing.T) {
	c := toyCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var cof *curve.Point
	for {
		R, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if cof = R.ScalarMul(c.Q()); !cof.IsInfinity() {
			break
		}
	}
	q := c.Q()
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	big1 := new(big.Int).Lsh(q, 13) // far wider than the group order
	big1.Add(big1, big.NewInt(77))

	cases := []struct {
		name    string
		scalars []*big.Int
		points  []*curve.Point
	}{
		{"empty", nil, nil},
		{"single", []*big.Int{big.NewInt(5)}, []*curve.Point{P}},
		{"single.one", []*big.Int{big.NewInt(1)}, []*curve.Point{P}},
		{"single.zero", []*big.Int{big.NewInt(0)}, []*curve.Point{P}},
		{"single.neg", []*big.Int{big.NewInt(-9)}, []*curve.Point{P}},
		{"single.qm1", []*big.Int{qm1}, []*curve.Point{P}},
		{"single.q", []*big.Int{new(big.Int).Set(q)}, []*curve.Point{P}},
		{"single.wide", []*big.Int{big1}, []*curve.Point{P}},
		{"infinity.only", []*big.Int{big.NewInt(7)}, []*curve.Point{c.Infinity()}},
		{"cofactor.point", []*big.Int{big.NewInt(11), big.NewInt(3)}, []*curve.Point{cof, P}},
		{"repeated.point", []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(4)}, []*curve.Point{P, P, P}},
		{"cancel", []*big.Int{big.NewInt(6), big.NewInt(-6)}, []*curve.Point{P, P}},
		{"mixed", []*big.Int{big.NewInt(0), qm1, big.NewInt(-1), big1, new(big.Int).Set(q)},
			[]*curve.Point{P, P.Double(), c.Infinity(), cof, P.Add(P.Double())}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMSM(t, c, tc.scalars, tc.points) })
	}

	for _, n := range []int{1, 2, 3, 7, curve.MSMLadderMax, curve.MSMLadderMax + 1, 64, 129} {
		scalars, points := msmFixture(t, c, n, int64(1000+n))
		checkMSM(t, c, scalars, points)
	}
}

// TestMSMSmallSizes walks the sizes the schemes' own sums have (t Lagrange
// terms, n batching coefficients) on every fixed parameter set, with the
// half-width scalars the batched share-proof check uses mixed in: the
// interleaved ladder picks a narrower window for those.
func TestMSMSmallSizes(t *testing.T) {
	curves := map[string]*curve.Curve{"toy": toyCurve(t), "fast": fastCurve(t), "paper": paperCurve(t)}
	for name, c := range curves {
		for n := 1; n <= 8; n++ {
			scalars, points := msmFixture(t, c, n, int64(31*n))
			for i := 0; i < n; i += 2 {
				scalars[i] = new(big.Int).Rsh(scalars[i], uint(c.Q().BitLen()/2))
			}
			t.Run(benchName(name, n), func(t *testing.T) { checkMSM(t, c, scalars, points) })
		}
	}
}

// TestMSMOrderTwoPoint exercises the order-2 point (0, 0) — the hardest
// degenerate input, since its doublings collapse to O inside the bucket
// arithmetic.
func TestMSMOrderTwoPoint(t *testing.T) {
	c := toyCurve(t)
	T, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		t.Fatalf("(0,0) must be on y² = x³ + x: %v", err)
	}
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for kernel, odd := range msmKernels(t, c, []*big.Int{big.NewInt(5)}, []*curve.Point{T}) {
		if !odd.Equal(T) {
			t.Fatalf("%s: 5·(0,0) = %v, want (0,0)", kernel, odd)
		}
	}
	for kernel, even := range msmKernels(t, c, []*big.Int{big.NewInt(4)}, []*curve.Point{T}) {
		if !even.IsInfinity() {
			t.Fatalf("%s: 4·(0,0) = %v, want O", kernel, even)
		}
	}
	for kernel, mixed := range msmKernels(t, c, []*big.Int{big.NewInt(3), big.NewInt(2)}, []*curve.Point{T, P}) {
		if !mixed.Equal(T.Add(P.Double())) {
			t.Fatalf("%s: 3·(0,0) + 2·P mismatch", kernel)
		}
	}
	if T.InSubgroup() {
		t.Fatal("order-2 point claims G1 membership (q is odd)")
	}
}

func TestMSMErrors(t *testing.T) {
	c := toyCurve(t)
	P, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	if _, err := c.MSM([]*big.Int{one, one}, []*curve.Point{P}); !errors.Is(err, curve.ErrMSMShape) {
		t.Fatalf("length mismatch: err = %v", err)
	}
	if _, err := c.MSM([]*big.Int{nil}, []*curve.Point{P}); !errors.Is(err, curve.ErrMSMShape) {
		t.Fatalf("nil scalar: err = %v", err)
	}
	if _, err := c.MSM([]*big.Int{one}, []*curve.Point{nil}); !errors.Is(err, curve.ErrMSMShape) {
		t.Fatalf("nil point: err = %v", err)
	}
}

// TestMSMConcurrent hammers one shared input from many goroutines; run with
// -race -cpu 1,4 it checks both the worker fan-out and the Point/Curve
// caches for data races, and that every run returns identical bytes.
func TestMSMConcurrent(t *testing.T) {
	c := toyCurve(t)
	scalars, points := msmFixture(t, c, 48, 42)
	want, err := c.MSM(scalars, points)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := want.Marshal()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := c.MSM(scalars, points)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got.Marshal(), wantBytes) {
					errs <- errors.New("concurrent MSM returned different bytes")
					return
				}
				for _, pt := range points[:8] {
					if !pt.InSubgroup() {
						errs <- errors.New("shared G1 point failed InSubgroup")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInSubgroupCached checks the limb ladder + memoized verdict against the
// definitional q·P oracle across subgroup, cofactor-order and random points,
// and that Neg propagates the cache.
func TestInSubgroupCached(t *testing.T) {
	c := toyCurve(t)
	oracle := func(pt *curve.Point) bool { return pt.ScalarMul(c.Q()).IsInfinity() }

	for i := 0; i < 20; i++ {
		P, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(P)
		if got := P.InSubgroup(); got != want {
			t.Fatalf("InSubgroup(%v) = %v, oracle says %v", P, got, want)
		}
		if got := P.InSubgroup(); got != want {
			t.Fatalf("cached InSubgroup flipped to %v", got)
		}
		if got := P.Neg().InSubgroup(); got != want {
			t.Fatalf("InSubgroup(−P) = %v, want %v", got, want)
		}
	}
	G, err := c.RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !G.InSubgroup() {
		t.Fatal("RandomG1 output rejected")
	}
	if !c.Infinity().InSubgroup() {
		t.Fatal("O must be in the subgroup")
	}
	var cof *curve.Point
	for {
		R, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if cof = R.ScalarMul(c.Q()); !cof.IsInfinity() {
			break
		}
	}
	if cof.InSubgroup() {
		t.Fatal("cofactor-order point accepted")
	}
	if cof.InSubgroup() {
		t.Fatal("cached cofactor verdict flipped")
	}
}

// FuzzMSM is the differential fuzzer of the acceptance criteria: random
// sizes, scalar shapes (zero, one, q−1, negative, unreduced) and point
// multisets (repeats, identity) must keep MSM bit-identical to the
// sequential oracle.
func FuzzMSM(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(17))
	f.Add(int64(99), uint8(64))
	p, _ := new(big.Int).SetString(toyPHex, 16)
	qv, _ := new(big.Int).SetString(toyQHex, 16)
	c, err := curve.New(p, qv)
	if err != nil {
		f.Fatal(err)
	}
	base, err := c.RandomG1(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	qm1 := new(big.Int).Sub(qv, big.NewInt(1))

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := int(nRaw % 40)
		rng := mrand.New(mrand.NewSource(seed))
		scalars := make([]*big.Int, n)
		points := make([]*curve.Point, n)
		var prev *curve.Point
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0:
				scalars[i] = big.NewInt(0)
			case 1:
				scalars[i] = big.NewInt(1)
			case 2:
				scalars[i] = new(big.Int).Set(qm1)
			case 3:
				scalars[i] = new(big.Int).Neg(new(big.Int).Rand(rng, qv))
			case 4: // unreduced: k + q·r
				k := new(big.Int).Rand(rng, qv)
				scalars[i] = k.Add(k, new(big.Int).Lsh(qv, uint(rng.Intn(8)+1)))
			default:
				scalars[i] = new(big.Int).Rand(rng, qv)
			}
			switch {
			case rng.Intn(10) == 0:
				points[i] = c.Infinity()
			case prev != nil && rng.Intn(4) == 0:
				points[i] = prev // repeated point
			default:
				k := new(big.Int).Rand(rng, qv)
				points[i] = base.ScalarMul(k)
			}
			prev = points[i]
		}
		checkMSM(t, c, scalars, points)
	})
}

// BenchmarkMSM measures the Pippenger kernel against the per-point loop at
// paper size (512-bit p), the comparison behind the msm.* benchtab entries.
func BenchmarkMSM(b *testing.B) {
	c := paperCurve(b)
	for _, n := range []int{64, 256} {
		scalars, points := msmFixture(b, c, n, int64(n))
		b.Run(benchName("pippenger", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.MSM(scalars, points); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("sequential", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				curvetest.MSMSequential(c, scalars, points)
			}
		})
	}
}

// BenchmarkMSMCrossover times both MSM kernels on the same paper-size inputs
// around msmLadderMax; it is where that constant comes from (DESIGN §5d).
func BenchmarkMSMCrossover(b *testing.B) {
	c := paperCurve(b)
	for _, n := range []int{1, 3, 5, 8, 12, 16, 24, 32, 48, 64} {
		ks, pts := curve.MSMTerms(msmFixture(b, c, n, int64(n)))
		b.Run(benchName("ladder", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.MSMLadder(ks, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("buckets", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.MSMBuckets(ks, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(kind string, n int) string {
	return kind + "." + big.NewInt(int64(n)).String()
}

// BenchmarkValidateDecoded measures the untrusted-ingest path: decompress a
// wire point and run the subgroup check, each iteration on a fresh Point so
// the memoized verdict cannot help — this is the cost the limb ladder and
// limb square root actually removed.
func BenchmarkValidateDecoded(b *testing.B) {
	c := paperCurve(b)
	G, err := c.RandomG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	wire := G.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := c.Unmarshal(wire)
		if err != nil {
			b.Fatal(err)
		}
		if err := pt.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
