// Multi-scalar multiplication: a bucketed Pippenger kernel over the limb
// Jacobian layer, with the window fan-out parallelized through
// internal/parallel, and below msmLadderMax terms the interleaved w-NAF
// ladder of scalarmul.go.
//
// The batch operations of the threshold schemes — BLS batch-verification
// aggregation, Feldman commitment evaluation, point-share recombination,
// the batched share-proof check — all reduce to Σ eᵢ·Pᵢ. Computed
// point-by-point that costs one full w-NAF ladder per term. The interleaved
// ladder shares the doublings and the table inversion among the terms,
// which is all a handful of terms can share. Pippenger's algorithm instead
// slices every scalar into b-bit signed digits, accumulates the points with
// equal digit d into bucket d (one mixed addition per point per window),
// collapses each window's buckets with a running suffix sum (Σ d·bucket_d
// via 2·2^(b−1) additions, no multiplications), and merges the window sums
// with b doublings per window. Total cost ≈ windows·(n + 2^b) additions
// versus n·(bits + bits/w) for the per-point loop — asymptotically bits/b
// times fewer group operations.
//
// Determinism: windows are distributed across workers but each window sum
// is written to its own slot and the merge walks the slots in index order
// on the caller's goroutine, so the result is the exact group element of
// the sequential evaluation regardless of scheduling — and equal group
// elements have equal affine coordinates, making MSM bit-identical to the
// term-by-term oracle (curvetest.MSMSequential) on either kernel (fuzzed in
// msm_test.go).
package curve

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// errMSMShape is wrapped by MSM's argument-validation errors.
var errMSMShape = errors.New("curve: invalid MSM arguments")

// msmWindowBits picks the Pippenger window width for n points: wider
// windows amortize the 2^(b−1)-bucket collapse over more points. The
// b ≈ log2(n) − 1 rule tracks the cost minimum of
// (bits/b)·(n + 1.5·2^(b−1)) within a fraction of a percent for every n the
// schemes produce; the cap bounds the per-worker bucket slab.
func msmWindowBits(n int) int {
	b := bits.Len(uint(n)) - 2
	if b < 2 {
		b = 2
	}
	if b > 12 {
		b = 12
	}
	return b
}

// msmCheckArgs validates MSM's argument contract.
func msmCheckArgs(scalars []*big.Int, points []*Point) error {
	if len(scalars) != len(points) {
		return fmt.Errorf("%w: %d scalars for %d points", errMSMShape, len(scalars), len(points))
	}
	for i := range scalars {
		if scalars[i] == nil {
			return fmt.Errorf("%w: scalar %d is nil", errMSMShape, i)
		}
		if points[i] == nil {
			return fmt.Errorf("%w: point %d is nil", errMSMShape, i)
		}
	}
	return nil
}

// scalarWords returns |k| as little-endian uint64 words.
func scalarWords(k *big.Int) []uint64 {
	ws := k.Bits()
	if bits.UintSize == 64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = uint64(w)
		}
		return out
	}
	out := make([]uint64, (len(ws)+1)/2)
	for i, w := range ws { // 32-bit big.Word
		out[i/2] |= uint64(w) << (32 * uint(i%2))
	}
	return out
}

// windowDigit extracts b bits of words starting at bit position bit.
//
//cryptolint:hotpath
func windowDigit(words []uint64, bit, b int) uint64 {
	wi := bit >> 6
	if wi >= len(words) {
		return 0
	}
	d := words[wi] >> (uint(bit) & 63)
	if rem := 64 - (bit & 63); rem < b && wi+1 < len(words) {
		d |= words[wi+1] << uint(rem)
	}
	return d & (1<<uint(b) - 1)
}

// msmLadderMax is the largest number of contributing terms MSM hands to the
// interleaved w-NAF ladder instead of the bucket kernel. Pippenger pays a
// fixed price per window — a slab of buckets, their batch normalization and
// a running-sum collapse — that only amortizes over many points: at paper
// size the ladder takes 0.35× the bucket kernel's time at n = 5, 0.57× at
// 16, 0.74× at 32, reaches parity near n ≈ 80, and allocates a tenth as much
// throughout (BenchmarkMSMCrossover; DESIGN §5d has the table). 32 keeps
// every size where the ladder wins by a quarter or more and leaves the
// near-parity band to the kernel whose windows fan across cores. The
// schemes' own sums sit far below it (t = 3 Lagrange terms in shamir and
// dkg, n = 5 batching coefficients in the threshold verifier) or far above
// (batch verification).
const msmLadderMax = 32

// MSM computes the multi-scalar sum Σ scalars[i]·points[i]: with the
// interleaved w-NAF ladder for up to msmLadderMax contributing terms, with
// the bucketed Pippenger kernel beyond. Scalars may be negative, zero or
// wider than the group order (they are not reduced — the sum matches the
// sequential ScalarMul semantics for arbitrary curve points, including
// cofactor-order ones); identity points and zero scalars contribute nothing.
// The result is bit-identical to the term-by-term sum.
func (c *Curve) MSM(scalars []*big.Int, points []*Point) (*Point, error) {
	if err := msmCheckArgs(scalars, points); err != nil {
		return nil, err
	}
	start := time.Now()
	ks, pts := msmTerms(scalars, points)
	if len(pts) == 0 {
		recordMSM(0, 0, 0, time.Since(start))
		return c.Infinity(), nil
	}
	if len(pts) > msmLadderMax {
		return c.msmBuckets(ks, pts, start)
	}
	return c.msmLadder(ks, pts, start)
}

// msmTerms returns the contributing terms of Σ scalars[i]·points[i] as
// |kᵢ|·(±Pᵢ): positive scalars and non-identity points, the input of either
// kernel.
//
//cryptolint:vartime (zero terms are dropped and signs folded by math/big: a multi-scalar sum's coefficients are public — batching, Lagrange and verification scalars)
func msmTerms(scalars []*big.Int, points []*Point) (ks []*big.Int, pts []*Point) {
	ks = make([]*big.Int, 0, len(points))
	pts = make([]*Point, 0, len(points))
	for i, pt := range points {
		k := scalars[i]
		if pt.IsInfinity() || k.Sign() == 0 {
			continue
		}
		if k.Sign() < 0 {
			k, pt = new(big.Int).Neg(k), pt.Neg()
		}
		ks = append(ks, k)
		pts = append(pts, pt)
	}
	return ks, pts
}

// msmLadder is the small-n kernel behind MSM: Σ ks[i]·pts[i] for positive
// scalars and non-identity points as one interleaved w-NAF ladder.
func (c *Curve) msmLadder(ks []*big.Int, pts []*Point, start time.Time) (*Point, error) {
	recs := make([]naf, len(ks))
	for i, k := range ks {
		recs[i] = recode(k)
	}
	s := newLjScratch(c.fld)
	acc, err := c.ladder(pts, recs, s)
	if err != nil {
		return nil, err
	}
	out := c.ljToPoint(&acc, s)
	recordMSM(len(pts), 0, 0, time.Since(start))
	return out, nil
}

// msmBuckets is the Pippenger kernel behind MSM: Σ ks[i]·pts[i] for positive
// scalars and non-identity points.
//
//cryptolint:vartime (a digit is its point's bucket index and a zero digit is skipped: public coefficients, as msmTerms says)
func (c *Curve) msmBuckets(ks []*big.Int, pts []*Point, start time.Time) (*Point, error) {
	F := c.fld
	n := len(pts)

	// |kᵢ| as words and the Montgomery affine coordinates with ±y, so a
	// negative digit selects the negated point without a field negation.
	words := make([][]uint64, n)
	xs := make([][]uint64, n)
	ysPos := make([][]uint64, n)
	ysNeg := make([][]uint64, n)
	maxBits := 0
	for i, pt := range pts {
		xs[i], ysPos[i] = pt.x, pt.y
		ysNeg[i] = F.NewElt()
		F.Neg(ysNeg[i], ysPos[i])
		words[i] = scalarWords(ks[i])
		maxBits = max(maxBits, ks[i].BitLen())
	}
	b := msmWindowBits(n)
	// One extra window absorbs the final carry of the signed-digit
	// recoding (digits in (−2^(b−1), 2^(b−1)]).
	windows := (maxBits+b-1)/b + 1
	half := int64(1) << uint(b-1)
	digits := make([]int32, n*windows)
	for i := 0; i < n; i++ {
		carry := int64(0)
		for j := 0; j < windows; j++ {
			v := int64(windowDigit(words[i], j*b, b)) + carry
			carry = 0
			if v > half {
				v -= int64(1) << uint(b)
				carry = 1
			}
			digits[i*windows+j] = int32(v)
		}
		// carry is always absorbed: the top window extracts zero bits, so
		// its digit is the carry itself (≤ 1 ≤ half).
	}

	// Fan the windows across workers. Each worker owns one bucket slab and
	// scratch, reused across its contiguous window range; window sums land
	// in per-window slots for the deterministic in-order merge below.
	K := int(half)
	windowSums := make([]limbJac, windows)
	windowErrs := make([]error, windows)
	parallel.FanChunks(windows, func(lo, hi int) {
		s := newLjScratch(F)
		buckets := newLimbJacs(F, K)
		prefix := newElts(F, K)
		sum := newLimbJac(F)
		for j := lo; j < hi; j++ {
			for d := 0; d < K; d++ {
				F.SetZero(buckets[d].z)
			}
			any := false
			for i := 0; i < n; i++ {
				d := digits[i*windows+j]
				if d == 0 {
					continue
				}
				any = true
				if d > 0 {
					ljAddMixed(F, &buckets[d-1], xs[i], ysPos[i], s)
				} else {
					ljAddMixed(F, &buckets[-d-1], xs[i], ysNeg[i], s)
				}
			}
			wj := newLimbJac(F)
			if any {
				// Batch-affine collapse: normalize the live buckets with one
				// shared inversion so the suffix running sum uses cheap mixed
				// additions, then T = Σ d·bucket_d via S += bucket_d; T += S.
				if err := ljBatchNormalize(F, buckets, prefix, s); err != nil {
					windowErrs[j] = err
					continue
				}
				F.SetZero(sum.z)
				for d := K - 1; d >= 0; d-- {
					if !F.IsZero(buckets[d].z) {
						ljAddMixed(F, &sum, buckets[d].x, buckets[d].y, s)
					}
					if !F.IsZero(sum.z) {
						ljAdd(F, &wj, &sum, s)
					}
				}
			}
			windowSums[j] = wj
		}
	})
	if err := errors.Join(windowErrs...); err != nil {
		return nil, err // unreachable for prime p (see ljBatchNormalize)
	}

	// Merge window sums most-significant first: b doublings then one
	// general addition per window, in index order.
	s := newLjScratch(F)
	acc := newLimbJac(F)
	for j := windows - 1; j >= 0; j-- {
		if !F.IsZero(acc.z) {
			for i := 0; i < b; i++ {
				ljDouble(F, &acc, s)
			}
		}
		ljAdd(F, &acc, &windowSums[j], s)
	}
	out := c.ljToPoint(&acc, s)
	recordMSM(n, windows, b, time.Since(start))
	return out, nil
}

// MSM kernel accounting: how large the multi-scalar sums are in production
// and what the kernel costs decide whether the Pippenger machinery pays for
// itself outside benchmarks, so the serving daemons export them (same
// pattern as the pairing engine counters). Recording is a handful of
// uncontended atomic adds per MSM call — never per point. A call the
// interleaved ladder served (at most msmLadderMax terms) records its points
// and latency with zero windows and zero window bits.
var msmCounters struct {
	calls      atomic.Uint64                 // MSM invocations
	points     atomic.Uint64                 // contributing (nonzero) terms across calls
	windows    atomic.Uint64                 // Pippenger windows processed across calls
	windowBits atomic.Int64                  // window width chosen by the last call
	latency    atomic.Pointer[obs.Histogram] // kernel latency, set by RegisterMSMMetrics
}

// recordMSM logs one kernel invocation.
func recordMSM(points, windows, windowBits int, d time.Duration) {
	msmCounters.calls.Add(1)
	msmCounters.points.Add(uint64(points))
	msmCounters.windows.Add(uint64(windows))
	msmCounters.windowBits.Store(int64(windowBits))
	if h := msmCounters.latency.Load(); h != nil {
		h.Observe(d)
	}
}

// RegisterMSMMetrics exports the MSM counters, the kernel latency histogram
// and the hash-to-curve, cofactor-clearing, subgroup-check and square-root
// counters through reg. Idempotent — the registry deduplicates series — so every
// instrumented component may call it without coordination.
func RegisterMSMMetrics(reg *obs.Registry) {
	reg.CounterFunc("curve_msm_calls_total", "MSM kernel invocations (interleaved ladder or Pippenger)",
		func() uint64 { return msmCounters.calls.Load() })
	reg.CounterFunc("curve_msm_points_total", "scalar-point terms summed across MSM invocations",
		func() uint64 { return msmCounters.points.Load() })
	reg.CounterFunc("curve_msm_windows_total", "Pippenger windows processed across MSM invocations",
		func() uint64 { return msmCounters.windows.Load() })
	reg.GaugeFunc("curve_msm_window_bits", "Pippenger window width selected by the most recent MSM call (0: the ladder served it)",
		func() int64 { return msmCounters.windowBits.Load() })
	msmCounters.latency.Store(reg.Histogram("curve_msm_seconds", "MSM kernel latency"))
	reg.CounterFunc("curve_hash_to_point_total", "hash-to-curve evaluations (HashToPoint and HashToPointUncleared)",
		hashToPointCalls.Load)
	reg.CounterFunc("curve_cofactor_clears_total", "cofactor multiplications run (HashToPoint, RandomG1)",
		cofactorClears.Load)
	reg.CounterFunc("curve_subgroup_checks_total", "[q]· subgroup-membership ladders run (memoized verdicts do not count)",
		subgroupChecks.Load)
	reg.CounterFunc("curve_square_roots_total", "(p+1)/4 square roots taken (point decodes, hashes onto the curve, random points; several in one walk count one each)",
		squareRoots.Load)
}
