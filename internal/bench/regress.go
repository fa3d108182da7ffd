package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Regression describes one baseline entry that exceeded the allowed
// tolerance over its committed reference — in time (Metric "ns/op") or in
// heap allocations (Metric "allocs/op") — or one ratio gate (Metric
// "ratio") whose same-run quotient exceeded its bound.
type Regression struct {
	Name    string  // entry name, or "num ÷ den" for a ratio gate
	Metric  string  // "ns/op", "allocs/op" or "ratio"
	RefNs   float64 // committed reference value (the bound, for a ratio)
	FreshNs float64 // measured value
	Percent float64 // growth, percent over the reference
}

func (r Regression) String() string {
	metric := r.Metric
	if metric == "" {
		metric = "ns/op"
	}
	if metric == "ratio" {
		return fmt.Sprintf("%s: ratio %.3f exceeds the bound %.2f (+%.1f%%)", r.Name, r.FreshNs, r.RefNs, r.Percent)
	}
	return fmt.Sprintf("%s: %.1f %s vs %.1f %s reference (+%.1f%%)",
		r.Name, r.FreshNs, metric, r.RefNs, metric, r.Percent)
}

// ratioGate bounds the quotient of two primitives timed in ONE run on one
// machine (BaselineReport.Ratios). Unlike the absolute ns/op comparison the
// bound holds on any host and needs no tolerance: it is how a loose
// absolute gate (CI runs at 400 %) can still see an optimized path fall
// back to the code it replaced. Rounds and Burst size the alternating
// measurement (measureRatio) to the cost of the two sides, and DenBurst,
// where it is set, the denominator's bursts apart from the numerator's: a
// field product is a thousandth of a pairing, and timed one at a time it
// reads the clock more than the product. Max holds a bound per field kernel
// (fp.Kernel()), because a gate whose sides run on different kernels reads
// differently under each; a zero bound means the gate does not apply under
// that kernel, and its ratio is recorded as not applicable instead of being
// measured.
type ratioGate struct {
	Num, Den                string
	Max                     kernelBound
	Rounds, Burst, DenBurst int
}

// kernelBound is a ratio gate's bound under each field kernel: the portable
// Go kernels, the MULX assembly, and the lane engine beside it.
type kernelBound struct{ Go, ADX, IFMA float64 }

// every is the same bound under every kernel; asm the same under the two
// assembly kernels, and none under the Go one, where both sides of a gate
// that compares the assembly with the Go kernel are the same code.
func every(v float64) kernelBound { return kernelBound{v, v, v} }
func asm(v float64) kernelBound   { return kernelBound{0, v, v} }

// under returns the bound under the kernel k, zero where the gate does not
// apply.
func (b kernelBound) under(k string) float64 {
	switch k {
	case "go":
		return b.Go
	case "amd64-adx":
		return b.ADX
	case "amd64-adx+ifma":
		return b.IFMA
	}
	return 0
}

func (g ratioGate) name() string { return g.Num + " ÷ " + g.Den }

// kernelRatioGates are measured at paper size — when the modulus has 8
// limbs, the only width with field kernels and the one the bounds were
// taken at. The first two guard the straight-line 8-limb Go kernels of
// internal/fp (measured when they landed: 0.40 and 0.81), timed under their
// own names through fp's MulGo/SquareGo hooks so that they read the same on
// a host where Field.Mul is the assembly; at any other width Mul is the
// generic loop and Square is Mul. The third guards that assembly: Field.Mul
// as dispatched against the Go kernel (measured 0.68–0.75 when it landed;
// 1.0 if the dispatch stops reaching mul8). The fourth guards the
// batched share-proof check (measured when it landed: 0.44; 0.50–0.53 since
// ρ multiplies the generator's comb instead of U, which takes the same off
// each single check as off the batch): checking five shares of one
// ciphertext as one equation against checking them one by one, which is
// what a recombiner paid before and still pays to name a liar: 0.92–1.30
// when they are checked one by one again. On the lanes, where the
// one-by-one check's pairings got cheaper and the batch's kernels did not,
// intact (0.59–0.75) overlaps either kernel lost (0.72–0.94), so the bound
// there holds the batching alone and the last two gates hold the kernels.
// The next two guard the hot token's boundary: the
// SEM's decode of a pairing evaluation point against the full G1 decode
// (measured 0.24–0.26; 1.0 if the [q]· ladder comes back onto ibe_token's
// decoder), and the GT check against a generic 160-bit GT exponentiation,
// which is what InGT used to be: 0.48–0.50 as the Lucas ladder over q, and
// 0.28–0.35 since it compares two traces on the sparse-order paper set
// (V_(2^159) = V_(2^17+1): 18 ladder steps and 142 squarings), where the
// same build with that set forced back onto the ladder reads 0.53–0.59
// (six interleaved quick runs of each); the bound sits between them. The
// seventh guards a threshold player's share: a warm ThresholdPlayer.Share —
// G replayed from the identity's cached Miller program, the proof committed
// with R = r·d_IDi so that it is two GT powers and one scalar
// multiplication off the entry's constant-time combs — counted in one-call
// F_p² products (gf.mul, which the lane engine does not run), with a bound
// per kernel because the replay and the powers' ladders run on lanes where
// it has them. Quick runs on the 2-core IFMA host, intact against the
// program lost (G by Pair), d_IDi's comb back on the window ladder and the
// commitment W1 made by a pairing: on the lanes 841–992 (11 runs) against
// 982–1170, 1322–1497 and 1348–1567 (4 each); with the lanes deselected
// 1035–1266 (7) against 1770–1842, 1548–1587 and 1505–1982; on the Go
// kernels 1004–1136 (3) against 1552–1658, 1335–1472 and 1662–1918. On the
// lanes a lost program costs a share only what the lane walk costs over the
// lane replay, and that mutant is not caught there. The eighth guards the recombiner's optimistic round
// on a live (3, 5) cluster: a decryption whose three first choices answer
// against one that finds player 2 down and has to ask the other two as well.
// Measured 0.74–0.78 on two cores, where the three first-choice shares do not
// all overlap (≈ 0.65 expected with a core per player), and 1.19 with the
// recombiner asking all five every time — there the honest side does the
// larger job — so the bound sits between the two on any core count. The
// ninth guards the recombiner's hash: an identity hashed as a pairing.HashArg
// against the same hash cofactor-cleared into G1 (measured 0.22–0.27 for
// the bench identity, profile 0.26–0.40 with the number of try-and-increment
// attempts; 1.0 if the clearing ladder comes back). The tenth guards
// Field.Exp's sliding window in the unit the field layer is counted in, one
// squaring: a modulus-sized exponentiation costs 748–761 squarings' time
// with the window and 941–963 as plain square-and-multiply (three
// alternating runs of each on the benchmark host), and the bound sits
// midway. The eleventh guards the admission to a server's Miller-program
// cache: a token from a SEM whose cache is full of a working set it keeps
// being asked for, while a scan goes round three times as many identities
// (one working-set token and three of the scan in every four), against one
// fresh pairing. With admission the scan is refused programs and answered by
// the plain pairing, so sixteen tokens are four replays and twelve pairings:
// 0.83–0.94 measured, ≈ 0.86 by arithmetic. With a program built on every
// miss — what pairerCache.pair did before, and what it does again if the
// admission callback is lost or always says yes — the scan flushes the
// working set and every token is a build and a replay: 1.13–1.24. Since the
// SEM answers from U's abscissa the scan's tokens are TokenX and the
// denominator the x-only plain pairing they fall back to: 0.72–0.92 in 17
// quick runs (one 1.05 on a disturbed host), 1.19–1.20 without admission.
// The
// twelfth guards the secret-scalar comb against the variable-time ladder it
// replaced under a player's proof: d − 1 doublings and d additions with every
// row read, against a 160-bit w-NAF walk (measured 0.38–0.40; a comb that
// lost a tooth or fell back to the window ladder reads 0.7–1.1). The
// thirteenth guards the field's one inverse, the constant-time safegcd, in
// multiplications: ≈ 100 measured, where the math/big GCD it replaced read
// ≈ 89 and the Fermat ladder before that ≈ 720 in the same bursts. It is
// timed in 128 rounds of 16 inverses against 2 048 products, bursts of about
// equal length, where 32 rounds of 64 against 64 read 123 and 127 in two of
// eight quick runs once: 93–114 in 34 quick runs on the IFMA host, the
// Fermat inverse 720–731 (three). The last
// two guard the assembly kernels above mul8, so they are asm-only like the
// third, and count in the Go kernel's multiplications: mul8 itself times
// up to a seventh fast in the odd run (the third gate then reads 0.42–0.50
// instead of 0.70), which a denominator must not pass on. An F_p² product
// is one call on the kernel, three of mul8's products and its sums in
// registers: 1.72–2.35 Go multiplications' time, where the tower composed
// of Field calls read 2.70–2.76 (2.25 in one fast-mul8 run). The GT check
// compares two traces on the paper set: 127–148, where the Lucas ladder over
// q in one kernel call read 181–252 (192–250 with the paper set forced onto
// it, in the six interleaved runs above) and the real-part ladder of Field
// calls before that 295–302. The sixteenth guards the Miller walk's b = 0
// doubling where every kernel runs it, in the program build (NewFixedPair),
// counted in gf.mul: 880–889 on the lanes and 869–878 without them,
// 1011–1049 with the generic a = 1 step back in doubleStep; 732–742 on the
// Go kernels, 828–834 with it (3 runs each). The seventeenth guards the same
// formula in the curve's doubling: a variable-base 160-bit w-NAF
// multiplication, ≈ 160 doublings, in the same unit: 539–638 with the b = 0
// ljDouble on either assembly kernel (14 runs), 747–783 with the generic one
// back (7); 472–518 on the Go kernels, where the generic one reads 516–594
// and is caught in two runs of three. The eighteenth holds the x-only replay
// on the scalar kernels, counted in one-call F_p² squares: 894–1084 with the
// lanes deselected (4 runs) and 915–971 on the Go kernels, against 1124–1143
// and 984–1028 with one product more in SquareJ (3 each) — one extra
// product is within the noise, two are not. On the lanes the replay is
// theirs, and the twenty-first holds it. All four take the fastest of
// their rounds a side, and time gf.mul and gf.square in bursts of a
// thousand, about as long as the numerator's call.
// The nineteenth guards the Legendre symbol under the x-only decode in
// multiplications, as the thirteenth guards the inverse: 50–66, where
// Euler's criterion reads 714–748. The last guards that decode, ibe_token's
// since the SEM answers from U's abscissa, against the pairing-argument
// decode it replaced: a Legendre symbol where the other takes a square root,
// 0.09–0.11 measured, 0.995–1.002 with the root back or with the symbol by
// Euler's criterion (three quick runs each). The twenty-first, lanes-only,
// holds the x-only replay and its final exponentiation to the lane engine,
// counted in one-call F_p² products, the MULX unit the scalar replay is made
// of: 239–341 with both on lanes (15 quick runs), 463–546 with the replay
// back on MULX and 480–615 with the ladder too (5 and 4 runs). The
// twenty-second and twenty-third, lanes-only, hold the threshold
// decryption's pairings to the lane engine in the same unit, timed as the
// sixteenth is: the F_p² replay,
// which runs as PairX's replay in F_p[j]/(j² + y_Q²), 296–403 (40 quick
// runs) against 481–542 with FixedPair.Pair's lane branch dropped (4); and
// the plain pairing on the lane walk, 350–583 against 1135–1235 with
// Params.Pair back on the scalar walk. The last two hold the kernels under
// the batched share-proof check against the work each replaced, both sides
// on one scalar kernel: the five-term MSM on the interleaved ladder against
// one w-NAF multiplication, 1.94–2.73 intact and 5.13–5.92 as five
// multiplications summed, and the 20-term GT multi-exponentiation against
// one exponentiation, 4.7–9.0 intact and 19.9–26.3 as twenty multiplied
// (quick runs on all three kernels). The twenty-sixth, lanes-only, holds
// the trace ladders of one secret exponent to one lane call: four bases
// against one, 1.10–1.20 when they share it and 4.03 when each runs its
// own (quick runs on the IFMA host); on the scalar kernels the ladders run
// one after another by design and the ratio is ≈ 4 either way, so the gate
// holds nothing there. The last holds the mediated GDH signature to one
// hash onto G1: an in-process core.SignGDH at paper size against one
// hash.to-g1, 2.94–3.98 (IFMA 2.94–3.88, MULX 3.05–3.98, Go 3.68–3.83; four
// quick runs each) against 4.40–5.02 with the message hashed a second time
// (4.40–4.90, 4.51–5.02, 4.68–4.98); both sides run on one kernel, so one
// bound serves all three. The twenty-eighth, lanes-only, holds a
// recombiner's round of proof points to one walk of the square-root
// exponent on the lane engine (wire.UnmarshalPairingArgs): three decodes
// against one, 1.17–1.32 intact (16 quick runs on the IFMA host) and
// 2.97–3.02 with the roots back on one Field.Exp each (4). On the scalar
// kernels three roots are three exponentiations by design, ≈ 3 either way.
// The twenty-ninth is the seventh re-derived where one-call F_p² products
// are the wrong unit, against the x-only replay instead: since a player
// answers from U's abscissa, its warm share (that replay, one ladder for W1
// and W2 in U's ring, V off the comb) reads 1.81–2.50 intact on the lanes
// (22 quick runs on the IFMA host) and 3.04–3.59 with W1 and W2 on a 4-bit
// fixed window (10 runs; 3.36–4.17 with the window's F_p² products taken in
// the ring too), where the seventh read 643–814 against 1 084–1 417 and its
// bound, 1 200, split the mutant; on the Go kernels 1.69–1.78 against
// 2.05–2.20 (8 runs each), where the seventh read 1 044–1 094 against
// 1 217–1 361 under 1 250. On MULX the seventh still separates them
// (1 142–1 274 intact against 1 462–1 621, bound 1 400), and this one does
// not (1.29–1.97 against 2.16–2.25), so it has no bound there.
var kernelRatioGates = []ratioGate{
	{Num: "fp.mul.go", Den: "fp.mul.generic", Max: every(0.70), Rounds: 64, Burst: 2048},
	{Num: "fp.square.go", Den: "fp.mul.go", Max: every(0.92), Rounds: 64, Burst: 2048},
	{Num: "fp.mul", Den: "fp.mul.go", Max: asm(0.85), Rounds: 64, Burst: 2048},
	{Num: "thibe.verify-batch5", Den: "thibe.verify-single5", Max: kernelBound{Go: 0.65, ADX: 0.65, IFMA: 0.87}, Rounds: 12, Burst: 1},
	{Num: "wire.pairing-arg", Den: "wire.g1", Max: every(0.50), Rounds: 32, Burst: 8},
	{Num: "gt.ingt", Den: "gtexp.square-multiply", Max: every(0.45), Rounds: 32, Burst: 16},
	{Num: "thibe.player-share", Den: "gf.mul", Max: kernelBound{Go: 1250, ADX: 1400, IFMA: 1200}, Rounds: 24, Burst: 4, DenBurst: 4096},
	{Num: "cluster.decrypt.honest", Den: "cluster.decrypt.escalated", Max: every(0.90), Rounds: 24, Burst: 1},
	{Num: "hash.to-g1.arg", Den: "hash.to-g1", Max: every(0.55), Rounds: 32, Burst: 4},
	{Num: "fp.exp", Den: "fp.square", Max: every(850), Rounds: 16, Burst: 256},
	{Num: "ibe.token.scan", Den: "pair.x", Max: every(1.05), Rounds: 12, Burst: 16},
	{Num: "scalarmul.secret-comb", Den: "scalarmul.variable-wnaf", Max: every(0.55), Rounds: 32, Burst: 8},
	{Num: "fp.inv", Den: "fp.mul", Max: every(120), Rounds: 128, Burst: 16, DenBurst: 2048},
	{Num: "gf.mul", Den: "fp.mul.go", Max: asm(2.55), Rounds: 64, Burst: 1024},
	{Num: "gt.ingt", Den: "fp.mul.go", Max: asm(170), Rounds: 32, Burst: 16},
	{Num: "pair.fixed.precompute", Den: "gf.mul", Max: kernelBound{Go: 785, ADX: 950, IFMA: 950}, Rounds: 128, Burst: 1, DenBurst: 1024},
	{Num: "scalarmul.variable-wnaf", Den: "gf.mul", Max: kernelBound{Go: 545, ADX: 690, IFMA: 690}, Rounds: 128, Burst: 1, DenBurst: 1024},
	{Num: "pair.fixed.x", Den: "gf.square", Max: kernelBound{Go: 1040, ADX: 1150}, Rounds: 128, Burst: 1, DenBurst: 1024},
	{Num: "fp.legendre", Den: "fp.mul", Max: every(120), Rounds: 32, Burst: 64},
	{Num: "wire.pairing-x", Den: "wire.pairing-arg", Max: every(0.50), Rounds: 32, Burst: 8},
	{Num: "pair.fixed.x", Den: "gf.mul", Max: kernelBound{IFMA: 400}, Rounds: 64, Burst: 4},
	{Num: "pair.fixed", Den: "gf.mul", Max: kernelBound{IFMA: 450}, Rounds: 128, Burst: 1, DenBurst: 1024},
	{Num: "pair", Den: "gf.mul", Max: kernelBound{IFMA: 850}, Rounds: 128, Burst: 1, DenBurst: 1024},
	{Num: "msm.5", Den: "scalarmul.variable-wnaf", Max: every(3.8), Rounds: 32, Burst: 4},
	{Num: "gtexp.multi4x5", Den: "gtexp.square-multiply", Max: every(12), Rounds: 32, Burst: 4},
	{Num: "gtexp.secret.x4", Den: "gtexp.secret.x1", Max: kernelBound{IFMA: 2.0}, Rounds: 32, Burst: 8},
	{Num: "gdh.sign.mediated", Den: "hash.to-g1", Max: every(4.2), Rounds: 16, Burst: 2},
	{Num: "wire.pairing-arg.x3", Den: "wire.pairing-arg", Max: kernelBound{IFMA: 2.0}, Rounds: 32, Burst: 4},
	{Num: "thibe.player-share", Den: "pair.fixed.x", Max: kernelBound{Go: 1.9, IFMA: 2.75}, Rounds: 24, Burst: 4},
}

// RatioBound returns the bound of the ratio gate named "num ÷ den" under
// the field kernel, zero where the gate does not apply or no gate has that
// name.
func RatioBound(name, kernel string) float64 {
	for _, g := range kernelRatioGates {
		if g.name() == name {
			return g.Max.under(kernel)
		}
	}
	return 0
}

// fsyncBound names the entries whose time is mostly an fsync of a temporary
// directory (journal.append, and its 16 writers per op): it depends on the
// filesystem far more than on the code, and a runner's disk can be many
// times slower than the one a snapshot was recorded on. CompareBaselines
// holds them to being measured and to their allocations, not to their ns/op.
var fsyncBound = map[string]bool{"journal.append": true, "journal.append.group16": true}

// CompareBaselines checks a freshly measured report against a committed
// reference and returns the entries (by ascending name) whose ns/op grew by
// more than tolerancePct percent, fsyncBound ones aside; every entry's
// allocations are compared. The two must measure the same entries: a
// reference entry the fresh run does not measure, or a fresh entry the
// reference has no value for, is an error naming them, because a snapshot
// that has drifted from what the baseline measures gates less than it
// appears to. The parameter sets must match — cross-parameter ratios are
// meaningless — but Go version and GOARCH may differ (that is the point of
// re-measuring). The ratio gates are judged on the fresh report alone: every
// ratio it carries is held to its bound, whatever the tolerance and whatever
// the reference records (the ratios in a committed snapshot are a record of
// that run, nothing reads them back).
func CompareBaselines(ref, fresh *BaselineReport, tolerancePct float64) ([]Regression, error) {
	if ref.Params != fresh.Params {
		return nil, fmt.Errorf("bench: parameter sets differ (reference %q, fresh %q)", ref.Params, fresh.Params)
	}
	if tolerancePct < 0 {
		return nil, fmt.Errorf("bench: negative tolerance %.1f%%", tolerancePct)
	}
	refEnt := make(map[string]BaselineEntry, len(ref.Entries))
	for _, e := range ref.Entries {
		if e.NsPerOp > 0 {
			refEnt[e.Name] = e
		}
	}
	var regs []Regression
	var unreferenced []string
	for _, e := range fresh.Entries {
		old, ok := refEnt[e.Name]
		if !ok {
			unreferenced = append(unreferenced, e.Name)
			continue
		}
		delete(refEnt, e.Name)
		slowdown := (e.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		if slowdown > tolerancePct && !fsyncBound[e.Name] {
			regs = append(regs, Regression{Name: e.Name, Metric: "ns/op", RefNs: old.NsPerOp, FreshNs: e.NsPerOp, Percent: slowdown})
		}
		// Allocation gate: only when both snapshots measured the column.
		// Allocation counts are near-deterministic, so the bar is tighter
		// than the timing tolerance: a zero reference admits (almost) no
		// allocations at all, a nonzero one the same percent tolerance with
		// a small absolute slack for background-runtime noise.
		if old.AllocsPerOp == nil || e.AllocsPerOp == nil {
			continue
		}
		refA, freshA := *old.AllocsPerOp, *e.AllocsPerOp
		limit := refA*(1+tolerancePct/100) + 0.5
		if freshA > limit {
			pct := 100.0
			if refA > 0 {
				pct = (freshA - refA) / refA * 100
			}
			regs = append(regs, Regression{Name: e.Name, Metric: "allocs/op", RefNs: refA, FreshNs: freshA, Percent: pct})
		}
	}
	if len(refEnt) > 0 || len(unreferenced) > 0 {
		var unmeasured []string
		for name := range refEnt {
			unmeasured = append(unmeasured, name)
		}
		sort.Strings(unmeasured)
		sort.Strings(unreferenced)
		return nil, fmt.Errorf("bench: stale reference: it holds entries the baseline does not measure [%s] and lacks entries it measures [%s]; re-record it with benchtab -baseline",
			strings.Join(unmeasured, " "), strings.Join(unreferenced, " "))
	}
	for _, g := range kernelRatioGates {
		max := g.Max.under(fresh.FpKernel)
		for _, r := range fresh.Ratios {
			if r.Name == g.name() && !r.NA && max > 0 && r.Value > max {
				regs = append(regs, Regression{Name: r.Name, Metric: "ratio", RefNs: max, FreshNs: r.Value, Percent: (r.Value/max - 1) * 100})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, nil
}
