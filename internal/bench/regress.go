package bench

import (
	"fmt"
	"sort"
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
// measurement (measureRatio) to the cost of the two sides. An AsmOnly gate
// compares the assembly field kernel with the Go one; where the assembly is
// not what runs (fp.Kernel() is "go") both sides are the same code, so the
// ratio is recorded as not applicable instead of being measured.
type ratioGate struct {
	Num, Den      string
	Max           float64
	Rounds, Burst int
	AsmOnly       bool
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
// what a recombiner paid before and still pays to name a liar. Losing either
// new kernel under it (the small-n MSM, the GT multi-exponentiation) moves
// the ratio past the bound. The next two guard the hot token's boundary: the
// SEM's decode of a pairing evaluation point against the full G1 decode
// (measured 0.24–0.26; 1.0 if the [q]· ladder comes back onto ibe_token's
// decoder), and the GT check against a generic 160-bit GT exponentiation,
// which is what InGT used to be: 0.48–0.50 as the Lucas ladder over q, and
// 0.28–0.35 since it compares two traces on the sparse-order paper set
// (V_(2^159) = V_(2^17+1): 18 ladder steps and 142 squarings), where the
// same build with that set forced back onto the ladder reads 0.53–0.59
// (six interleaved quick runs of each); the bound sits between them. The
// seventh guards a threshold player's share: a
// warm ThresholdPlayer.Share — G replayed from the identity's cached Miller
// program, the proof committed with R = r·d_IDi so that it is two GT powers
// and one scalar multiplication — against one fresh pairing (measured
// 1.03–1.04 when it landed; 1.8–2.2 before, when a share was a fresh pairing
// plus a generator-program replay and the comb and ê(P, P) table behind
// R = r·P; 0.69–0.73 since PR 28, when the proof's V and W1 came off the
// cached entry's constant-time combs of d_IDi and cᵢ — 0.81–0.82 with W1 on
// the exponentiation ladder, and 1.05–1.08 at the parent commit in the same
// sessions). On the sparse-order paper set its denominator is a fifth
// cheaper, one chord instead of 80, and the same build reads 0.86–0.91, with
// d_IDi's comb back on the window ladder 1.26–1.28 and with the program lost
// (G by Pair) 1.42–1.45; the bound sits between them. Losing the commitment
// adds a pairing and lands past both. cᵢ's comb alone (W1 by ExpSecret)
// reads 0.94–0.98 there, too close to the intact build for a bound that must
// not flake, so this gate no longer guards it (13 interleaved quick runs of
// each). Since the b = 0 doubling made that denominator cheaper again
// (0.88–0.98 against the plain pairing), the gate counts in replays of a
// cached program instead, which the doubling does not move: 1.79–2.01
// intact, 2.68–2.69 with d_IDi's comb back on the window ladder, 2.97–3.43
// with the program lost (16, 3 and 3 quick runs). The eighth guards the recombiner's optimistic round
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
// ≈ 89 and the Fermat ladder before that ≈ 720 in the same bursts. The last
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
// doubling: a plain pairing against the replay of a cached program, which
// walks no point and so does not move with the step. With the step's
// pairing 2.04–2.23 measured; 2.28–2.59 with the generic a = 1 step back
// in doubleStep or at the parent commit (two series of interleaved quick
// runs on a busy host, 18–20 readings of each side), so the bound sits
// between the two. The seventeenth guards the same formula in the curve's
// doubling, which a pairing does not reach: a variable-base 160-bit w-NAF
// multiplication, ≈ 160 doublings, against the same replay. 1.00–1.10 with
// the b = 0 ljDouble (one reading of 1.22 in 23), 1.27–1.88 with the
// generic one back or at the parent commit (21 readings). Both count
// against the replay because it is made of the same mul8 products as their
// numerators, so a host that runs the kernel fast or slow moves both
// sides; both take the fastest of 128 single calls a side, which on that
// host was what kept the intact build's readings below the mutants'. The
// eighteenth holds the x-only replay to the standard one: its square in
// F_p[j]/(j² + s) takes four products where F_p²'s takes two, 1.12–1.21
// measured with the shared final exponentiation (30 quick runs, besides two
// readings of 1.01 and one of 1.57 on a busy host, where the sixteenth read
// up to 2.39 at the parent commit), 1.21–1.30 with one product more in the
// square and 1.30–1.34 with one more in the line as well (4 and 5 runs); one
// extra product is within the noise, two are not.
// The nineteenth guards the Legendre symbol under the x-only decode in
// multiplications, as the thirteenth guards the inverse: 50–66, where
// Euler's criterion reads 714–748. The last guards that decode, ibe_token's
// since the SEM answers from U's abscissa, against the pairing-argument
// decode it replaced: a Legendre symbol where the other takes a square root,
// 0.09–0.11 measured, 0.995–1.002 with the root back or with the symbol by
// Euler's criterion (three quick runs each).
var kernelRatioGates = []ratioGate{
	{Num: "fp.mul.go", Den: "fp.mul.generic", Max: 0.70, Rounds: 64, Burst: 2048},
	{Num: "fp.square.go", Den: "fp.mul.go", Max: 0.92, Rounds: 64, Burst: 2048},
	{Num: "fp.mul", Den: "fp.mul.go", Max: 0.85, Rounds: 64, Burst: 2048, AsmOnly: true},
	{Num: "thibe.verify-batch5", Den: "thibe.verify-single5", Max: 0.65, Rounds: 12, Burst: 1},
	{Num: "wire.pairing-arg", Den: "wire.g1", Max: 0.50, Rounds: 32, Burst: 8},
	{Num: "gt.ingt", Den: "gtexp.square-multiply", Max: 0.45, Rounds: 32, Burst: 16},
	{Num: "thibe.player-share", Den: "pair.fixed", Max: 2.30, Rounds: 24, Burst: 4},
	{Num: "cluster.decrypt.honest", Den: "cluster.decrypt.escalated", Max: 0.90, Rounds: 24, Burst: 1},
	{Num: "hash.to-g1.arg", Den: "hash.to-g1", Max: 0.55, Rounds: 32, Burst: 4},
	{Num: "fp.exp", Den: "fp.square", Max: 850, Rounds: 16, Burst: 256},
	{Num: "ibe.token.scan", Den: "pair.x", Max: 1.05, Rounds: 12, Burst: 16},
	{Num: "scalarmul.secret-comb", Den: "scalarmul.variable-wnaf", Max: 0.55, Rounds: 32, Burst: 8},
	{Num: "fp.inv", Den: "fp.mul", Max: 120, Rounds: 32, Burst: 64},
	{Num: "gf.mul", Den: "fp.mul.go", Max: 2.55, Rounds: 64, Burst: 1024, AsmOnly: true},
	{Num: "gt.ingt", Den: "fp.mul.go", Max: 170, Rounds: 32, Burst: 16, AsmOnly: true},
	{Num: "pair", Den: "pair.fixed", Max: 2.26, Rounds: 128, Burst: 1},
	{Num: "scalarmul.variable-wnaf", Den: "pair.fixed", Max: 1.24, Rounds: 128, Burst: 1},
	{Num: "pair.fixed.x", Den: "pair.fixed", Max: 1.26, Rounds: 128, Burst: 1},
	{Num: "fp.legendre", Den: "fp.mul", Max: 120, Rounds: 32, Burst: 64},
	{Num: "wire.pairing-x", Den: "wire.pairing-arg", Max: 0.50, Rounds: 32, Burst: 8},
}

// CompareBaselines checks a freshly measured report against a committed
// reference and returns the entries (by ascending name) whose ns/op grew by
// more than tolerancePct percent. Only the intersection of entry names is
// compared, so a reference from before a new primitive existed still guards
// the old ones. The parameter sets must match — cross-parameter ratios are
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
	common := 0
	for _, e := range fresh.Entries {
		old, ok := refEnt[e.Name]
		if !ok {
			continue
		}
		common++
		slowdown := (e.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		if slowdown > tolerancePct {
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
	if common == 0 {
		return nil, fmt.Errorf("bench: no common entries between reference and fresh report")
	}
	for _, g := range kernelRatioGates {
		for _, r := range fresh.Ratios {
			if r.Name == g.name() && !r.NA && r.Value > g.Max {
				regs = append(regs, Regression{Name: r.Name, Metric: "ratio", RefNs: g.Max, FreshNs: r.Value, Percent: (r.Value/g.Max - 1) * 100})
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
